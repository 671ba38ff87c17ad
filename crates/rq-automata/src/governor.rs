//! Unified resource governance for every engine in the workspace.
//!
//! The paper's containment ladder is PSPACE → EXPSPACE → 2EXPSPACE-complete
//! (Thms 5–7), so *every* hot path here can legitimately blow up on small
//! adversarial inputs. Rather than hanging or aborting, engines accept a
//! [`Governor`] and return a structured [`Exhaustion`] when a budget runs
//! out. One governor instance is threaded through a whole check, so its
//! [`Counters`] snapshot describes the entire search at the moment it
//! stopped — the observability surface for callers and the CLI.
//!
//! Resources:
//!
//! * **fuel** — abstract search steps (product-state expansions, join
//!   candidates, enumerated expansions). Deterministic and portable:
//!   the same instance exhausts at the same point on every machine.
//! * **states** — constructed automaton states (lazy determinization
//!   tables, subset-pair states, product states). The memory guard.
//! * **tuples** — facts derived by the Datalog engine. The other memory
//!   guard.
//! * **deadline** — wall-clock. Checked every [`CHECK_MASK`]+1 fuel ticks
//!   (and at every state construction), so the overhead on the hot path is
//!   a counter increment and a mask test.
//! * **cancellation** — a shared [`AtomicBool`] another thread may set;
//!   surfaces as [`Resource::Cancelled`].
//!
//! The ungoverned entry points (`check_on_the_fly`, `evaluate`, …) still
//! exist and behave exactly as before: they run under
//! [`Governor::unlimited`], which never exhausts.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which budget ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The step-fuel budget ([`Limits::fuel`]).
    Fuel,
    /// The constructed-state cap ([`Limits::states`]).
    States,
    /// The derived-tuple cap ([`Limits::tuples`]).
    Tuples,
    /// The wall-clock deadline ([`Limits::deadline`]).
    Deadline,
    /// Cooperative cancellation via the shared flag.
    Cancelled,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Resource::Fuel => "fuel",
            Resource::States => "states",
            Resource::Tuples => "tuples",
            Resource::Deadline => "deadline",
            Resource::Cancelled => "cancelled",
        };
        f.write_str(s)
    }
}

/// Snapshot of everything a governor has metered so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Abstract search steps spent.
    pub fuel_spent: u64,
    /// Automaton / product states constructed.
    pub states_constructed: u64,
    /// Datalog facts derived.
    pub tuples_derived: u64,
    /// Canonical-expansion words enumerated.
    pub words_enumerated: u64,
    /// Wall-clock time since the governor started.
    pub elapsed: Duration,
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fuel={}, states={}, tuples={}, words={}, elapsed={:.1?}",
            self.fuel_spent,
            self.states_constructed,
            self.tuples_derived,
            self.words_enumerated,
            self.elapsed
        )
    }
}

/// A budget ran out: which one, how much was spent against what limit, and
/// the full counter snapshot at the moment of exhaustion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exhaustion {
    /// The resource that ran out.
    pub resource: Resource,
    /// Amount spent (for [`Resource::Deadline`], elapsed milliseconds).
    pub spent: u64,
    /// The configured limit (for [`Resource::Deadline`], the deadline in
    /// milliseconds; 0 for [`Resource::Cancelled`]).
    pub limit: u64,
    /// Snapshot of all counters when the budget ran out.
    pub counters: Counters,
}

impl fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.resource {
            Resource::Cancelled => write!(f, "cancelled ({})", self.counters),
            Resource::Deadline => write!(
                f,
                "deadline exceeded: {}ms of {}ms ({})",
                self.spent, self.limit, self.counters
            ),
            r => write!(
                f,
                "{r} exhausted: spent {} of {} ({})",
                self.spent, self.limit, self.counters
            ),
        }
    }
}

impl std::error::Error for Exhaustion {}

/// Typed error for engine entry points: either a budget ran out or the
/// input itself was invalid. Malformed input and exhausted budgets never
/// abort the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A governor budget ran out mid-search.
    Exhausted(Exhaustion),
    /// The input was malformed or out of the engine's domain.
    InvalidInput {
        /// Human-readable description of the problem.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Exhausted(e) => write!(f, "{e}"),
            EngineError::InvalidInput { message } => write!(f, "invalid input: {message}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<Exhaustion> for EngineError {
    fn from(e: Exhaustion) -> Self {
        EngineError::Exhausted(e)
    }
}

/// Declarative resource budgets. `None` means unlimited. Cloneable and
/// comparable, so it can live inside configuration types; spawn a runtime
/// [`Governor`] per check with [`Limits::governor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Limits {
    /// Max abstract search steps.
    pub fuel: Option<u64>,
    /// Max constructed automaton / product states.
    pub states: Option<u64>,
    /// Max derived Datalog facts.
    pub tuples: Option<u64>,
    /// Wall-clock deadline for the whole check. A deadline too far ahead
    /// for [`Instant`] to represent never trips, like no deadline.
    pub deadline: Option<Duration>,
}

impl Limits {
    /// No limits at all — governed code behaves exactly like ungoverned
    /// code.
    pub const fn unlimited() -> Self {
        Limits {
            fuel: None,
            states: None,
            tuples: None,
            deadline: None,
        }
    }

    /// Builder: cap the step fuel.
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }

    /// Builder: cap constructed states.
    #[must_use]
    pub fn with_states(mut self, states: u64) -> Self {
        self.states = Some(states);
        self
    }

    /// Builder: cap derived tuples.
    #[must_use]
    pub fn with_tuples(mut self, tuples: u64) -> Self {
        self.tuples = Some(tuples);
        self
    }

    /// Builder: set a wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Whether every budget is `None`.
    pub fn is_unlimited(&self) -> bool {
        *self == Limits::unlimited()
    }

    /// Spawn a fresh runtime governor for one check (the clock starts now).
    pub fn governor(&self) -> Governor {
        Governor::new(self.clone())
    }
}

impl Default for Limits {
    fn default() -> Self {
        Limits::unlimited()
    }
}

/// How often (in fuel ticks) the wall clock and cancellation flag are
/// polled: every 256 ticks, keeping `Instant::now` off the per-step path.
const CHECK_MASK: u64 = 0xFF;

/// Runtime resource meter for one check. Interior-mutable (`Cell`
/// counters) so engines can share one `&Governor` across nested calls;
/// intentionally `!Sync` — a governor meters a single search on a single
/// thread, while the cancellation flag is the cross-thread channel.
#[derive(Debug)]
pub struct Governor {
    limits: Limits,
    started: Instant,
    deadline_at: Option<Instant>,
    fuel_limit: u64,
    state_limit: u64,
    tuple_limit: u64,
    fuel: Cell<u64>,
    states: Cell<u64>,
    tuples: Cell<u64>,
    words: Cell<u64>,
    cancel: Arc<AtomicBool>,
    watched: Option<Arc<AtomicBool>>,
}

impl Governor {
    /// Start metering against `limits` (the clock starts now).
    pub fn new(limits: Limits) -> Self {
        Governor::with_cancel(limits, Arc::new(AtomicBool::new(false)))
    }

    /// Start metering against `limits` with an externally owned
    /// cancellation flag (set it from any thread to stop the search at the
    /// next poll).
    pub fn with_cancel(limits: Limits, cancel: Arc<AtomicBool>) -> Self {
        let started = Instant::now();
        Governor {
            deadline_at: limits.deadline.and_then(|d| started.checked_add(d)),
            fuel_limit: limits.fuel.unwrap_or(u64::MAX),
            state_limit: limits.states.unwrap_or(u64::MAX),
            tuple_limit: limits.tuples.unwrap_or(u64::MAX),
            limits,
            started,
            fuel: Cell::new(0),
            states: Cell::new(0),
            tuples: Cell::new(0),
            words: Cell::new(0),
            cancel,
            watched: None,
        }
    }

    /// Additionally observe a **read-only** cancellation flag. Unlike the
    /// flag passed to [`Governor::with_cancel`], this one is never written
    /// by the governor: [`Governor::cancel`] (the peer-cancel path inside
    /// parallel evaluators) does not touch it, so an internal exhaustion
    /// never shows up as a cancellation on the owner's flag.
    pub fn watching(mut self, flag: Arc<AtomicBool>) -> Self {
        self.watched = Some(flag);
        self
    }

    /// A governor that never exhausts (the ungoverned-API implementation).
    pub fn unlimited() -> Self {
        Governor::new(Limits::unlimited())
    }

    /// The limits this governor enforces.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// The shared cancellation flag; set it to `true` from another thread
    /// to stop the governed search cooperatively.
    pub fn cancel_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// Request cancellation (equivalent to setting the flag directly).
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Wall-clock time since this governor was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Fuel spent so far — the one counter trace spans delta against.
    /// Unlike [`Governor::counters`] this reads a single cell and never
    /// touches the clock, so it is safe on hot paths.
    pub fn fuel_spent(&self) -> u64 {
        self.fuel.get()
    }

    /// Snapshot of everything metered so far.
    pub fn counters(&self) -> Counters {
        Counters {
            fuel_spent: self.fuel.get(),
            states_constructed: self.states.get(),
            tuples_derived: self.tuples.get(),
            words_enumerated: self.words.get(),
            elapsed: self.elapsed(),
        }
    }

    fn exhaustion(&self, resource: Resource, spent: u64, limit: u64) -> Exhaustion {
        metrics::exhaustions(resource).inc();
        Exhaustion {
            resource,
            spent,
            limit,
            counters: self.counters(),
        }
    }

    /// Spend one unit of fuel; polls the clock/cancel flag periodically.
    #[inline]
    pub fn tick(&self) -> Result<(), Exhaustion> {
        self.spend(1)
    }

    /// Spend `n` units of fuel at once (bulk work units).
    #[inline]
    pub fn spend(&self, n: u64) -> Result<(), Exhaustion> {
        let f = self.fuel.get().saturating_add(n);
        self.fuel.set(f);
        if f > self.fuel_limit {
            return Err(self.exhaustion(Resource::Fuel, f, self.fuel_limit));
        }
        if f & CHECK_MASK < n {
            self.check_wall()?;
        }
        Ok(())
    }

    /// Record the construction of one automaton / product state.
    #[inline]
    pub fn construct_state(&self) -> Result<(), Exhaustion> {
        let s = self.states.get() + 1;
        self.states.set(s);
        if s > self.state_limit {
            return Err(self.exhaustion(Resource::States, s, self.state_limit));
        }
        if s & 0x3F == 0 {
            self.check_wall()?;
        }
        Ok(())
    }

    /// Record the derivation of one Datalog fact.
    #[inline]
    pub fn derive_tuple(&self) -> Result<(), Exhaustion> {
        let t = self.tuples.get() + 1;
        self.tuples.set(t);
        if t > self.tuple_limit {
            return Err(self.exhaustion(Resource::Tuples, t, self.tuple_limit));
        }
        if t & CHECK_MASK == 0 {
            self.check_wall()?;
        }
        Ok(())
    }

    /// Record one enumerated canonical-expansion word (costs one fuel).
    #[inline]
    pub fn count_word(&self) -> Result<(), Exhaustion> {
        self.words.set(self.words.get() + 1);
        self.tick()
    }

    /// Force a wall-clock + cancellation check (engines call this at
    /// coarse boundaries: per stratum, per fixpoint round, per BFS layer).
    pub fn check_wall(&self) -> Result<(), Exhaustion> {
        if self.cancel.load(Ordering::Relaxed) {
            return Err(self.exhaustion(Resource::Cancelled, 0, 0));
        }
        if let Some(watched) = &self.watched {
            if watched.load(Ordering::Relaxed) {
                return Err(self.exhaustion(Resource::Cancelled, 0, 0));
            }
        }
        if let Some(at) = self.deadline_at {
            let now = Instant::now();
            if now >= at {
                let limit = self.limits.deadline.unwrap_or_default();
                return Err(self.exhaustion(
                    Resource::Deadline,
                    (now - self.started).as_millis() as u64,
                    limit.as_millis() as u64,
                ));
            }
        }
        Ok(())
    }
}

impl Default for Governor {
    fn default() -> Self {
        Governor::unlimited()
    }
}

/// Workspace-wide exhaustion counters, one per [`Resource`]. Incremented
/// on the cold path only (constructing an [`Exhaustion`]), so the
/// per-tick hot path never touches them.
mod metrics {
    use super::Resource;
    use rq_metrics::{global, Counter};
    use std::sync::{Arc, OnceLock};

    pub(super) fn exhaustions(resource: Resource) -> &'static Counter {
        static CELLS: OnceLock<[Arc<Counter>; 5]> = OnceLock::new();
        let cells = CELLS.get_or_init(|| {
            ["fuel", "states", "tuples", "deadline", "cancelled"].map(|r| {
                global().counter_with(
                    "rq_governor_exhaustions_total",
                    &[("resource", r)],
                    "Governor budgets tripped, by resource",
                )
            })
        });
        let i = match resource {
            Resource::Fuel => 0,
            Resource::States => 1,
            Resource::Tuples => 2,
            Resource::Deadline => 3,
            Resource::Cancelled => 4,
        };
        &cells[i]
    }
}

/// Unwrap a governed result produced under [`Governor::unlimited`].
///
/// The ungoverned public entry points run their governed twins with an
/// unlimited governor, which can never exhaust; this keeps that invariant
/// in one audited place.
pub fn expect_unlimited<T>(r: Result<T, Exhaustion>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => unreachable!("unlimited governor reported exhaustion: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let g = Governor::unlimited();
        for _ in 0..100_000 {
            g.tick().unwrap();
        }
        g.construct_state().unwrap();
        g.derive_tuple().unwrap();
        assert_eq!(g.counters().fuel_spent, 100_000);
        assert_eq!(g.counters().states_constructed, 1);
        assert_eq!(g.counters().tuples_derived, 1);
    }

    #[test]
    fn fuel_exhausts_at_the_limit() {
        let g = Limits::unlimited().with_fuel(10).governor();
        for _ in 0..10 {
            g.tick().unwrap();
        }
        let e = g.tick().unwrap_err();
        assert_eq!(e.resource, Resource::Fuel);
        assert_eq!(e.limit, 10);
        assert_eq!(e.spent, 11);
        assert_eq!(e.counters.fuel_spent, 11);
    }

    #[test]
    fn state_and_tuple_caps() {
        let g = Limits::unlimited().with_states(2).with_tuples(3).governor();
        g.construct_state().unwrap();
        g.construct_state().unwrap();
        assert_eq!(g.construct_state().unwrap_err().resource, Resource::States);
        for _ in 0..3 {
            g.derive_tuple().unwrap();
        }
        assert_eq!(g.derive_tuple().unwrap_err().resource, Resource::Tuples);
    }

    #[test]
    fn deadline_is_detected() {
        let g = Limits::unlimited()
            .with_deadline(Duration::from_millis(0))
            .governor();
        // The masked tick path must hit the deadline within one poll window.
        let mut err = None;
        for _ in 0..=(CHECK_MASK + 1) {
            if let Err(e) = g.tick() {
                err = Some(e);
                break;
            }
        }
        let e = err.expect("deadline must trip within one poll window");
        assert_eq!(e.resource, Resource::Deadline);
        assert!(g.check_wall().is_err());
    }

    #[test]
    fn unrepresentable_deadline_never_trips() {
        let g = Limits::unlimited().with_deadline(Duration::MAX).governor();
        for _ in 0..=(CHECK_MASK + 1) {
            g.tick().unwrap();
        }
        assert!(g.check_wall().is_ok());
        assert_eq!(g.limits().deadline, Some(Duration::MAX));
    }

    #[test]
    fn cancellation_flag_stops_the_search() {
        let g = Governor::unlimited();
        let flag = g.cancel_flag();
        assert!(g.check_wall().is_ok());
        flag.store(true, Ordering::Relaxed);
        assert_eq!(g.check_wall().unwrap_err().resource, Resource::Cancelled);
    }

    #[test]
    fn watched_flag_is_observed_but_never_written() {
        let external = Arc::new(AtomicBool::new(false));
        let g = Governor::unlimited().watching(Arc::clone(&external));
        assert!(g.check_wall().is_ok());
        // The internal peer-cancel path must not leak into the watched
        // flag: it belongs to its owner alone.
        g.cancel();
        assert!(!external.load(Ordering::Relaxed));
        assert_eq!(g.check_wall().unwrap_err().resource, Resource::Cancelled);

        let external = Arc::new(AtomicBool::new(false));
        let g = Governor::unlimited().watching(Arc::clone(&external));
        external.store(true, Ordering::Relaxed);
        assert_eq!(g.check_wall().unwrap_err().resource, Resource::Cancelled);
    }

    #[test]
    fn spend_bulk_counts_and_trips() {
        let g = Limits::unlimited().with_fuel(100).governor();
        g.spend(60).unwrap();
        let e = g.spend(60).unwrap_err();
        assert_eq!(e.resource, Resource::Fuel);
        assert_eq!(e.spent, 120);
    }

    #[test]
    fn limits_builder_and_equality() {
        let l = Limits::unlimited()
            .with_fuel(1)
            .with_states(2)
            .with_tuples(3)
            .with_deadline(Duration::from_millis(4));
        assert_eq!(l.fuel, Some(1));
        assert_eq!(l.states, Some(2));
        assert_eq!(l.tuples, Some(3));
        assert_eq!(l.deadline, Some(Duration::from_millis(4)));
        assert!(!l.is_unlimited());
        assert!(Limits::default().is_unlimited());
    }

    #[test]
    fn displays_are_informative() {
        let g = Limits::unlimited().with_fuel(1).governor();
        g.tick().unwrap();
        let e = g.tick().unwrap_err();
        let s = e.to_string();
        assert!(s.contains("fuel exhausted"), "{s}");
        assert!(s.contains("spent 2 of 1"), "{s}");
        let err: EngineError = e.into();
        assert!(err.to_string().contains("fuel exhausted"));
        let inv = EngineError::InvalidInput {
            message: "bad".into(),
        };
        assert!(inv.to_string().contains("invalid input: bad"));
    }
}
