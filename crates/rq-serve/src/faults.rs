//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a pure function `(seed, site, sequence) → fault?`:
//! the same plan replays the same faults at the same operations on every
//! run, so a chaos-suite failure reproduces from its seed alone. The
//! decision logic is compiled in only with the `faults` cargo feature;
//! without it [`FaultPlan::decide`] is a constant `None` the optimizer
//! erases, so production builds carry zero chaos overhead.
//!
//! Sites map to the failure domains the server hardens:
//! * [`FaultSite::Pool`] — the execution of one admitted job (panic /
//!   delay / fuel starvation, so the exhaustion path fires);
//! * [`FaultSite::Io`] — connection handling (delays and dropped
//!   connections).

use std::time::Duration;

/// Where a fault may be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Inside the execution of one admitted job.
    Pool,
    /// Around connection I/O.
    Io,
}

/// What to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic at the site (must be contained by `catch_unwind`).
    Panic,
    /// Sleep this long before proceeding.
    Delay(Duration),
    /// Replace the operation's fuel budget with a starvation budget so
    /// it exhausts almost immediately.
    Starve,
}

/// A seeded, rate-based injection plan. Rates are per-million decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the per-decision hash.
    pub seed: u64,
    /// Panic rate, per million.
    pub panic_ppm: u32,
    /// Delay rate, per million.
    pub delay_ppm: u32,
    /// Injected delay length.
    pub delay: Duration,
    /// Fuel-starvation rate, per million.
    pub starve_ppm: u32,
}

impl FaultPlan {
    /// The inert plan: decides `None` everywhere (and is the `Default`).
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            panic_ppm: 0,
            delay_ppm: 0,
            delay: Duration::from_millis(1),
            starve_ppm: 0,
        }
    }

    /// A plan injecting each fault kind at `ppm` per million decisions —
    /// the chaos suite's convenience constructor.
    pub fn uniform(seed: u64, ppm: u32) -> FaultPlan {
        FaultPlan {
            seed,
            panic_ppm: ppm,
            delay_ppm: ppm,
            delay: Duration::from_millis(1),
            starve_ppm: ppm,
        }
    }

    /// Whether this plan can ever inject anything.
    pub fn is_active(&self) -> bool {
        compiled() && (self.panic_ppm > 0 || self.delay_ppm > 0 || self.starve_ppm > 0)
    }

    /// Parse the CLI spec `seed=S,panic=PPM,delay=PPM,delay_ms=MS,starve=PPM`
    /// (any subset of keys; missing keys default to the inert plan).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec {part:?}: expected key=value"))?;
            let parse_u64 = |v: &str| -> Result<u64, String> {
                v.parse()
                    .map_err(|_| format!("fault spec {key}: expected an integer, got {value:?}"))
            };
            match key {
                "seed" => plan.seed = parse_u64(value)?,
                "panic" => plan.panic_ppm = parse_u64(value)? as u32,
                "delay" => plan.delay_ppm = parse_u64(value)? as u32,
                "delay_ms" => plan.delay = Duration::from_millis(parse_u64(value)?),
                "starve" => plan.starve_ppm = parse_u64(value)? as u32,
                other => return Err(format!("fault spec: unknown key {other:?}")),
            }
        }
        Ok(plan)
    }

    /// Decide deterministically whether operation number `seq` at `site`
    /// experiences a fault. Compiled to `None` without the `faults`
    /// feature.
    #[inline]
    pub fn decide(&self, site: FaultSite, seq: u64) -> Option<Fault> {
        #[cfg(feature = "faults")]
        {
            let total =
                u64::from(self.panic_ppm) + u64::from(self.delay_ppm) + u64::from(self.starve_ppm);
            if total == 0 {
                return None;
            }
            let site_tag = match site {
                FaultSite::Pool => 0x706F6F6Cu64,
                FaultSite::Io => 0x00696F00u64,
            };
            let draw = splitmix64(self.seed ^ site_tag.rotate_left(17) ^ seq) % 1_000_000;
            if draw < u64::from(self.panic_ppm) {
                return Some(Fault::Panic);
            }
            if draw < u64::from(self.panic_ppm) + u64::from(self.delay_ppm) {
                return Some(Fault::Delay(self.delay));
            }
            if draw < total {
                return Some(Fault::Starve);
            }
            None
        }
        #[cfg(not(feature = "faults"))]
        {
            let _ = (site, seq);
            None
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Whether the fault-injection layer is compiled into this build.
pub const fn compiled() -> bool {
    cfg!(feature = "faults")
}

#[cfg(feature = "faults")]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_cli_spec() {
        let plan = FaultPlan::parse("seed=7,panic=100,delay=200,delay_ms=3,starve=400").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.panic_ppm, 100);
        assert_eq!(plan.delay_ppm, 200);
        assert_eq!(plan.delay, Duration::from_millis(3));
        assert_eq!(plan.starve_ppm, 400);
        assert!(FaultPlan::parse("panic=x").is_err());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
    }

    #[test]
    fn inert_plan_never_fires() {
        let plan = FaultPlan::none();
        for seq in 0..10_000 {
            assert_eq!(plan.decide(FaultSite::Pool, seq), None);
        }
        assert!(!plan.is_active());
    }

    #[cfg(feature = "faults")]
    #[test]
    fn decisions_are_deterministic_and_near_the_configured_rate() {
        let plan = FaultPlan::uniform(1234, 10_000); // 1% per kind → 3% total
        let first: Vec<_> = (0..50_000)
            .map(|seq| plan.decide(FaultSite::Pool, seq))
            .collect();
        let second: Vec<_> = (0..50_000)
            .map(|seq| plan.decide(FaultSite::Pool, seq))
            .collect();
        assert_eq!(first, second, "same seed, same faults");
        let fired = first.iter().filter(|f| f.is_some()).count();
        // 3% of 50k = 1500 expected; allow generous sampling slack.
        assert!((900..=2100).contains(&fired), "fired {fired} of 50000");
        // Sites are decorrelated: the same sequence number draws
        // differently at different sites.
        let pool: Vec<_> = (0..1000).map(|s| plan.decide(FaultSite::Pool, s)).collect();
        let io: Vec<_> = (0..1000).map(|s| plan.decide(FaultSite::Io, s)).collect();
        assert_ne!(pool, io);
    }

    #[cfg(not(feature = "faults"))]
    #[test]
    fn without_the_feature_every_decision_is_none() {
        let plan = FaultPlan::uniform(1234, 500_000);
        assert!(!plan.is_active());
        assert!((0..1000).all(|s| plan.decide(FaultSite::Pool, s).is_none()));
    }
}
