//! The admission gate: a bounded, FIFO limit on concurrent executions.
//!
//! Every admitted job runs on the thread that admitted it; the gate only
//! decides *when*. At most `workers` jobs hold an execution slot at once,
//! and at most `capacity` more wait for one. A full gate refuses
//! **immediately** with the waiting depth it observed (so the caller can
//! shed with a `Retry-After` derived from it) instead of growing a hidden
//! backlog. Waiters hold numbered tickets and start in admission order: a
//! finishing job hands its slot straight to the oldest waiter. Draining
//! refuses new jobs while the waiters still run; [`Gate::sweep`] releases
//! whatever still waits at the drain deadline, so every admitted job is
//! answered, never leaked.

use std::sync::{Condvar, Mutex, MutexGuard};

struct State {
    /// Tickets handed out so far; the next ticket's number.
    issued: u64,
    /// Tickets below this number have been given a slot.
    granted: u64,
    /// Slots currently held.
    running: usize,
    draining: bool,
    /// Set by [`Gate::sweep`]: no waiting ticket will ever be granted.
    swept: bool,
}

impl State {
    fn waiting(&self) -> usize {
        if self.swept {
            0
        } else {
            (self.issued - self.granted) as usize
        }
    }
}

/// Why [`Gate::enter`] refused a job.
#[derive(Debug, PartialEq, Eq)]
pub enum Refusal {
    /// `capacity` jobs already wait; `depth` is the count observed.
    Full {
        /// Waiting jobs at refusal time.
        depth: usize,
    },
    /// The server is draining; no new work is admitted.
    Draining,
}

/// An admitted job's place in line, redeemed once with [`Gate::wait`].
#[derive(Debug)]
pub struct Ticket(u64);

/// A held execution slot; dropping it hands the slot to the oldest waiter.
pub struct Slot<'a>(&'a Gate);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.running -= 1;
        self.0.promote(&mut state);
    }
}

/// A mutex+condvar execution gate with a hard waiting capacity.
pub struct Gate {
    state: Mutex<State>,
    turn: Condvar,
    workers: usize,
    capacity: usize,
}

impl Gate {
    /// A gate running at most `workers` jobs at once with at most
    /// `capacity` more waiting (both ≥ 1, enforced by
    /// [`crate::ServeConfig::validate`]).
    pub fn new(workers: usize, capacity: usize) -> Gate {
        Gate {
            state: Mutex::new(State {
                issued: 0,
                granted: 0,
                running: 0,
                draining: false,
                swept: false,
            }),
            turn: Condvar::new(),
            workers,
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Grant free slots to the oldest waiters.
    fn promote(&self, state: &mut State) {
        if state.swept {
            return;
        }
        let before = state.granted;
        while state.running < self.workers && state.granted < state.issued {
            state.granted += 1;
            state.running += 1;
        }
        if state.granted > before {
            self.turn.notify_all();
        }
    }

    /// Admit a job, or refuse it. A ticket issued while a slot is free
    /// is granted at once.
    pub fn enter(&self) -> Result<Ticket, Refusal> {
        let mut state = self.lock();
        if state.draining {
            return Err(Refusal::Draining);
        }
        let depth = state.waiting();
        if depth >= self.capacity {
            return Err(Refusal::Full { depth });
        }
        let ticket = Ticket(state.issued);
        state.issued += 1;
        self.promote(&mut state);
        Ok(ticket)
    }

    /// Block until `ticket`'s turn comes, then hold a slot until the
    /// returned guard drops. `None`: the ticket was swept at the drain
    /// deadline and must not run.
    pub fn wait(&self, ticket: &Ticket) -> Option<Slot<'_>> {
        let mut state = self.lock();
        loop {
            if ticket.0 < state.granted {
                return Some(Slot(self));
            }
            if state.swept {
                return None;
            }
            state = self.turn.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Refuse new jobs ([`Refusal::Draining`]); waiting jobs still run.
    pub fn drain(&self) {
        self.lock().draining = true;
    }

    /// Release every waiting job unrun and return how many there were.
    /// Slots freed afterwards are not handed on.
    pub fn sweep(&self) -> usize {
        let mut state = self.lock();
        let swept = state.waiting();
        state.swept = true;
        drop(state);
        self.turn.notify_all();
        swept
    }

    /// Jobs admitted but not yet holding a slot.
    pub fn depth(&self) -> usize {
        self.lock().waiting()
    }

    /// Whether no job runs or waits.
    pub fn is_idle(&self) -> bool {
        let state = self.lock();
        state.running == 0 && state.waiting() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn refuses_exactly_at_capacity() {
        let gate = Gate::new(1, 2);
        let running = gate.enter().unwrap();
        let slot = gate.wait(&running).expect("a free slot is granted at once");
        assert_eq!(gate.depth(), 0);
        let first = gate.enter().unwrap();
        gate.enter().unwrap();
        assert_eq!(gate.depth(), 2);
        assert_eq!(gate.enter().unwrap_err(), Refusal::Full { depth: 2 });
        // The finished job hands its slot to the oldest waiter, which
        // frees one waiting place.
        drop(slot);
        assert_eq!(gate.depth(), 1);
        drop(gate.wait(&first).unwrap());
        gate.enter().unwrap();
        assert_eq!(gate.depth(), 1);
    }

    #[test]
    fn drain_refuses_new_jobs_while_waiters_still_run() {
        let gate = Arc::new(Gate::new(1, 8));
        let holder = gate.enter().unwrap();
        let slot = gate.wait(&holder).unwrap();
        let waiter = gate.enter().unwrap();
        gate.drain();
        assert_eq!(gate.enter().unwrap_err(), Refusal::Draining);
        assert!(!gate.is_idle());
        let ran = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || gate.wait(&waiter).is_some())
        };
        drop(slot);
        assert!(ran.join().unwrap(), "the waiting job runs after the drain");
        assert!(gate.is_idle());
    }

    #[test]
    fn sweep_releases_every_waiter_unrun() {
        let gate = Arc::new(Gate::new(1, 8));
        let slot = gate.wait(&gate.enter().unwrap()).unwrap();
        let waiters: Vec<_> = (0..5)
            .map(|_| {
                let ticket = gate.enter().unwrap();
                let gate = Arc::clone(&gate);
                thread::spawn(move || gate.wait(&ticket).is_some())
            })
            .collect();
        gate.drain();
        assert_eq!(gate.sweep(), 5);
        assert_eq!(gate.depth(), 0);
        for w in waiters {
            assert!(!w.join().unwrap(), "a swept job never runs");
        }
        // The running job still finishes; its slot goes to nobody.
        assert!(!gate.is_idle());
        drop(slot);
        assert!(gate.is_idle());
    }

    #[test]
    fn turns_are_taken_in_admission_order() {
        let gate = Arc::new(Gate::new(1, 16));
        let order = Arc::new(Mutex::new(Vec::new()));
        let slot = gate.wait(&gate.enter().unwrap()).unwrap();
        let mut waiters = Vec::new();
        for i in 0..8 {
            let ticket = gate.enter().unwrap();
            let (gate, order) = (Arc::clone(&gate), Arc::clone(&order));
            waiters.push(thread::spawn(move || {
                let _slot = gate.wait(&ticket).unwrap();
                order.lock().unwrap().push(i);
            }));
        }
        // Each waiter records itself while it holds the only slot, so the
        // log is the order in which turns were granted.
        drop(slot);
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }
}
