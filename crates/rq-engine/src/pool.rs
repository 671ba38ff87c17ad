//! A small fixed-size worker pool: `n` persistent OS threads draining one
//! FIFO job queue.
//!
//! The engine's unit of parallelism is one stripe of product BFS searches,
//! so all it needs is a channel of boxed jobs — no work stealing, no
//! external crates (the workspace builds offline). Jobs carry their own
//! governors and report their own outcome, a panic included, over a
//! channel of their own (see `Engine::eval_sources`), so a job never
//! unwinds into the pool and the pool needs no panic handling.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

use rq_metrics::{global, Gauge};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed set of worker threads draining a shared job queue. Dropping the
/// pool closes the queue and joins every worker (pending jobs finish
/// first).
pub(crate) struct WorkerPool {
    /// `None` only inside `Drop`, which closes the queue by dropping it.
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

fn worker_loop(receiver: &Mutex<Receiver<Job>>) {
    loop {
        // A `let` statement drops the guard at its end, so the queue lock
        // is held for `recv` only, never while the job runs.
        let Ok(job) = receiver
            .lock()
            .expect("no thread panics holding the queue lock")
            .recv()
        else {
            return; // the pool closed the queue and it is drained
        };
        queue_depth().sub(1);
        job();
    }
}

impl WorkerPool {
    /// Spawn `threads` workers (at least one).
    pub(crate) fn new(threads: usize) -> WorkerPool {
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads.max(1))
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("rq-engine-worker-{i}"))
                    .spawn(move || worker_loop(&receiver))
                    .expect("spawn an engine worker thread")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Number of worker threads.
    pub(crate) fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueue a job. Jobs start in submission order but complete in any
    /// order; use a results channel to collect outputs. The job must not
    /// unwind.
    pub(crate) fn execute(&self, job: impl FnOnce() + Send + 'static) {
        queue_depth().add(1);
        let sender = self.sender.as_ref().expect("the queue closes only in Drop");
        sender
            .send(Box::new(job))
            .expect("workers live as long as the pool");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The pool's one metric: jobs enqueued but not yet picked up by a worker.
fn queue_depth() -> &'static Gauge {
    static DEPTH: OnceLock<Arc<Gauge>> = OnceLock::new();
    DEPTH.get_or_init(|| {
        global().gauge(
            "rq_pool_queue_depth",
            "Jobs enqueued but not yet picked up by a worker",
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_stripes;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_job_across_workers() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let hits = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = channel();
        for _ in 0..64 {
            let hits = Arc::clone(&hits);
            let tx = tx.clone();
            pool.execute(move || {
                hits.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..64 {
            rx.recv().unwrap();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let (tx, rx) = channel();
        pool.execute(move || tx.send(7).unwrap());
        assert_eq!(rx.recv().unwrap(), 7);
    }

    #[test]
    fn drop_joins_after_draining() {
        let hits = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..16 {
                let hits = Arc::clone(&hits);
                pool.execute(move || {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
        } // Drop waits for all 16.
        assert_eq!(hits.load(Ordering::SeqCst), 16);
    }

    /// A panicking job fails alone: its stripe wrapper catches the panic
    /// and hands it to the caller, and the worker keeps serving — on a
    /// pool of one worker, so the panicking and later jobs share a thread.
    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1);
        for _ in 0..8 {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_stripes(&pool, 1, |_, _| panic!("injected job panic"))
            }));
            assert!(outcome.is_err(), "the panic reaches the caller");
        }
        let (tx, rx) = channel();
        pool.execute(move || tx.send(42).unwrap());
        assert_eq!(rx.recv().unwrap(), 42);
    }

    /// Interleaved panics and real work on several workers: every real
    /// stripe completes before the panic is re-raised, and the pool still
    /// drains cleanly on drop.
    #[test]
    fn panics_interleaved_with_work() {
        let hits = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(3);
            let counted = Arc::clone(&hits);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_stripes(&pool, 60, move |s, _| {
                    assert_ne!(s % 3, 0, "chaos");
                    counted.fetch_add(1, Ordering::SeqCst);
                })
            }));
            assert!(outcome.is_err(), "the panic reaches the caller");
            assert_eq!(hits.load(Ordering::SeqCst), 40);
        }
        assert_eq!(hits.load(Ordering::SeqCst), 40);
    }
}
