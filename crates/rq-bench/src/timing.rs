//! The one timing primitive behind every `report` measurement.
//!
//! A *pass* calls the timed closure a calibrated number of times, chosen
//! so that one pass takes at least about 1 ms and timer resolution does
//! not matter. [`median`] times repeated passes of one closure and
//! returns the median per-iteration time. [`paired`] is the A/B form: it
//! interleaves passes of two closures and alternates which one runs
//! first, so machine drift (frequency scaling, noisy neighbours — ~7%
//! between sequential runs on a shared 2-vCPU host) lands on both sides
//! equally instead of on whichever side ran second.

use std::hint::black_box;
use std::time::Instant;

/// The minimum length of one timed pass, in µs.
const MIN_PASS_US: f64 = 1_000.0;

/// Iterations per pass: doubled until one pass takes at least
/// [`MIN_PASS_US`]. The calibration passes double as warm-up.
fn calibrate<T>(f: &mut impl FnMut() -> T) -> u32 {
    let mut iters = 1;
    while pass(f, iters) * f64::from(iters) < MIN_PASS_US {
        iters *= 2;
    }
    iters
}

/// Mean µs per iteration over one pass of `iters` calls.
fn pass<T>(f: &mut impl FnMut() -> T, iters: u32) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    t.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
}

fn mid(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median µs per iteration of `f` over `passes` timed passes, together
/// with the result of one further, untimed call (so a row can print what
/// it timed — a verdict, a state count — without a separate run).
pub fn median<T>(passes: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let iters = calibrate(&mut f);
    let times = (0..passes).map(|_| pass(&mut f, iters)).collect();
    (f(), mid(times))
}

/// Median µs per iteration of `a` and of `b` over `rounds` rounds of one
/// pass each, with the two passes of a round in alternating order.
pub fn paired<A, B>(
    rounds: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (f64, f64) {
    let (ia, ib) = (calibrate(&mut a), calibrate(&mut b));
    let (mut ta, mut tb) = (Vec::with_capacity(rounds), Vec::with_capacity(rounds));
    for round in 0..rounds {
        if round % 2 == 0 {
            ta.push(pass(&mut a, ia));
            tb.push(pass(&mut b, ib));
        } else {
            tb.push(pass(&mut b, ib));
            ta.push(pass(&mut a, ia));
        }
    }
    (mid(ta), mid(tb))
}

/// Median µs per iteration of each closure in `fs`, over `rounds` rounds
/// that each time one pass of every closure in turn. Each median's passes
/// then span the whole measurement instead of one stretch of it, so a
/// neighbour that slows the host for a few hundred ms shifts every row a
/// little rather than one row a lot.
pub fn interleaved<T, F: FnMut() -> T>(rounds: usize, fs: &mut [F]) -> Vec<f64> {
    let iters: Vec<u32> = fs.iter_mut().map(|f| calibrate(f)).collect();
    let mut times = vec![Vec::with_capacity(rounds); fs.len()];
    for _ in 0..rounds {
        for ((f, &n), t) in fs.iter_mut().zip(&iters).zip(&mut times) {
            t.push(pass(f, n));
        }
    }
    times.into_iter().map(mid).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::time::Duration;

    #[test]
    fn fast_closures_are_calibrated_to_a_millisecond_pass() {
        let mut f = || black_box(1u64) + 1;
        let iters = calibrate(&mut f);
        assert!(iters > 1);
        let (v, _) = median(3, f);
        assert_eq!(v, 2);
    }

    #[test]
    fn paired_alternates_which_side_runs_first() {
        // Each call sleeps 1 ms, so both sides calibrate to one call per
        // pass and the call log is the pass order.
        let calls = RefCell::new(String::new());
        let side = |c| {
            std::thread::sleep(Duration::from_millis(1));
            calls.borrow_mut().push(c);
        };
        paired(4, || side('a'), || side('b'));
        assert_eq!(
            calls.into_inner(),
            "ab".to_owned() + "ab" + "ba" + "ab" + "ba"
        );
    }

    #[test]
    fn interleaved_times_one_pass_of_each_closure_per_round() {
        let calls = RefCell::new(String::new());
        let side = |c| {
            std::thread::sleep(Duration::from_millis(1));
            calls.borrow_mut().push(c);
        };
        let mut fs: Vec<_> = ['a', 'b', 'c']
            .into_iter()
            .map(|c| move || side(c))
            .collect();
        let times = interleaved(2, &mut fs);
        assert_eq!(times.len(), 3);
        assert!(times.iter().all(|&t| t >= 1_000.0));
        assert_eq!(calls.into_inner(), "abc".repeat(3));
    }
}
