//! Interleaved min-of-reps timing, shared by the acceptance benches.
//!
//! Best-of-reps (minimum time ⇒ maximum throughput) discards scheduler
//! noise on shared machines; interleaving the two sides of a ratio
//! spreads clock-frequency drift over both instead of biasing whichever
//! ran last. The pinned ratios in `benches/engine_speedup.rs` and
//! `benches/ppsr_row.rs` are computed exclusively through these
//! helpers.

use std::time::Instant;

/// Best (highest) steady-state throughput over `reps` repetitions of
/// `rounds` timed iterations — min-time estimation, robust to scheduler
/// noise on shared machines.
pub fn best_ips(reps: u32, rounds: u32, mut run: impl FnMut()) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps {
        best = best.min(time_rounds(rounds, &mut run));
    }
    f64::from(rounds) / best
}

/// [`best_ips`] for two closures with their repetitions interleaved,
/// alternating which side goes first (a, b, b, a, a, b, …), so
/// clock-frequency drift over the measurement window hits both sides
/// equally and neither side always runs on caches the other just
/// warmed. Use this for every pinned ratio: a real ~1 % gap is smaller
/// than un-interleaved drift alone.
pub fn best_pair_ips(
    reps: u32,
    rounds: u32,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::MAX, f64::MAX);
    for rep in 0..reps {
        if rep % 2 == 0 {
            best_a = best_a.min(time_rounds(rounds, &mut a));
            best_b = best_b.min(time_rounds(rounds, &mut b));
        } else {
            best_b = best_b.min(time_rounds(rounds, &mut b));
            best_a = best_a.min(time_rounds(rounds, &mut a));
        }
    }
    (f64::from(rounds) / best_a, f64::from(rounds) / best_b)
}

/// Wall-clock seconds for `rounds` back-to-back calls of `run`.
fn time_rounds(rounds: u32, run: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..rounds {
        run();
    }
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn paired_reps_alternate_which_side_runs_first() {
        let order = RefCell::new(String::new());
        best_pair_ips(
            4,
            1,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        assert_eq!(order.into_inner(), "abbaabba");
    }
}
