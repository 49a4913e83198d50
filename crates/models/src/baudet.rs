//! Baudet's two-processor unbounded-delay example (§II of the paper).
//!
//! Processor `P1` updates component `x₁` in one unit of time; processor
//! `P2`'s `k`-th update of `x₂` takes `k` units (completing at the
//! triangular times `T_k = k(k+1)/2`). Values are exchanged at the end of
//! each updating phase, and every update reads the freshest values
//! available when it *starts*. Ordering all completions by time yields the
//! global iteration sequence of Definition 1, and a simple calculation
//! (Baudet 1978, quoted by the paper) shows that the delay in `x₂`'s
//! information grows like `√j` — unbounded, so condition (d) fails for
//! every constant `b` — while `l₂(j) ≈ j − √j → ∞`, so condition (b)
//! holds and the asynchronous iteration still converges.
//!
//! [`baudet_trace`] constructs the exact trace; experiment E1 fits the
//! delay growth and verifies the exponent `≈ 1/2`.

use crate::trace::{LabelStore, Trace};

/// Builds the Baudet two-processor trace with `num_steps` global
/// iterations. Component 0 is `x₁` (fast processor), component 1 is `x₂`
/// (slowing processor).
///
/// Ties in completion times (P2's triangular times are integers, P1
/// completes at every integer) are broken in favour of `P1`, matching the
/// convention that a simultaneous read cannot see a value communicated at
/// the same instant.
///
/// # Panics
/// Panics when `num_steps == 0`.
pub fn baudet_trace(num_steps: u64) -> Trace {
    assert!(num_steps > 0, "baudet_trace: need at least one step");
    let mut trace = Trace::new(2, LabelStore::Full);

    // Completion bookkeeping: global iteration index of the most recent
    // completion of each processor *at or before* a given time, maintained
    // incrementally as we emit events in time order.
    //
    // P1's m-th update: start m-1, completion m.
    // P2's k-th update: start T_{k-1}, completion T_k = k(k+1)/2.
    let mut next_p1_completion = 1u64; // time of P1's next completion
    let mut p2_k = 1u64; // index of P2's in-flight update
    let mut next_p2_completion = 1u64; // T_1 = 1

    // Global labels of the latest communicated update of each component,
    // indexed by *time*: we keep, for each component, a list of
    // (completion_time, global_label) pairs appended in time order, and
    // look up the freshest entry with completion_time <= start_time.
    let mut p1_history: Vec<(u64, u64)> = Vec::new(); // (time, label) for x1
    let mut p2_history: Vec<(u64, u64)> = Vec::new(); // (time, label) for x2

    let freshest = |history: &[(u64, u64)], start: u64| -> u64 {
        // Entries are appended in increasing time; binary search for the
        // last entry with time <= start. partition_point gives the count
        // of entries with time <= start.
        let cnt = history.partition_point(|&(t, _)| t <= start);
        if cnt == 0 {
            0
        } else {
            history[cnt - 1].1
        }
    };

    for j in 1..=num_steps {
        // Next completion: P1 at `next_p1_completion`, P2 at
        // `next_p2_completion`; tie → P1 first.
        if next_p1_completion <= next_p2_completion {
            // P1's update: started at time next_p1_completion - 1.
            let start = next_p1_completion - 1;
            let l0 = freshest(&p1_history, start); // its own previous value
            let l1 = freshest(&p2_history, start);
            trace.push_step(&[0], &[l0, l1]);
            p1_history.push((next_p1_completion, j));
            next_p1_completion += 1;
        } else {
            // P2's k-th update: started at T_{k-1}.
            let start = next_p2_completion - p2_k;
            let l0 = freshest(&p1_history, start);
            let l1 = freshest(&p2_history, start);
            trace.push_step(&[1], &[l0, l1]);
            p2_history.push((next_p2_completion, j));
            p2_k += 1;
            next_p2_completion += p2_k; // T_k -> T_{k+1} adds k+1
        }
    }
    trace
}

/// The delay series `d₂(j) = j − l₂(j)` observed at `P1`'s updates — the
/// staleness of the slow component's information in the fast processor's
/// reads, the quantity Baudet shows grows like `√j`.
pub fn p1_read_delays(trace: &Trace) -> Vec<(u64, u64)> {
    trace
        .iter()
        .filter(|(_, s)| s.active == [0])
        .map(|(j, _)| {
            let l = trace.labels(j).expect("baudet trace stores full labels")[1];
            (j, j - l)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::{check_condition_a, check_condition_b, check_condition_d};
    use asynciter_numerics::stats::fit_power_law;

    #[test]
    fn first_events_match_hand_simulation() {
        // Time 1: P1 completes #1 (tie with T_1 = 1 → P1 first), then P2
        // completes its first update.
        let t = baudet_trace(6);
        // j=1: P1, started at 0, reads initial values.
        assert_eq!(t.step(1).active, vec![0]);
        assert_eq!(t.labels(1).unwrap(), &[0, 0]);
        // j=2: P2 #1 (T_1 = 1), started at 0: initial values.
        assert_eq!(t.step(2).active, vec![1]);
        assert_eq!(t.labels(2).unwrap(), &[0, 0]);
        // j=3: P1 #2, started at 1: sees P1#1 (j=1); P2's T_1=1 completion
        // communicated at time 1 → visible at start 1 (<= start). Label 2.
        assert_eq!(t.step(3).active, vec![0]);
        assert_eq!(t.labels(3).unwrap(), &[1, 2]);
        // j=4: P1 #3, started at 2: P2's next completion is T_2 = 3, not
        // yet available → still label 2.
        assert_eq!(t.step(4).active, vec![0]);
        assert_eq!(t.labels(4).unwrap(), &[3, 2]);
        // j=5: P2 #2 completes at T_2 = 3, started at T_1 = 1: sees P1#1
        // (time 1 → j=1) and its own #1 (j=2).
        assert_eq!(t.step(5).active, vec![1]);
        assert_eq!(t.labels(5).unwrap(), &[1, 2]);
        // j=6: P1 #4 completes at 4, started at 3: sees P1#3 (j=4) and
        // P2#2 (time 3 → j=5).
        assert_eq!(t.step(6).active, vec![0]);
        assert_eq!(t.labels(6).unwrap(), &[4, 5]);
    }

    #[test]
    fn conditions_a_b_hold_d_fails() {
        let t = baudet_trace(20_000);
        assert!(check_condition_a(&t).is_ok());
        // Labels grow without bound (condition (b)); generous slack
        // because P2's label plateaus between its sparse completions.
        assert!(check_condition_b(&t, 8, 1024).is_ok());
        // Delays are unbounded: no constant b works (check a few; with
        // 20k global steps the max delay is ≈ √(2·20000) ≈ 200).
        for b in [8, 64, 128] {
            assert!(check_condition_d(&t, b).is_err(), "b = {b} should fail");
        }
    }

    #[test]
    fn delay_grows_like_sqrt_j() {
        let t = baudet_trace(200_000);
        let delays = p1_read_delays(&t);
        // Windowed maxima to extract the growth envelope from the
        // sawtooth, then a log-log fit: exponent must be ~ 1/2.
        let window = 4096usize;
        let (xs, ys): (Vec<f64>, Vec<f64>) = delays
            .chunks(window)
            .filter(|c| c.len() == window)
            .map(|c| {
                let j_mid = c[c.len() / 2].0 as f64;
                let dmax = c.iter().map(|&(_, d)| d).max().unwrap() as f64;
                (j_mid, dmax)
            })
            .unzip();
        let (_, p, r2) = fit_power_law(&xs, &ys).expect("fit");
        assert!(
            (p - 0.5).abs() < 0.08,
            "delay growth exponent {p} not ~ 0.5 (r² = {r2})"
        );
        assert!(r2 > 0.95, "poor fit r² = {r2}");
    }

    #[test]
    fn p2_updates_are_sparse_in_global_index() {
        let t = baudet_trace(10_000);
        let p2_steps: Vec<u64> = t
            .iter()
            .filter(|(_, s)| s.active == [1])
            .map(|(j, _)| j)
            .collect();
        // Of J global iterations, only O(√J) belong to P2.
        let k = p2_steps.len() as f64;
        let j = 10_000f64;
        assert!(k < 3.0 * (2.0 * j).sqrt(), "too many P2 updates: {k}");
        assert!(k > 0.5 * (2.0 * j).sqrt(), "too few P2 updates: {k}");
    }

    #[test]
    fn per_reader_fifo_but_globally_non_monotone() {
        // End-of-phase exchange with single-writer components is FIFO per
        // reader: each processor's reads of each component never go
        // backwards...
        let t = baudet_trace(5000);
        let p = crate::partition::Partition::identity(2);
        assert!(crate::conditions::labels_monotone_per_reader(&t, &p).unwrap());
        // ...but the *global* label sequence is non-monotone, because the
        // slow processor's completions interleave stale reads between the
        // fast processor's fresh ones. This is exactly why analyses that
        // require globally monotone delayed labels are restrictive.
        assert!(!crate::conditions::labels_monotone(&t).unwrap());
    }
}
