//! Contracts of the Replay step loop's bookkeeping.
//!
//! - The schedule streams are pinned: the allocation-free sampling and
//!   the Pareto lookup table must reproduce the exact draws of the
//!   plain implementations, so every committed trace and baseline stays
//!   byte-identical.
//! - `ScheduleGen::label_floor` is a true lower bound on every later
//!   label, for every generator that overrides it.
//! - Pruning `History` below that floor never changes a lookup, and a
//!   schedule that overstates its floor makes the engine panic with the
//!   low-water-mark message instead of returning a number.

use asynciter::core::engine::{EngineConfig, History, ReplayEngine};
use asynciter::core::flexible::{FlexibleConfig, FlexibleEngine};
use asynciter::models::conditions::DelayEnvelope;
use asynciter::models::partition::Partition;
use asynciter::models::schedule::{
    record, ActiveThin, BlockRoundRobin, ChaoticBounded, CoverageGuard, CyclicCoordinate,
    EnvelopeClamp, FrozenLabelAdversary, HeavyTailDelay, LabelJitter, RecordedSchedule,
    ScheduleGen, StarvedComponent, StepBuf, SyncJacobi, UnboundedSqrtDelay,
};
use asynciter::models::trace::LabelStore;
use asynciter::numerics::norm::WeightedMaxNorm;
use asynciter::numerics::rng::{
    normal, rng, sample_indices, sample_indices_into, uniform_vec, ParetoCeil,
};
use asynciter::numerics::sparse::tridiagonal;
use asynciter::opt::linear::JacobiOperator;
use proptest::prelude::*;

/// FNV-1a over the first `steps` steps: `|S_j|`, `S_j`, then all labels.
fn stream_hash(gen: &mut dyn ScheduleGen, steps: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut buf = StepBuf::new(gen.n());
    for j in 1..=steps {
        gen.step(j, &mut buf);
        eat(buf.active.len() as u64);
        for &i in &buf.active {
            eat(i as u64);
        }
        for &l in &buf.labels {
            eat(l);
        }
    }
    h
}

#[test]
fn schedule_streams_are_pinned() {
    // Computed with the allocating `sample_indices` and the literal
    // `pareto(..).ceil()` these generators used before.
    let cases: Vec<(Box<dyn ScheduleGen>, u64)> = vec![
        (
            Box::new(HeavyTailDelay::new(48, 1, 48, 1.1, 11)),
            0x1eb0_64c3_f72a_89f7,
        ),
        (
            Box::new(HeavyTailDelay::new(48, 1, 12, 1.5, 12)),
            0x9e79_f76b_6ed0_f961,
        ),
        (
            Box::new(ChaoticBounded::new(48, 1, 48, 16, true, 13)),
            0x89ea_b8a7_efa2_ff4f,
        ),
        (
            Box::new(ChaoticBounded::new(48, 1, 12, 16, false, 14)),
            0x69d5_c2d1_2a22_3d08,
        ),
        (
            Box::new(UnboundedSqrtDelay::new(48, 1, 48, 1.5, 15)),
            0x7aa9_7daf_67d5_6a96,
        ),
    ];
    for (mut gen, want) in cases {
        let got = stream_hash(gen.as_mut(), 2000);
        assert_eq!(got, want, "{}: stream hash {got:#018x}", gen.describe());
    }
}

#[test]
fn pareto_table_matches_powf_around_every_threshold() {
    let g = ParetoCeil::GUARD;
    for alpha in [0.5, 1.1, 1.5, 3.0] {
        let table = ParetoCeil::new(alpha);
        let literal = |u: f64| (1.0 / u.powf(1.0 / alpha)).ceil() as u64;
        for k in 1..=ParetoCeil::TABLE {
            let t = (k as f64).powf(-alpha);
            for centre in [t, t * (1.0 - g), t * (1.0 + g)] {
                let (mut up, mut down) = (centre, centre);
                let mut probes = vec![centre];
                for _ in 0..8 {
                    up = up.next_up();
                    down = down.next_down();
                    probes.extend([up, down]);
                }
                for u in probes
                    .into_iter()
                    .filter(|u| (f64::MIN_POSITIVE..1.0).contains(u))
                {
                    assert_eq!(
                        table.ceil_at(u),
                        literal(u),
                        "alpha {alpha}, k {k}, u {u:e}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same draws, same indices, and the stream stays in step — from a
    /// dirty buffer of any size.
    #[test]
    fn sample_indices_into_replays_sample_indices(
        seed in 0u64..1_000_000,
        n in 1usize..300,
        kfrac in 0.0..1.0f64,
        dirty in 0usize..40,
    ) {
        let k = ((n + 1) as f64 * kfrac) as usize; // 0..=n
        let (mut a, mut b) = (rng(seed), rng(seed));
        let mut buf = vec![7usize; dirty];
        sample_indices_into(&mut a, n, k, &mut buf);
        prop_assert_eq!(&buf, &sample_indices(&mut b, n, k));
        prop_assert_eq!(normal(&mut a).to_bits(), normal(&mut b).to_bits());
    }

    /// Pruning to the schedule's floor at any cadence leaves every
    /// assembled read vector bitwise unchanged (both histories agree
    /// with a naive keep-every-version model) and bounds the versions
    /// kept.
    #[test]
    fn pruned_history_assembles_bitwise_like_the_full_one(
        seed in 0u64..1_000_000,
        n in 1usize..24,
        b in 1u64..40,
        every in 1u64..64,
        monotone in prop::bool::ANY,
    ) {
        let mut gen = ChaoticBounded::new(n, 1, n, b, monotone, seed);
        let x0 = uniform_vec(&mut rng(seed ^ 0x5eed), n, -1.0, 1.0);
        let (mut full, mut pruned) = (History::new(&x0), History::new(&x0));
        let mut naive: Vec<Vec<(u64, f64)>> = x0.iter().map(|&v| vec![(0, v)]).collect();
        let mut buf = StepBuf::new(n);
        let (mut want, mut got) = (vec![0.0; n], vec![0.0; n]);
        for j in 1..=1500u64 {
            gen.step(j, &mut buf);
            full.assemble(&buf.labels, &mut want);
            pruned.assemble(&buf.labels, &mut got);
            for (i, &l) in buf.labels.iter().enumerate() {
                let v = naive[i].iter().rev().find(|&&(s, _)| s <= l).expect("initial").1;
                prop_assert_eq!(want[i].to_bits(), v.to_bits(), "full history at j={}", j);
                prop_assert_eq!(got[i].to_bits(), v.to_bits(), "pruned history at j={}", j);
            }
            for &i in &buf.active {
                let v = (j as f64 * 0.37 + i as f64).sin();
                full.push(i, j, v);
                pruned.push(i, j, v);
                naive[i].push((j, v));
            }
            if j % every == 0 {
                pruned.prune_below(gen.label_floor(j + 1));
            }
        }
        prop_assert!(pruned.entries() <= n * (b + every + 2) as usize);
    }
}

/// Forwards a generator's steps but keeps the default floor of 0.
struct NoFloor<G>(G);

impl<G: ScheduleGen> ScheduleGen for NoFloor<G> {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn step(&mut self, j: u64, buf: &mut StepBuf) {
        self.0.step(j, buf);
    }
}

#[test]
fn label_floor_bounds_every_later_label() {
    let n = 12;
    let steps = 5000u64;
    let chaotic = |b, seed| ChaoticBounded::new(n, 1, n / 2, b, false, seed);
    let recorded = record(&mut chaotic(9, 5), steps, LabelStore::Full);
    let overriding: Vec<Box<dyn ScheduleGen>> = vec![
        Box::new(SyncJacobi::new(n)),
        Box::new(CyclicCoordinate::new(n)),
        Box::new(BlockRoundRobin::new(Partition::blocks(n, 3).unwrap(), 4)),
        Box::new(ChaoticBounded::new(n, 1, n, 16, false, 1)),
        Box::new(ChaoticBounded::new(n, 1, 4, 16, true, 2)),
        Box::new(ChaoticBounded::new(n, 1, 3, 1, false, 3)),
        Box::new(RecordedSchedule::new(recorded).unwrap()),
        Box::new(FrozenLabelAdversary::new(chaotic(16, 6), 3, 4000)),
        Box::new(StarvedComponent::new(chaotic(16, 7), 2, 100)),
        Box::new(EnvelopeClamp::new(
            chaotic(32, 8),
            DelayEnvelope::Bounded(8),
        )),
        Box::new(CoverageGuard::new(
            ActiveThin::new(chaotic(16, 9), 0.5, 10),
            10,
        )),
        Box::new(Box::new(chaotic(4, 11))),
    ];
    for mut gen in overriding {
        let floors: Vec<u64> = (1..=steps).map(|j| gen.label_floor(j)).collect();
        let trace = record(gen.as_mut(), steps, LabelStore::Full);
        // suffix[j − 1] is the smallest label read at any step ≥ j.
        let suffix = trace.min_label_suffix();
        for (j, (&floor, &lowest)) in (1u64..).zip(floors.iter().zip(&suffix)) {
            assert!(
                floor <= lowest,
                "{}: label_floor({j}) = {floor} but a later step reads {lowest}",
                gen.describe()
            );
        }
        assert!(
            floors[steps as usize - 1] > 0,
            "{} never raises its floor",
            gen.describe()
        );
    }
    // Unbounded delays (and redraws anywhere in an envelope window)
    // promise nothing: they keep every version.
    let keep_everything: Vec<Box<dyn ScheduleGen>> = vec![
        Box::new(HeavyTailDelay::new(n, 1, n, 1.5, 1)),
        Box::new(UnboundedSqrtDelay::new(n, 1, n, 1.0, 2)),
        Box::new(LabelJitter::new(
            SyncJacobi::new(n),
            DelayEnvelope::Bounded(4),
            0.5,
            3,
        )),
        Box::new(NoFloor(SyncJacobi::new(n))),
    ];
    for gen in keep_everything {
        assert_eq!(gen.label_floor(steps), 0, "{}", gen.describe());
    }
}

fn jacobi(n: usize) -> JacobiOperator {
    JacobiOperator::new(tridiagonal(n, 4.0, -1.0), vec![1.0; n]).unwrap()
}

#[test]
fn pruning_leaves_replay_and_flexible_runs_bitwise_unchanged() {
    let n = 32;
    let op = jacobi(n);
    let x0 = vec![0.0; n];
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let chaotic = || ChaoticBounded::new(n, 1, 8, 6, false, 4);
    let cfg = EngineConfig::fixed(3000);
    let pruned = ReplayEngine::run(&op, &x0, &mut chaotic(), &cfg, None).unwrap();
    let kept = ReplayEngine::run(&op, &x0, &mut NoFloor(chaotic()), &cfg, None).unwrap();
    assert_eq!(bits(&pruned.final_x), bits(&kept.final_x));
    for j in 1..=3000 {
        assert_eq!(pruned.trace.step(j), kept.trace.step(j));
        assert_eq!(
            pruned.trace.labels(j).unwrap(),
            kept.trace.labels(j).unwrap()
        );
    }
    // The flexible engine reads its labelled values through the same
    // pruned `History`.
    let cfg = FlexibleConfig::new(1500, 3).with_seed(9);
    let norm = WeightedMaxNorm::uniform(n);
    let pruned = FlexibleEngine::run(&op, &x0, &mut chaotic(), &cfg, &norm, None).unwrap();
    let kept = FlexibleEngine::run(&op, &x0, &mut NoFloor(chaotic()), &cfg, &norm, None).unwrap();
    assert_eq!(bits(&pruned.final_x), bits(&kept.final_x));
    assert_eq!(pruned.partial_reads, kept.partial_reads);
}

/// Planted negative control: claims labels never fall below `j − 2`
/// (when `lie` is set) but every 300th step reads 100 steps back.
struct ReachesBack {
    inner: SyncJacobi,
    lie: bool,
}

impl ScheduleGen for ReachesBack {
    fn n(&self) -> usize {
        self.inner.n()
    }

    fn step(&mut self, j: u64, buf: &mut StepBuf) {
        self.inner.step(j, buf);
        if j.is_multiple_of(300) {
            buf.labels.fill(j - 100);
        }
    }

    fn label_floor(&self, j: u64) -> u64 {
        if self.lie {
            j.saturating_sub(2)
        } else {
            0
        }
    }
}

#[test]
fn an_overstated_label_floor_panics_instead_of_answering() {
    let op = jacobi(8);
    let run = |lie| {
        let mut gen = ReachesBack {
            inner: SyncJacobi::new(8),
            lie,
        };
        ReplayEngine::run(&op, &[0.0; 8], &mut gen, &EngineConfig::fixed(1000), None)
    };
    // The honest schedule replays fine: the panic below is the lie's.
    assert!(run(false).is_ok());
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(true)));
    let payload = match caught {
        Ok(res) => panic!(
            "a pruned lookup returned a result: {:?}",
            res.map(|r| r.final_x)
        ),
        Err(payload) => payload,
    };
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .unwrap_or_default();
    assert!(msg.contains("low-water mark"), "unexpected panic: {msg}");
}
