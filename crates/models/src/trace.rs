//! Recorded executions of asynchronous iterations.
//!
//! A [`Trace`] is the concrete realisation of the pair `(𝒮, ℒ)` from
//! Definition 1 over a finite run: for every iteration `j = 1, 2, …` it
//! stores the updated set `S_j` and the read labels `(l_1(j), …, l_n(j))`.
//! All of the paper's analytic objects — conditions (a)–(d), the
//! macro-iteration sequence, the epoch sequence, delay statistics — are
//! computed from traces, whether they come from a synthetic schedule
//! generator, the discrete-event simulator, or a real multi-threaded run.
//!
//! Full per-step label vectors cost `O(n)` memory per step; long runs on
//! large problems can opt into [`LabelStore::MinOnly`], which keeps only
//! `l(j) = min_h l_h(j)` (sufficient for macro-iterations) and the delay
//! of the *performing* update.
//!
//! Recording is arena-backed: active ids and label vectors are appended
//! to fixed-size chunks, so a step costs no allocation of its own and a
//! long trace never doubles (and briefly duplicates) one giant buffer.
//! [`TraceStep`] is a borrowed view into those chunks.

use crate::error::ModelError;
use crate::partition::Partition;

/// How much label information a trace retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelStore {
    /// Keep the full label vector `(l_1(j), …, l_n(j))` for every step.
    Full,
    /// Keep only `l(j) = min_h l_h(j)` per step.
    MinOnly,
}

/// One recorded iteration: the set `S_j` and label summary for step `j`,
/// borrowed from the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep<'a> {
    /// Components updated at this iteration (`S_j`), strictly increasing.
    pub active: &'a [u32],
    /// `l(j) = min_h l_h(j)`: the oldest label read by this update.
    pub min_label: u64,
}

/// Active ids per arena chunk (32 KiB).
const ID_CHUNK: usize = 8192;
/// Labels per arena chunk (64 KiB): 32 steps at `n = 256`.
const LABEL_CHUNK: usize = 8192;

/// Where one step's active ids live: `ids[chunk][lo..hi]`.
#[derive(Debug, Clone, Copy)]
struct Span {
    chunk: u32,
    lo: u32,
    hi: u32,
    min_label: u64,
}

/// A recorded execution of an asynchronous iteration.
#[derive(Debug, Clone)]
pub struct Trace {
    n: usize,
    spans: Vec<Span>,
    /// Active ids of every step. A chunk is closed once the next step
    /// would take it past [`ID_CHUNK`] ids (a single larger step gets a
    /// chunk of its own); only the first chunk grows by reallocation.
    ids: Vec<Vec<u32>>,
    /// Full label vectors when `LabelStore::Full`, exactly
    /// `label_steps` steps per chunk; empty otherwise.
    labels: Vec<Vec<u64>>,
    label_steps: usize,
    store: LabelStore,
}

impl Trace {
    /// Creates an empty trace over `n` components.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn new(n: usize, store: LabelStore) -> Self {
        assert!(n > 0, "Trace::new: n must be positive");
        Self {
            n,
            spans: Vec::new(),
            ids: Vec::new(),
            labels: Vec::new(),
            label_steps: (LABEL_CHUNK / n).max(1),
            store,
        }
    }

    /// Number of components `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of recorded iterations `J`; steps are `j = 1..=J`.
    #[inline]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no step has been recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Label storage mode.
    #[inline]
    pub fn store(&self) -> LabelStore {
        self.store
    }

    /// Records iteration `j = self.len() + 1`.
    ///
    /// `active` must be a nonempty strictly-increasing list of component
    /// indices; `labels` must have length `n` with every entry `≤ j − 1`
    /// *for the trace to satisfy condition (a)* — this method records
    /// whatever it is given (checkers live in [`crate::conditions`]), but
    /// enforces structural validity.
    ///
    /// # Panics
    /// Panics when `active` is empty/unsorted/out-of-range or when
    /// `labels.len() != n`.
    pub fn push_step(&mut self, active: &[usize], labels: &[u64]) {
        assert!(!active.is_empty(), "push_step: S_j must be nonempty");
        assert_eq!(labels.len(), self.n, "push_step: labels must have length n");
        let mut prev: Option<usize> = None;
        for &i in active {
            assert!(i < self.n, "push_step: component out of range");
            if let Some(p) = prev {
                assert!(i > p, "push_step: active set must be strictly increasing");
            }
            prev = Some(i);
        }
        let min_label = labels.iter().copied().min().expect("n > 0");
        let k = active.len();
        if self.ids.last().is_none_or(|c| c.len() + k > ID_CHUNK) {
            // The first chunk grows on demand so short traces stay small.
            let cap = if self.ids.is_empty() {
                0
            } else {
                ID_CHUNK.max(k)
            };
            self.ids.push(Vec::with_capacity(cap));
        }
        let chunk = self.ids.len() - 1;
        let ids = &mut self.ids[chunk];
        let lo = ids.len();
        ids.extend(active.iter().map(|&i| i as u32));
        self.spans.push(Span {
            chunk: chunk as u32,
            lo: lo as u32,
            hi: (lo + k) as u32,
            min_label,
        });
        if self.store == LabelStore::Full {
            let words = self.label_steps * self.n;
            if self.labels.last().is_none_or(|c| c.len() == words) {
                let cap = if self.labels.is_empty() { 0 } else { words };
                self.labels.push(Vec::with_capacity(cap));
            }
            self.labels
                .last_mut()
                .expect("chunk pushed above")
                .extend_from_slice(labels);
        }
    }

    #[inline]
    fn view(&self, s: &Span) -> TraceStep<'_> {
        TraceStep {
            active: &self.ids[s.chunk as usize][s.lo as usize..s.hi as usize],
            min_label: s.min_label,
        }
    }

    /// The recorded step for iteration `j` (1-based).
    ///
    /// # Panics
    /// Panics when `j` is 0 or beyond the recorded range.
    #[inline]
    pub fn step(&self, j: u64) -> TraceStep<'_> {
        assert!(
            j >= 1 && (j as usize) <= self.spans.len(),
            "step: j out of range"
        );
        self.view(&self.spans[j as usize - 1])
    }

    /// Full label vector of iteration `j` (1-based).
    ///
    /// # Errors
    /// [`ModelError::LabelsNotStored`] when recorded with
    /// [`LabelStore::MinOnly`].
    ///
    /// # Panics
    /// Panics when `j` is out of range.
    pub fn labels(&self, j: u64) -> crate::Result<&[u64]> {
        if self.store != LabelStore::Full {
            return Err(ModelError::LabelsNotStored);
        }
        assert!(
            j >= 1 && (j as usize) <= self.spans.len(),
            "labels: j out of range"
        );
        let k = j as usize - 1;
        let at = (k % self.label_steps) * self.n;
        Ok(&self.labels[k / self.label_steps][at..at + self.n])
    }

    /// Iterates over `(j, step)` pairs in increasing `j`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, TraceStep<'_>)> {
        self.spans
            .iter()
            .enumerate()
            .map(|(k, s)| (k as u64 + 1, self.view(s)))
    }

    /// Iteration indices at which component `i` was updated.
    pub fn activations_of(&self, i: usize) -> Vec<u64> {
        assert!(i < self.n, "activations_of: component out of range");
        self.iter()
            .filter(|(_, s)| s.active.binary_search(&(i as u32)).is_ok())
            .map(|(j, _)| j)
            .collect()
    }

    /// Count of updates performed by each machine under `partition`
    /// (a step updating components on several machines counts once per
    /// machine touched).
    ///
    /// # Panics
    /// Panics when the partition dimension disagrees with the trace.
    pub fn machine_update_counts(&self, partition: &Partition) -> Vec<u64> {
        assert_eq!(partition.n(), self.n, "machine_update_counts: dimension");
        let mut counts = vec![0u64; partition.num_machines()];
        let mut touched = vec![false; partition.num_machines()];
        for (_, s) in self.iter() {
            touched.fill(false);
            for &i in s.active {
                touched[partition.machine_of(i as usize)] = true;
            }
            for (m, &t) in touched.iter().enumerate() {
                if t {
                    counts[m] += 1;
                }
            }
        }
        counts
    }

    /// Suffix minima of `l(j)`: `flush[j-1] = min_{r ≥ j} l(r)`, the
    /// "oldest information still in flight at or after step j". Used by the
    /// strict macro-iteration sequence and the condition (b) checker.
    pub fn min_label_suffix(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.spans.len()];
        let mut acc = u64::MAX;
        for (k, s) in self.spans.iter().enumerate().rev() {
            acc = acc.min(s.min_label);
            out[k] = acc;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_trace() -> Trace {
        let mut t = Trace::new(2, LabelStore::Full);
        t.push_step(&[0], &[0, 0]); // j = 1
        t.push_step(&[1], &[1, 0]); // j = 2
        t.push_step(&[0, 1], &[1, 2]); // j = 3
        t
    }

    #[test]
    fn push_and_read_back() {
        let t = toy_trace();
        assert_eq!(t.len(), 3);
        assert_eq!(t.step(1).active, vec![0]);
        assert_eq!(t.step(3).active, vec![0, 1]);
        assert_eq!(t.step(2).min_label, 0);
        assert_eq!(t.labels(3).unwrap(), &[1, 2]);
    }

    #[test]
    fn min_only_rejects_label_queries() {
        let mut t = Trace::new(2, LabelStore::MinOnly);
        t.push_step(&[0], &[0, 0]);
        assert_eq!(t.labels(1), Err(ModelError::LabelsNotStored));
        assert_eq!(t.step(1).min_label, 0);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_active_panics() {
        let mut t = Trace::new(2, LabelStore::Full);
        t.push_step(&[], &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_active_panics() {
        let mut t = Trace::new(3, LabelStore::Full);
        t.push_step(&[1, 0], &[0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "length n")]
    fn wrong_label_count_panics() {
        let mut t = Trace::new(3, LabelStore::Full);
        t.push_step(&[0], &[0, 0]);
    }

    #[test]
    fn activations_of_component() {
        let t = toy_trace();
        assert_eq!(t.activations_of(0), vec![1, 3]);
        assert_eq!(t.activations_of(1), vec![2, 3]);
    }

    #[test]
    fn machine_counts_identity() {
        let t = toy_trace();
        let p = Partition::identity(2);
        assert_eq!(t.machine_update_counts(&p), vec![2, 2]);
    }

    #[test]
    fn machine_counts_single_machine() {
        let t = toy_trace();
        let p = Partition::blocks(2, 1).unwrap();
        // Every step touches machine 0 exactly once.
        assert_eq!(t.machine_update_counts(&p), vec![3]);
    }

    #[test]
    fn min_label_suffix_is_suffix_min() {
        let t = toy_trace();
        // min labels per step: 0, 0, 1 → suffix minima: 0, 0, 1.
        assert_eq!(t.min_label_suffix(), vec![0, 0, 1]);
    }

    #[test]
    fn arena_chunks_keep_every_step_intact() {
        // n = 300 puts 27 label vectors in a chunk; ~150 ids per step
        // fill an id chunk every ~55 steps.
        let n = 300;
        let mut t = Trace::new(n, LabelStore::Full);
        let mut want = Vec::new();
        for j in 1..=1000u64 {
            let active: Vec<usize> = (0..n)
                .filter(|i| (i * 7 + j as usize).is_multiple_of(2))
                .collect();
            let labels: Vec<u64> = (0..n as u64)
                .map(|h| (j - 1).saturating_sub(h % 5))
                .collect();
            t.push_step(&active, &labels);
            want.push((active, labels));
        }
        for (j, (active, labels)) in (1u64..).zip(&want) {
            let s = t.step(j);
            assert!(s
                .active
                .iter()
                .map(|&i| i as usize)
                .eq(active.iter().copied()));
            assert_eq!(s.min_label, *labels.iter().min().unwrap());
            assert_eq!(t.labels(j).unwrap(), labels.as_slice());
        }
        assert_eq!(t.iter().count(), 1000);

        // A step wider than an id chunk gets a chunk of its own.
        let n = ID_CHUNK + 5;
        let mut t = Trace::new(n, LabelStore::MinOnly);
        let all: Vec<usize> = (0..n).collect();
        t.push_step(&[3], &vec![0; n]);
        t.push_step(&all, &vec![1; n]);
        t.push_step(&[4], &vec![2; n]);
        assert_eq!(t.step(1).active, [3]);
        assert_eq!(t.step(2).active.len(), n);
        assert_eq!(t.step(2).active[n - 1] as usize, n - 1);
        assert_eq!(t.step(3).active, [4]);
        assert_eq!(t.step(3).min_label, 2);
    }

    #[test]
    fn iter_yields_one_based_indices() {
        let t = toy_trace();
        let js: Vec<u64> = t.iter().map(|(j, _)| j).collect();
        assert_eq!(js, vec![1, 2, 3]);
    }
}
