//! Host-speed calibration of the timed section.
//!
//! The benchmark runs on a few cores of a shared host. Other tenants on
//! the same physical cores change its speed for the same fixed work by
//! up to a factor of 1.7, in bursts of a tenth of a second and in
//! regimes lasting minutes. Run to run, that swamps any change to the
//! program. So the untraced timed section is cut into short stretches
//! (one solve, or one service batch), with a chunk of a fixed reference
//! computation before and after each. The reference is owned by this
//! file and shares no code with the program under test. The mean time
//! of the two chunks around a stretch, over [`REF_CHUNK_SECS`], is the
//! host's *slowdown* during that stretch. Every time measured in the
//! stretch is divided by it, so it reads as the time the solve takes on
//! the host at reference speed. Set-up is calibrated the same way.
//!
//! A change to the program leaves the reference untouched, so it moves
//! the scaled times exactly as it moves the raw ones. The unscaled
//! figures and the mean slowdown are printed next to the result.
//!
//! Wider windows (the median or mean of up to 100 chunks around a
//! stretch, or one slowdown for the whole run) tracked the bursts less
//! well: they left the tail, which the bursts set, as unsteady as the
//! raw figures or worse.
//!
//! The reference is a dense, vectorisable logistic-gradient pass, which
//! the contention slows much more than latency-bound code. Of the
//! candidates tried (this pass, and a scalar pass of random heavy-tail
//! draws, pushes and a sort), it tracked all three gated workloads best.

use std::time::Instant;

/// Rows and columns of the dense reference matrix (128 KiB).
const ROWS: usize = 512;
const COLS: usize = 32;
/// Reference passes per chunk.
const PASSES: usize = 50;
/// The median chunk time on the reference host (a 2-vCPU slice of an
/// Intel Xeon, release build, quiet period). Only ratios to it matter.
pub const REF_CHUNK_SECS: f64 = 1.0e-3;

/// The reference computation and the chunk times measured so far.
pub struct Calibration {
    x: Vec<f64>,
    w: Vec<f64>,
    g: Vec<f64>,
    chunks: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Self {
        // A fixed xorshift64 stream fills the matrix and the weights.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut uniform = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        Self {
            x: (0..ROWS * COLS).map(|_| uniform()).collect(),
            w: (0..COLS).map(|_| uniform()).collect(),
            g: vec![0.0; COLS],
            chunks: Vec::new(),
        }
    }

    /// One gradient step of logistic regression over the dense matrix.
    fn pass(&mut self) {
        for r in 0..ROWS {
            let row = &self.x[r * COLS..(r + 1) * COLS];
            let z: f64 = row.iter().zip(&self.w).map(|(a, b)| a * b).sum();
            let s = 1.0 / (1.0 + (-z).exp()) - 0.5;
            for (g, a) in self.g.iter_mut().zip(row) {
                *g += s * a;
            }
        }
        for (w, g) in self.w.iter_mut().zip(&mut self.g) {
            *w -= 1e-3 * *g;
            *g = 0.0;
        }
    }

    /// Runs one chunk of the reference work and records its time.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        for _ in 0..PASSES {
            self.pass();
        }
        std::hint::black_box(&self.w);
        self.chunks.push(t0.elapsed().as_secs_f64());
    }

    /// The slowdown of each stretch between two consecutive chunks
    /// recorded so far (one fewer than the chunks).
    pub fn slowdowns(&self) -> Vec<f64> {
        self.chunks
            .windows(2)
            .map(|w| (w[0] + w[1]) / 2.0 / REF_CHUNK_SECS)
            .collect()
    }
}
