//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! failure accounting and result digests.

/// Candidate tail percentiles in per-mille, highest first.
const TAIL_LADDER_PERMILLE: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a percentile before it may be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count), or `None`
/// for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// A tail latency: the highest percentile of the ladder with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `95.0`.
    pub pct: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The highest ladder percentile (99.9, 99, 95, 90, 75, 50) whose
/// nearest-rank value has at least ten samples ranked beyond it, or
/// `None` when there are too few samples for even the median.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len() as u64;
    TAIL_LADDER_PERMILLE.iter().find_map(|&pm| {
        // Nearest rank (1-based), in integers so 99.9 % of 1000 is 999.
        let rank = (pm * n).div_ceil(1000);
        let beyond = n - rank;
        (rank >= 1 && beyond >= TAIL_MIN_BEYOND as u64).then(|| Tail {
            pct: pm as f64 / 10.0,
            value: s[rank as usize - 1],
            samples: s.len(),
        })
    })
}

/// Operations attempted and how they failed. A failure is an errored
/// operation, a cell the sweep quarantined, or a clone the fidelity gate
/// rejected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted (cells or clones).
    pub attempted: u64,
    /// Operations that returned an error other than a gate rejection.
    pub errored: u64,
    /// Grid cells quarantined by the sweep supervisor.
    pub quarantined: u64,
    /// Clones the fidelity gate rejected.
    pub gate_failed: u64,
}

impl Tally {
    /// All failed operations.
    pub fn failed(&self) -> u64 {
        self.errored + self.quarantined + self.gate_failed
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Adds another tally's counts to this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.errored += other.errored;
        self.quarantined += other.quarantined;
        self.gate_failed += other.gate_failed;
    }
}

/// FNV-1a over 64-bit words, used for result digests that two commits
/// can compare exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one word into the digest.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Folds one simulated cell result into the digest: its exact counts
    /// and the bit patterns of its derived rates.
    pub fn cell(&mut self, cycles: u64, instrs: u64, ipc: f64, power: f64, l1d_mpi: f64) {
        for w in [cycles, instrs, ipc.to_bits(), power.to_bits(), l1d_mpi.to_bits()] {
            self.word(w);
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// The low 48 bits, which a JSON number carries exactly.
    pub fn json_value(&self) -> f64 {
        (self.0 & ((1 << 48) - 1)) as f64
    }
}

/// The `ceil(instrs / width)` lower bound on the cycles any pipeline of
/// commit width `width` needs to retire `instrs` instructions.
pub fn min_cycles(instrs: u64, width: u32) -> u64 {
    instrs.div_ceil(u64::from(width.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the rule cannot rely on sorted input.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 19 samples: the median (rank 10) has only 9 beyond it.
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
        let t = tail(&ramp(20)).unwrap();
        assert_eq!((t.pct, t.value, t.samples), (50.0, 10.0, 20));
        // 39 samples: p75 is rank 30 with 9 beyond, so the median wins.
        assert_eq!(tail(&ramp(39)).unwrap().pct, 50.0);
        assert_eq!(tail(&ramp(40)).unwrap().pct, 75.0);
        assert_eq!(tail(&ramp(100)).unwrap().pct, 90.0);
        let t = tail(&ramp(200)).unwrap();
        assert_eq!((t.pct, t.value), (95.0, 190.0));
        assert_eq!(tail(&ramp(1000)).unwrap().pct, 99.0);
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.pct, t.value), (99.9, 9990.0));
    }

    #[test]
    fn tail_rank_is_exact_at_the_boundary() {
        // 160 shards: p90 is rank 144 with 16 beyond; p95 has only 8.
        let t = tail(&ramp(160)).unwrap();
        assert_eq!((t.pct, t.value), (90.0, 144.0));
        // 276 cells: p95 is rank 263 (ceil of 262.2) with 13 beyond.
        let t = tail(&ramp(276)).unwrap();
        assert_eq!((t.pct, t.value), (95.0, 263.0));
    }

    #[test]
    fn fail_frac_counts_every_failure_kind() {
        let mut t = Tally { attempted: 40, errored: 1, quarantined: 2, gate_failed: 3 };
        assert_eq!(t.failed(), 6);
        assert!((t.fail_frac() - 0.15).abs() < 1e-12);
        t.add(Tally { attempted: 60, errored: 0, quarantined: 4, gate_failed: 0 });
        assert_eq!((t.attempted, t.failed()), (100, 10));
        assert!((t.fail_frac() - 0.1).abs() < 1e-12);
        assert_eq!(Tally::default().fail_frac(), 0.0);
        let clean = Tally { attempted: 23, ..Tally::default() };
        assert_eq!((clean.failed(), clean.fail_frac()), (0, 0.0));
    }

    #[test]
    fn digest_is_order_sensitive_and_json_exact() {
        let mut a = Digest::default();
        a.cell(10, 5, 0.5, 1.25, 0.0);
        a.cell(20, 5, 0.25, 1.5, 0.1);
        let mut b = Digest::default();
        b.cell(20, 5, 0.25, 1.5, 0.1);
        b.cell(10, 5, 0.5, 1.25, 0.0);
        assert_ne!(a, b);
        assert!(a.json_value() < (1u64 << 48) as f64);
        assert_eq!(a.json_value() as u64, a.value() & ((1 << 48) - 1));
    }

    #[test]
    fn min_cycles_rounds_up() {
        assert_eq!(min_cycles(20_000, 8), 2500);
        assert_eq!(min_cycles(20_001, 8), 2501);
        assert_eq!(min_cycles(7, 1), 7);
        assert_eq!(min_cycles(0, 4), 0);
    }
}
