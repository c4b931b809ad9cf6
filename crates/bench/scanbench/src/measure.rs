//! Timed scans and the statistics reported from them.

use crate::alloc;
use crate::oracle::TxOracle;
use crate::replay::{Divergence, Recorder, RecorderHandle, Recording, ReplayState};
use crate::workload::{mix, sorted, Scenario, SOURCE};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::time::Instant;
use zmap_core::metadata::Counters;
use zmap_core::output::{OutputFormat, OutputModule};
use zmap_core::transport::SimNet;
use zmap_core::{ScanResult, ScanSummary, Scanner, Transport};

/// What one scan produced, and what it cost.
pub struct ScanRun {
    pub summary: ScanSummary,
    /// The CSV data stream, encoded as the CLI encodes it.
    pub csv: Vec<u8>,
    /// Wall time of `Scanner::new`.
    pub setup_ns: u64,
    /// Wall time from `Scanner::new` through CSV encoding.
    pub total_ns: u64,
}

impl ScanRun {
    /// Digest of the data stream: equal digests mean byte-identical
    /// output.
    pub fn digest(&self) -> u64 {
        digest(&self.csv)
    }
}

/// 64-bit digest of a byte string (SipHash with fixed keys).
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(bytes);
    h.finish()
}

/// Encodes results into the CSV stream, as `zmap -O csv` does.
pub fn encode_csv(results: &[ScanResult]) -> Vec<u8> {
    let mut out = OutputModule::new(OutputFormat::Csv, Vec::new());
    for r in results {
        out.record(r).expect("writing to memory cannot fail");
    }
    out.finish().expect("flushing memory cannot fail")
}

/// Runs one scan of `sc` over `transport`, timing it from
/// `Scanner::new` through CSV encoding of all results.
pub fn timed_scan<T: Transport>(sc: &Scenario, transport: T) -> ScanRun {
    let cfg = sc.cfg.clone();
    let t0 = Instant::now();
    let scanner = Scanner::new(cfg, transport).expect("workload configs are valid");
    let t1 = Instant::now();
    let summary = scanner.run();
    let csv = encode_csv(&summary.results);
    let t2 = Instant::now();
    ScanRun {
        summary,
        csv,
        setup_ns: (t1 - t0).as_nanos() as u64,
        total_ns: (t2 - t0).as_nanos() as u64,
    }
}

/// Wall time of one `Scanner::new` for `sc`, in ns.
pub fn time_setup(sc: &Scenario) -> u64 {
    let cfg = sc.cfg.clone();
    let t0 = Instant::now();
    let scanner =
        Scanner::new(cfg, zmap_core::LoopbackTransport::new()).expect("workload configs are valid");
    let ns = t0.elapsed().as_nanos() as u64;
    drop(scanner);
    ns
}

/// The reference scan over `SimNet`, recorded.
pub fn record(sc: &Scenario) -> (ScanRun, Recording) {
    let net = SimNet::new(sc.world.clone());
    let oracle = TxOracle::new(&sc.cfg).expect("workload configs are valid");
    let mut rec = Recorder::new(net.transport(SOURCE), oracle);
    let run = timed_scan(sc, RecorderHandle(&mut rec));
    (run, rec.into_recording())
}

/// One scan over `SimNet` (scanner plus simulator).
pub fn sim_scan(sc: &Scenario) -> ScanRun {
    let net = SimNet::new(sc.world.clone());
    timed_scan(sc, net.transport(SOURCE))
}

/// A replay run and what the replay observed around it.
pub struct ReplayRun {
    pub run: ScanRun,
    /// Peak heap above the pre-scan baseline, in bytes.
    pub peak_bytes: i64,
    /// Allocation calls during the run.
    pub allocs: u64,
    /// Wall time between consecutive `send_batch` calls, in ns.
    pub batch_gaps: Vec<u64>,
}

/// One scanner-only run of `sc` over a replay of `rec`. Fails with the
/// divergence if the engine leaves the recorded conversation; the
/// run's results are then discarded.
pub fn replay_scan(sc: &Scenario, rec: &Recording) -> Result<ReplayRun, Divergence> {
    let mut state = ReplayState::new(rec);
    alloc::clear_credit();
    let base = alloc::reset_peak();
    let allocs0 = alloc::allocs();
    let run = timed_scan(sc, state.transport());
    let allocs = alloc::allocs() - allocs0;
    let peak_bytes = alloc::peak() - base;
    alloc::clear_credit();
    state.finish()?;
    let batch_gaps = state.batch_gaps().collect();
    Ok(ReplayRun {
        run,
        peak_bytes,
        allocs,
        batch_gaps,
    })
}

/// Wall time of one [`Calibration`] unit on the host the reported
/// timings are scaled to, in ns: a round 5 ms, about what a unit takes
/// on a 2-vCPU Intel Xeon (Sapphire Rapids) VM at 2.0 GHz in its quiet
/// periods.
pub const REFERENCE_UNIT_NS: f64 = 5.0e6;
/// Random reads from the table in one unit.
const UNIT_READS: usize = 360_000;
/// 64 MiB of `u64`, larger than the scans' hash tables.
const TABLE_WORDS: usize = 8 << 20;

/// Host-speed calibration. On a shared machine the same scan runs up to
/// 2.5x slower while neighbours load the memory system, for minutes at
/// a time. A calibration unit is fixed work: independent random reads
/// from a 64 MiB table, about 5 ms on the reference host. Across runs
/// minutes apart, scan times move about one for one with it, while a
/// chain of dependent multiplies (core speed) barely moves. Units are
/// timed between consecutive scans, and each scan's timings are scaled
/// by `REFERENCE_UNIT_NS` over the median of the units on either side.
pub struct Calibration {
    table: Vec<u64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::new()
    }
}

impl Calibration {
    /// Allocates and fills the table (about 50 ms, outside any timing).
    pub fn new() -> Calibration {
        Calibration {
            table: (0..TABLE_WORDS as u64).map(mix).collect(),
        }
    }

    /// Wall time of one unit, in ns.
    pub fn unit_ns(&self) -> f64 {
        let t0 = Instant::now();
        let mask = self.table.len() - 1;
        let (mut x, mut sum) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
        for _ in 0..UNIT_READS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sum = sum.wrapping_add(self.table[x as usize & mask]);
        }
        std::hint::black_box(sum);
        t0.elapsed().as_nanos() as f64
    }
}

/// The parts of a summary two runs of one config must agree on.
pub fn outcome(s: &ScanSummary) -> (u64, Counters, Vec<ScanResult>) {
    (s.sent, s.metadata.counters, sorted(&s.results))
}

/// Sorted copy of `v` (total order on floats).
fn sorted_f64(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Quartiles as Python's `statistics.quantiles(v, n=4)` computes them
/// (the default "exclusive" method). Needs at least two values; a single
/// value is its own quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted_f64(v);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (s[0], s[0], s[0]);
    }
    let q = |i: usize| {
        // Python's exclusive method, step for step: j = i*(n+1) div 4,
        // clamped to [1, n-1], then interpolate (or, after clamping,
        // extrapolate) between s[j-1] and s[j].
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted_f64(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The `p`-th percentile (nearest rank) of `v`, 0 when empty.
pub fn percentile(v: &mut [u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A reported metric: median, quartiles and sample count.
#[derive(Clone, Debug)]
pub struct Stat {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Stat {
    /// Summarises `samples` by their median and quartiles.
    pub fn of(name: &'static str, unit: &'static str, samples: &[f64]) -> Stat {
        let (q1, _, q3) = quartiles(samples);
        Stat {
            name,
            unit,
            value: median(samples),
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// Throughput of a run's scans of `probes` each that took `times`
    /// seconds: all their probes over their summed time. The quartiles
    /// are those of the same estimate over up to eight contiguous blocks
    /// of the scans, so they bracket the value they describe.
    pub fn throughput(name: &'static str, probes: f64, times: &[f64]) -> Stat {
        let rate = |t: &[f64]| probes * t.len() as f64 / t.iter().sum::<f64>();
        let n = times.len();
        let k = n.min(8);
        let blocks: Vec<f64> = (0..k)
            .map(|j| rate(&times[j * n / k..(j + 1) * n / k]))
            .collect();
        let (q1, _, q3) = quartiles(&blocks);
        Stat {
            name,
            unit: "1/s",
            value: if n == 0 { 0.0 } else { rate(times) },
            q1,
            q3,
            n,
        }
    }

    /// A single measured value (a count or ratio).
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Stat {
        Stat {
            name,
            unit,
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut v, 99.0), 99);
        assert_eq!(percentile(&mut [], 99.0), 0);
    }
}
