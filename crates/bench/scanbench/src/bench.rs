//! One benchmark run of one workload: record, check, measure, report.

use crate::layers::{layer_pass, total, traced_engine_run, write_trace, Layer, LayerTotals};
use crate::measure::{
    median, outcome, percentile, quartiles, record, replay_scan, sim_scan, time_setup, Calibration,
    ReplayRun, ScanRun, Stat, REFERENCE_UNIT_NS,
};
use crate::replay::Recording;
use crate::workload::{check_ground_truth, sorted, Scenario, Size, Workload};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use zmap_core::plan::ScanPlan;

/// Minimum replay and simulator scans per run, however short `seconds`.
const MIN_SCANS: usize = 3;
/// Extra `Scanner::new` timings per measurement round, for `setup_s`.
const SETUPS_PER_ROUND: usize = 8;
/// Calibration units timed between consecutive scans.
const UNITS_PER_SCAN: usize = 3;
/// `ScanPlan::build` timings for `targets.build_us`.
const PLAN_BUILDS: usize = 9;

/// Options of one run.
pub struct RunArgs {
    pub workload: Workload,
    /// `Full` for the benchmark; tests run `Reduced`.
    pub size: Size,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub trace_path: PathBuf,
}

/// The outcome of one run: the contract's result line plus detail.
pub struct Report {
    pub correct: bool,
    /// Probes the run's scans attempted.
    pub attempted: u64,
    /// Probes not sent plus result records that differ from the
    /// reference.
    pub failed: u64,
    pub metrics: Vec<Stat>,
    /// Every failed check, in the order found.
    pub errors: Vec<String>,
    /// Human-readable notes (sample counts, tracing overhead).
    pub notes: Vec<String>,
}

/// Accumulates checks and failure counts across a run's scans.
struct Checker<'a> {
    sc: &'a Scenario,
    reference: &'a ScanRun,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Checker<'_> {
    /// Checks one scan's output against the reference.
    fn scan(&mut self, what: &str, run: &ScanRun) {
        self.attempted += self.sc.probes;
        let s = &run.summary;
        self.failed += self.sc.probes.saturating_sub(s.sent);
        if s.sent != self.sc.probes {
            self.errors.push(format!(
                "{what}: sent {} of {} probes",
                s.sent, self.sc.probes
            ));
        }
        if run.digest() != self.reference.digest() {
            let diff = record_diff(&self.reference.summary.results, &s.results);
            self.failed += diff.max(1);
            self.errors.push(format!(
                "{what}: {diff} result records differ from the reference"
            ));
        } else if outcome(s) != outcome(&self.reference.summary) {
            self.failed += 1;
            self.errors
                .push(format!("{what}: counters differ from the reference"));
        }
    }

    fn error(&mut self, e: String) {
        self.errors.push(e);
    }
}

/// Records present in one result list but not the other (multiset
/// symmetric difference).
fn record_diff(a: &[zmap_core::ScanResult], b: &[zmap_core::ScanResult]) -> u64 {
    let (a, b) = (sorted(a), sorted(b));
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    let key = |r: &zmap_core::ScanResult| (r.ts_ns, r.saddr, r.sport, r.ttl, r.success);
    while i < a.len() && j < b.len() {
        if a[i] == b[j] {
            i += 1;
            j += 1;
        } else if key(&a[i]) < key(&b[j]) {
            diff += 1;
            i += 1;
        } else {
            diff += 1;
            j += 1;
        }
    }
    diff + (a.len() - i) as u64 + (b.len() - j) as u64
}

/// Samples collected by the untraced measurement loop. Scan times come
/// as wall times and scaled to the reference host; set-up times and
/// batch gaps are stored scaled.
#[derive(Default)]
struct Samples {
    replay_wall_s: Vec<f64>,
    sim_wall_s: Vec<f64>,
    replay_s: Vec<f64>,
    sim_s: Vec<f64>,
    /// Calibration factor of each scan, replay and `SimNet` alike.
    factors: Vec<f64>,
    setup_s: Vec<f64>,
    peak_mb: Vec<f64>,
    replay_allocs: Vec<f64>,
    /// Batch gaps of every replay scan, pooled, in ns.
    gaps_ns: Vec<u64>,
}

/// Times [`UNITS_PER_SCAN`] calibration units.
fn units(cal: &Calibration) -> Vec<f64> {
    (0..UNITS_PER_SCAN).map(|_| cal.unit_ns()).collect()
}

/// The calibration factor of a scan between the units timed right before
/// and right after it: [`REFERENCE_UNIT_NS`] over their median. Memory
/// contention comes and goes within a second, so units from the scan's
/// own neighbourhood track it better than a round's or the run's.
fn factor(before: &[f64], after: &[f64]) -> f64 {
    REFERENCE_UNIT_NS / median(&[before, after].concat())
}

/// One replay scan, checked against the reference. A divergence fails
/// the run and yields nothing.
fn checked_replay(
    sc: &Scenario,
    rec: &Recording,
    ck: &mut Checker<'_>,
    what: &str,
) -> Option<ReplayRun> {
    match replay_scan(sc, rec) {
        Ok(r) => {
            ck.scan(what, &r.run);
            Some(r)
        }
        Err(d) => {
            ck.attempted += sc.probes;
            ck.failed += sc.probes;
            ck.error(format!("{what}: {d}"));
            None
        }
    }
}

/// Alternates replay and simulator scans (plus extra set-ups) until
/// `budget` has passed and at least [`MIN_SCANS`] of each ran, timing
/// calibration units between consecutive scans. A first replay scan
/// warms caches and the allocator's size classes and is checked but not
/// reported; the recording pass has already warmed the simulator path.
fn measure(
    sc: &Scenario,
    rec: &Recording,
    ck: &mut Checker<'_>,
    budget: Duration,
    cal: &Calibration,
) -> Samples {
    let mut s = Samples::default();
    let start = Instant::now();
    if checked_replay(sc, rec, ck, "warm-up replay").is_none() {
        return s;
    }
    let mut before = units(cal);
    while s.replay_s.len() < MIN_SCANS || start.elapsed() < budget {
        let Some(r) = checked_replay(sc, rec, ck, "replay") else {
            break;
        };
        let after = units(cal);
        let f = factor(&before, &after);
        let wall = r.run.total_ns as f64 / 1e9;
        s.factors.push(f);
        s.replay_wall_s.push(wall);
        s.replay_s.push(wall * f);
        s.setup_s.push(r.run.setup_ns as f64 * f / 1e9);
        s.peak_mb.push(r.peak_bytes as f64 / 1e6);
        s.replay_allocs.push(r.allocs as f64);
        s.gaps_ns
            .extend(r.batch_gaps.iter().map(|&g| (g as f64 * f) as u64));

        // The extra set-ups ride with the SimNet scan's factor.
        let sim = sim_scan(sc);
        ck.scan("simnet", &sim);
        let setups: Vec<u64> = (0..SETUPS_PER_ROUND).map(|_| time_setup(sc)).collect();
        before = units(cal);
        let f = factor(&after, &before);
        let wall = sim.total_ns as f64 / 1e9;
        s.factors.push(f);
        s.sim_wall_s.push(wall);
        s.sim_s.push(wall * f);
        for ns in std::iter::once(sim.setup_ns).chain(setups) {
            s.setup_s.push(ns as f64 * f / 1e9);
        }
    }
    s
}

/// Runs one workload as `args` says and reports its metrics.
pub fn run(args: &RunArgs) -> Report {
    let sc = Scenario::new(args.workload, args.size, args.seed);
    let (reference, rec) = record(&sc);
    let mut ck = Checker {
        sc: &sc,
        reference: &reference,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    // The recording pass is itself a SimNet scan: hold it to the probe
    // count and the workload's ground truth.
    ck.attempted += sc.probes;
    ck.failed += sc.probes.saturating_sub(reference.summary.sent);
    ck.failed += rec.tx_error.as_ref().map_or(0, |(n, _)| *n);
    if reference.summary.sent != sc.probes {
        ck.error(format!(
            "reference: sent {} of {} probes",
            reference.summary.sent, sc.probes
        ));
    }
    if let Err(e) = check_ground_truth(
        &sc,
        &reference.summary.results,
        reference.summary.duplicates_suppressed,
        &rec,
    ) {
        ck.error(e);
    }

    let seconds = Duration::from_secs(args.seconds);
    let cal = Calibration::new();
    let mut notes = Vec::new();
    let metrics = if args.trace {
        traced(&rec, &mut ck, args, &cal, &mut notes)
    } else {
        let s = measure(&sc, &rec, &mut ck, seconds, &cal);
        end_to_end(&sc, s, &mut notes)
    };
    let Checker {
        attempted,
        failed,
        errors,
        ..
    } = ck;
    Report {
        correct: errors.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        errors,
        notes,
    }
}

fn end_to_end(sc: &Scenario, mut s: Samples, notes: &mut Vec<String>) -> Vec<Stat> {
    let probes = sc.probes as f64;
    // Throughput over the whole run rather than a median scan: scans
    // alternate between two speeds about 1.5x apart, and a median jumps
    // between them as the mix shifts from run to run.
    let scan_pps = Stat::throughput("scan_pps", probes, &s.replay_s);
    let sim_scan_pps = Stat::throughput("sim_scan_pps", probes, &s.sim_s);
    notes.push(format!(
        "{} replay scans, {} simnet scans, {} set-ups, {} batch gaps",
        s.replay_s.len(),
        s.sim_s.len(),
        s.setup_s.len(),
        s.gaps_ns.len(),
    ));
    let (fq1, fmed, fq3) = quartiles(&s.factors);
    notes.push(format!(
        "calibration factor median {fmed:.3} (q1 {fq1:.3}, q3 {fq3:.3}); unscaled wall \
         throughput: scan {:.0}/s, sim {:.0}/s",
        Stat::throughput("", probes, &s.replay_wall_s).value,
        Stat::throughput("", probes, &s.sim_wall_s).value,
    ));
    // Percentiles of the pooled gaps: one distribution, no quartiles.
    // The 90th, not the 99th: the top percent of gaps holds the rare
    // allocation, page-fault and interrupt stalls, and its run-to-run
    // spread reached 0.38 of the median on dead-sweep.
    let gaps = s.gaps_ns.len();
    let mut gap = |name, p| {
        let us = percentile(&mut s.gaps_ns, p) as f64 / 1e3;
        Stat {
            n: gaps,
            ..Stat::single(name, "us", us)
        }
    };
    let (p50, p90) = (gap("batch_gap_p50_us", 50.0), gap("batch_gap_p90_us", 90.0));
    vec![
        scan_pps,
        sim_scan_pps,
        p50,
        p90,
        Stat::of("setup_s", "s", &s.setup_s),
        Stat::of("scan_peak_mb", "MB", &s.peak_mb),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Trace mode: an untraced baseline, the span-per-call engine run, the
/// layer pass (repeated for the rest of the budget) and plan builds.
fn traced(
    rec: &Recording,
    ck: &mut Checker<'_>,
    args: &RunArgs,
    cal: &Calibration,
    notes: &mut Vec<String>,
) -> Vec<Stat> {
    let (sc, reference) = (ck.sc, ck.reference);
    let seconds = Duration::from_secs(args.seconds);
    let start = Instant::now();
    // Per-layer figures are unscaled wall times, like the layer pass.
    let base = measure(sc, rec, ck, seconds * 2 / 5, cal);
    let replay_ns = median(&base.replay_wall_s) * 1e9;
    let sim_ns = median(&base.sim_wall_s) * 1e9;
    let probes = sc.probes as f64;

    let tr = traced_engine_run(sc, rec);
    ck.scan("traced simnet", &tr.run);
    let root_ns = (tr.spans[0].end - tr.spans[0].start) as f64;
    let send_ns = total(&tr.spans, "netsim.send") as f64;
    let rx_ns = (total(&tr.spans, "netsim.recv")
        + total(&tr.spans, "netsim.next_rx")
        + total(&tr.spans, "netsim.killed")) as f64;
    let sent = rec.frames_sent as f64;
    let received = rec.frames_received as f64;

    // Layer pass: keep the first pass's spans, repeat for the budget and
    // report each layer's median.
    let mut passes: Vec<LayerTotals> = Vec::new();
    let mut layer_spans = Vec::new();
    while passes.is_empty() || start.elapsed() < seconds {
        match layer_pass(sc, rec, reference, passes.is_empty()) {
            Ok(p) => {
                if passes.is_empty() {
                    layer_spans = p.spans;
                }
                passes.push(p.totals);
            }
            Err(e) => {
                ck.error(format!("layer pass: {e}"));
                break;
            }
        }
    }
    let mut builds = Vec::with_capacity(PLAN_BUILDS);
    for _ in 0..PLAN_BUILDS {
        let t0 = Instant::now();
        let plan = ScanPlan::build(&sc.cfg, None);
        builds.push(t0.elapsed().as_nanos() as f64 / 1e3);
        drop(plan);
    }

    if let Err(e) = write_trace(
        &args.trace_path,
        sc.workload.name(),
        &[("engine", &tr.spans), ("layers", &layer_spans)],
    ) {
        ck.error(format!("writing {}: {e}", args.trace_path.display()));
    }

    let first = passes.first().cloned().unwrap_or_default();
    let layer_ns = |l: Layer| {
        median(
            &passes
                .iter()
                .map(|p| p.ns[l as usize] as f64)
                .collect::<Vec<_>>(),
        )
    };
    let ops = |l: Layer| first.ops[l as usize] as f64;
    let per_op = |l: Layer| ratio(layer_ns(l), ops(l));
    let allocs_per = |ls: &[Layer]| {
        let a: u64 = ls.iter().map(|&l| first.allocs[l as usize]).sum();
        let o: u64 = ls.iter().map(|&l| first.ops[l as usize]).sum();
        ratio(a as f64, o as f64)
    };
    let layer_sum_ns: f64 = Layer::ALL.iter().map(|&l| layer_ns(l)).sum();
    let overhead = ratio(root_ns, sim_ns);
    notes.push(format!(
        "tracing overhead: traced simnet scan {:.1} ms vs untraced median {:.1} ms ({overhead:.3}x); \
         {} layer passes; layer sum {:.1} ns/probe vs replay {:.1} ns/probe",
        root_ns / 1e6,
        sim_ns / 1e6,
        passes.len(),
        layer_sum_ns / probes,
        replay_ns / probes,
    ));

    let inflight_overflow = reference.summary.metrics.inflight_overflow as f64;
    let n = |name, unit, v| Stat::single(name, unit, v);
    vec![
        n("targets.build_us", "us", median(&builds)),
        n("targets.ns_per_target", "ns", per_op(Layer::Targets)),
        n(
            "targets.allocs_per_op",
            "count",
            allocs_per(&[Layer::Targets]),
        ),
        n("wire.render_ns_per_probe", "ns", per_op(Layer::Render)),
        n("wire.parse_ns_per_frame", "ns", per_op(Layer::Parse)),
        n(
            "wire.validated_ratio",
            "ratio",
            ratio(first.validated as f64, ops(Layer::Parse)),
        ),
        n(
            "wire.allocs_per_op",
            "count",
            allocs_per(&[Layer::Render, Layer::Parse]),
        ),
        n("metrics.note_ns_per_probe", "ns", per_op(Layer::Note)),
        n("metrics.rtt_ns_per_response", "ns", per_op(Layer::Rtt)),
        n("metrics.inflight_overflow", "count", inflight_overflow),
        n(
            "metrics.allocs_per_op",
            "count",
            allocs_per(&[Layer::Note, Layer::Rtt]),
        ),
        n("dedup.ns_per_check", "ns", per_op(Layer::Dedup)),
        n(
            "dedup.suppressed_ratio",
            "ratio",
            ratio(first.suppressed as f64, ops(Layer::Dedup)),
        ),
        n("dedup.allocs_per_op", "count", allocs_per(&[Layer::Dedup])),
        n("output.ns_per_record", "ns", per_op(Layer::Output)),
        n(
            "output.bytes_per_record",
            "B",
            ratio(first.csv_bytes as f64, ops(Layer::Output)),
        ),
        n(
            "output.allocs_per_op",
            "count",
            allocs_per(&[Layer::Output]),
        ),
        n("netsim.send_ns_per_frame", "ns", ratio(send_ns, sent)),
        n("netsim.recv_ns_per_frame", "ns", ratio(rx_ns, received)),
        n("netsim.share", "ratio", ratio(send_ns + rx_ns, root_ns)),
        n(
            "netsim.allocs_per_op",
            "count",
            ratio(tr.transport_allocs as f64, sent + received),
        ),
        n(
            "engine.recv_calls_per_frame",
            "count",
            ratio(rec.recv_calls() as f64, received),
        ),
        n(
            "engine.residual_ns_per_probe",
            "ns",
            (replay_ns - layer_sum_ns) / probes,
        ),
        n("engine.layer_sum_ns_per_probe", "ns", layer_sum_ns / probes),
        n(
            "engine.allocs_per_op",
            "count",
            median(&base.replay_allocs) / probes,
        ),
        n("trace.overhead_ratio", "ratio", overhead),
    ]
}
