//! The traced run: spans around every transport call of a real engine
//! run, and a layer-by-layer pass over the recorded work.
//!
//! Spans are kept in memory (name, start, end, parent) and written out
//! when the benchmark ends. A span's self time is its duration minus
//! the part its children cover.

use crate::alloc;
use crate::measure::{digest, timed_scan, ScanRun};
use crate::replay::{hash_masked, Call, Frames, Recording};
use crate::workload::{mix, Scenario, SOURCE};
use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::time::Instant;
use zmap_core::metadata::Counters;
use zmap_core::output::{OutputFormat, OutputModule};
use zmap_core::plan::{build_any_template, classify_kind, AnyProbeBuilder, AnyTemplate, ScanPlan};
use zmap_core::ratecontrol::RateController;
use zmap_core::transport::{FrameBatch, SimNet};
use zmap_core::{DedupMethod, ScanMetrics, ScanResult, Transport};
use zmap_dedup::SlidingWindow;
use zmap_netsim::SendError;
use zmap_wire::WireError;

/// No parent.
pub const ROOT: u32 = u32::MAX;

/// One timed interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// ns since the trace epoch.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same list, or [`ROOT`].
    pub parent: u32,
}

/// Spans of one traced pass, relative to a common epoch.
pub struct SpanLog {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
}

impl SpanLog {
    /// An empty log with room for `capacity` spans, so recording a span
    /// does not allocate inside the traced work.
    pub fn with_capacity(capacity: usize) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::with_capacity(capacity)),
        }
    }

    /// ns since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Appends a span and returns its index.
    pub fn push(&self, name: &'static str, start: u64, end: u64, parent: u32) -> u32 {
        let mut s = self.spans.borrow_mut();
        s.push(Span {
            name,
            start,
            end,
            parent,
        });
        (s.len() - 1) as u32
    }

    /// Rewrites span `i`'s end (for a parent opened before its children).
    pub fn close(&self, i: u32, end: u64) {
        self.spans.borrow_mut()[i as usize].end = end;
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Sum of the durations of spans named `name`.
pub fn total(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end - s.start)
        .sum()
}

/// Self time of every span: duration minus the children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child[s.parent as usize] += s.end - s.start;
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| (s.end - s.start).saturating_sub(c))
        .collect()
}

/// Records one span per transport call under `parent`, and counts the
/// allocations made inside the calls.
struct CallSpans<'a> {
    log: &'a SpanLog,
    parent: u32,
    allocs: &'a Cell<u64>,
}

impl CallSpans<'_> {
    fn time<R>(&self, name: &'static str, call: impl FnOnce() -> R) -> R {
        let a0 = alloc::allocs();
        let t0 = self.log.now();
        let r = call();
        let t1 = self.log.now();
        self.allocs.set(self.allocs.get() + alloc::allocs() - a0);
        self.log.push(name, t0, t1, self.parent);
        r
    }
}

/// Transport wrapper that times every call into `inner`.
struct Traced<'a, T: Transport> {
    inner: T,
    spans: CallSpans<'a>,
}

impl<T: Transport> Transport for Traced<'_, T> {
    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn advance_to(&mut self, t: u64) {
        self.inner.advance_to(t);
    }

    fn send_frame(&mut self, frame: &[u8]) -> Result<(), SendError> {
        self.spans
            .time("netsim.send", || self.inner.send_frame(frame))
    }

    fn send_batch(&mut self, batch: &FrameBatch, from_idx: usize) -> (usize, Option<SendError>) {
        self.spans
            .time("netsim.send", || self.inner.send_batch(batch, from_idx))
    }

    fn recv_frames(&mut self) -> Frames {
        self.spans.time("netsim.recv", || self.inner.recv_frames())
    }

    fn next_rx_at(&self) -> Option<u64> {
        self.spans
            .time("netsim.next_rx", || self.inner.next_rx_at())
    }

    fn killed(&self) -> bool {
        self.spans.time("netsim.killed", || self.inner.killed())
    }
}

/// What the traced engine run measured.
pub struct TracedRun {
    pub run: ScanRun,
    /// The root span ("engine", `Scanner::new` through CSV encoding)
    /// and one child per transport call.
    pub spans: Vec<Span>,
    /// Allocation calls made inside transport calls.
    pub transport_allocs: u64,
}

/// Runs the engine once over `SimNet` wrapped in a span-per-call
/// transport.
pub fn traced_engine_run(sc: &Scenario, rec: &Recording) -> TracedRun {
    let log = SpanLog::with_capacity(rec.calls.len() + 16);
    let allocs = Cell::new(0);
    let net = SimNet::new(sc.world.clone());
    let root = log.push("engine", log.now(), 0, ROOT);
    let transport = Traced {
        inner: net.transport(SOURCE),
        spans: CallSpans {
            log: &log,
            parent: root,
            allocs: &allocs,
        },
    };
    let run = timed_scan(sc, transport);
    log.close(root, log.now());
    TracedRun {
        run,
        spans: log.into_spans(),
        transport_allocs: allocs.get(),
    }
}

/// A layer of the layer pass, named after the repository's modules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `ScanPlan::iter_shard` walk (zmap-targets).
    Targets,
    /// `ScanMetrics::note_probe` with its TX-side `ScanPlan::probe_key`.
    Note,
    /// Template render plus cookie MAC, in the engine's lane groups
    /// (zmap-wire).
    Render,
    /// `AnyProbeBuilder::parse_response` plus `ScanPlan::probe_key`.
    Parse,
    /// `ScanMetrics::record_rtt`.
    Rtt,
    /// `SlidingWindow::check_and_insert` (zmap-dedup).
    Dedup,
    /// `OutputModule::record`, CSV.
    Output,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Targets,
        Layer::Note,
        Layer::Render,
        Layer::Parse,
        Layer::Rtt,
        Layer::Dedup,
        Layer::Output,
    ];

    /// Span name.
    pub fn span_name(self) -> &'static str {
        match self {
            Layer::Targets => "targets.walk",
            Layer::Note => "metrics.note",
            Layer::Render => "wire.render",
            Layer::Parse => "wire.parse",
            Layer::Rtt => "metrics.rtt",
            Layer::Dedup => "dedup.check",
            Layer::Output => "output.record",
        }
    }
}

/// Per-layer totals of one layer pass.
#[derive(Clone, Debug, Default)]
pub struct LayerTotals {
    /// Wall ns per layer, indexed like [`Layer::ALL`].
    pub ns: [u64; 7],
    /// Allocation calls per layer.
    pub allocs: [u64; 7],
    /// Operations per layer: targets, probes noted, frames rendered,
    /// frames parsed, responses keyed, dedup checks, records written.
    pub ops: [u64; 7],
    /// Responses that validated.
    pub validated: u64,
    /// Dedup checks that suppressed a duplicate.
    pub suppressed: u64,
    /// CSV bytes written.
    pub csv_bytes: u64,
}

/// A clock that attributes the interval since its last tick to a layer.
struct Stopwatch<'a> {
    totals: &'a mut LayerTotals,
    log: Option<&'a SpanLog>,
    parent: u32,
    t: u64,
    allocs: u64,
    epoch: Instant,
}

impl Stopwatch<'_> {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a group (one batch's TX or one receive call's RX).
    fn open(&mut self, name: &'static str) {
        self.t = self.now();
        self.allocs = alloc::allocs();
        if let Some(log) = self.log {
            self.parent = log.push(name, self.t, self.t, ROOT);
        }
    }

    /// Charges the time since the last tick to `layer`, for `ops`
    /// operations.
    fn tick(&mut self, layer: Layer, ops: u64) {
        let t = self.now();
        let a = alloc::allocs();
        let i = layer as usize;
        self.totals.ns[i] += t - self.t;
        self.totals.allocs[i] += a - self.allocs;
        self.totals.ops[i] += ops;
        if let Some(log) = self.log {
            log.push(layer.span_name(), self.t, t, self.parent);
            log.close(self.parent, t);
        }
        // Exclude the bookkeeping above from the next layer's interval.
        self.t = self.now();
        self.allocs = alloc::allocs();
    }
}

/// One staged probe: destination and IP ID entropy.
type Staged<A> = Vec<(A, u16, u16)>;

/// Renders `staged` into `frames[..staged.len()]` in the lane groups the
/// engine uses (x8, then x4, then one at a time).
fn render_v4(t: &zmap_wire::ProbeTemplate, staged: &Staged<Ipv4Addr>, frames: &mut [Vec<u8>]) {
    let n = staged.len();
    let mut i = 0;
    while i + 8 <= n {
        let ips = std::array::from_fn(|k| staged[i + k].0);
        let ports = std::array::from_fn(|k| staged[i + k].1);
        for (k, v) in t.probe_values_x8(ips, ports).into_iter().enumerate() {
            let (ip, port, e) = staged[i + k];
            t.render_with(v, ip, port, e, &mut frames[i + k]);
        }
        i += 8;
    }
    while i + 4 <= n {
        let ips = std::array::from_fn(|k| staged[i + k].0);
        let ports = std::array::from_fn(|k| staged[i + k].1);
        for (k, v) in t.probe_values_x4(ips, ports).into_iter().enumerate() {
            let (ip, port, e) = staged[i + k];
            t.render_with(v, ip, port, e, &mut frames[i + k]);
        }
        i += 4;
    }
    while i < n {
        let (ip, port, e) = staged[i];
        t.render_into(ip, port, e, &mut frames[i]);
        i += 1;
    }
}

/// The v6 engine path: x8, then one at a time (no IP ID).
fn render_v6(t: &zmap_wire::ProbeTemplateV6, staged: &Staged<Ipv6Addr>, frames: &mut [Vec<u8>]) {
    let n = staged.len();
    let mut i = 0;
    while i + 8 <= n {
        let ips = std::array::from_fn(|k| staged[i + k].0);
        let ports = std::array::from_fn(|k| staged[i + k].1);
        for (k, v) in t.probe_values_x8(ips, ports).into_iter().enumerate() {
            let (ip, port, _) = staged[i + k];
            t.render_with(v, ip, port, &mut frames[i + k]);
        }
        i += 8;
    }
    while i < n {
        let (ip, port, _) = staged[i];
        t.render_into(ip, port, &mut frames[i]);
        i += 1;
    }
}

/// Result of a layer pass.
pub struct LayerPass {
    pub totals: LayerTotals,
    /// Spans (when requested): a "tx" group span per recorded send batch
    /// and an "rx" group span per batch of received frames, each with
    /// one child span per layer.
    pub spans: Vec<Span>,
}

/// Per-layer state of the pass, built from the same public
/// constructors the engine uses.
struct Pipeline<'p> {
    cfg: &'p zmap_core::ScanConfig,
    plan: &'p ScanPlan,
    walk: zmap_core::plan::PlanIter<'p>,
    builder: AnyProbeBuilder,
    template: AnyTemplate,
    metrics: ScanMetrics,
    rate: RateController,
    dedup: SlidingWindow,
    out: OutputModule<Vec<u8>>,
    targets: Vec<(IpAddr, u16)>,
    staged4: Staged<Ipv4Addr>,
    staged6: Staged<Ipv6Addr>,
    frames: Vec<Vec<u8>>,
    parsed: Vec<(u64, u64, zmap_core::plan::AnyResponse)>,
    fresh: Vec<bool>,
    tx: DefaultHasher,
    entropy: u64,
    counters: Counters,
}

impl Pipeline<'_> {
    /// One recorded send batch of `n` frames: walk, note, render.
    fn tx(&mut self, n: usize, sw: &mut Stopwatch<'_>) -> Result<(), String> {
        let ppt = self.cfg.probes_per_target.max(1) as usize;
        if !n.is_multiple_of(ppt) || n > self.frames.len() {
            return Err(format!("batch of {n} frames does not fit the pass"));
        }
        sw.open("tx");
        self.targets.clear();
        for _ in 0..n / ppt {
            let t = self.walk.next().ok_or("walk ended before the recording")?;
            self.targets.push(t);
        }
        sw.tick(Layer::Targets, self.targets.len() as u64);

        for &(ip, port) in &self.targets {
            let key = self.plan.probe_key(ip, port).ok();
            for _ in 0..ppt {
                let at = self.rate.mark_sent();
                if let Some(key) = key {
                    self.metrics.note_probe(key, at);
                }
            }
        }
        sw.tick(Layer::Note, n as u64);

        // Staging mirrors the engine: each target once per probe.
        match &self.template {
            AnyTemplate::V4(t) => {
                self.staged4.clear();
                for &(ip, port) in &self.targets {
                    let IpAddr::V4(ip) = ip else {
                        return Err("v6 target in a v4 plan".into());
                    };
                    for _ in 0..ppt {
                        self.entropy = mix(self.entropy);
                        self.staged4.push((ip, port, self.entropy as u16));
                    }
                }
                render_v4(t, &self.staged4, &mut self.frames);
            }
            AnyTemplate::V6(t) => {
                self.staged6.clear();
                for &(ip, port) in &self.targets {
                    let IpAddr::V6(ip) = ip else {
                        return Err("v4 target in a v6 plan".into());
                    };
                    for _ in 0..ppt {
                        self.staged6.push((ip, port, 0));
                    }
                }
                render_v6(t, &self.staged6, &mut self.frames);
            }
        }
        sw.tick(Layer::Render, n as u64);
        for f in &self.frames[..n] {
            hash_masked(&mut self.tx, f);
        }
        self.counters.targets_total += self.targets.len() as u64;
        self.counters.sent += n as u64;
        Ok(())
    }

    /// A batch of received frames: parse, RTT, dedup, output.
    fn rx(&mut self, rx: &[&(u64, Vec<u8>)], sw: &mut Stopwatch<'_>) -> Result<(), String> {
        let c = &mut self.counters;
        sw.open("rx");
        self.parsed.clear();
        for &(ts, ref f) in rx.iter().copied() {
            match self.builder.parse_response(f) {
                Ok(Some(resp)) => {
                    c.responses_validated += 1;
                    match self.plan.probe_key(resp.ip, resp.port) {
                        Ok(key) => self.parsed.push((ts, key, resp)),
                        Err(_) => c.responses_discarded += 1,
                    }
                }
                Ok(None) => c.responses_discarded += 1,
                Err(WireError::BadChecksum) => c.responses_corrupted += 1,
                Err(_) => c.responses_discarded += 1,
            }
        }
        sw.tick(Layer::Parse, rx.len() as u64);

        for &(ts, key, _) in &self.parsed {
            self.metrics.record_rtt(0, key, ts);
        }
        sw.tick(Layer::Rtt, self.parsed.len() as u64);

        self.fresh.clear();
        for &(_, key, _) in &self.parsed {
            self.fresh.push(self.dedup.check_and_insert(key));
        }
        sw.tick(Layer::Dedup, self.parsed.len() as u64);

        let mut records = 0u64;
        for (&(ts, _, ref resp), &is_fresh) in self.parsed.iter().zip(&self.fresh) {
            if !is_fresh {
                c.duplicates_suppressed += 1;
                continue;
            }
            let success = resp.kind.is_success();
            if success {
                c.unique_successes += 1;
            } else {
                c.unique_failures += 1;
            }
            if success || self.cfg.report_failures {
                let r = ScanResult {
                    ts_ns: ts,
                    saddr: resp.ip,
                    sport: resp.port,
                    classification: classify_kind(&resp.kind),
                    ttl: resp.ttl,
                    success,
                };
                self.out.record(&r).map_err(|e| e.to_string())?;
                records += 1;
            }
        }
        sw.tick(Layer::Output, records);
        Ok(())
    }
}

/// Drives the recorded work through each layer's public entry point,
/// one layer at a time per batch, in the engine's order: each recorded
/// send batch (64 probes) goes through walk, note and render; received
/// frames go through parse, RTT, dedup and output in batches of up to
/// 64 frames, gathered across consecutive receive calls and always
/// completed before the next send batch, as the engine does.
///
/// The pass must reproduce the engine's work exactly: the frames it
/// renders must hash to the recording's TX digest (IP ID masked), and
/// its CSV stream and counters must equal the reference run's. Any
/// difference is an error.
pub fn layer_pass(
    sc: &Scenario,
    rec: &Recording,
    reference: &ScanRun,
    keep_spans: bool,
) -> Result<LayerPass, String> {
    let cfg = &sc.cfg;
    if cfg.subshards.max(1) != 1 || cfg.num_shards.max(1) != 1 {
        return Err("the layer pass follows a single-subshard walk".into());
    }
    let DedupMethod::Window(window) = cfg.dedup else {
        return Err("every workload uses window dedup".into());
    };
    let plan = ScanPlan::build(cfg, None).map_err(|e| e.to_string())?;
    let builder = AnyProbeBuilder::build(cfg);
    let template = build_any_template(&cfg.probe, &builder).map_err(|e| e.to_string())?;
    let batch = cfg.batch.max(1);
    let mut p = Pipeline {
        cfg,
        plan: &plan,
        walk: plan.iter_shard(0, 0),
        builder,
        template,
        metrics: ScanMetrics::new(1, Counters::default()),
        rate: RateController::new(0, cfg.rate_pps),
        dedup: SlidingWindow::new(window),
        out: OutputModule::new(OutputFormat::Csv, Vec::new()),
        targets: Vec::with_capacity(batch),
        staged4: Vec::with_capacity(batch),
        staged6: Vec::with_capacity(batch),
        frames: (0..batch).map(|_| Vec::new()).collect(),
        parsed: Vec::with_capacity(2 * batch),
        fresh: Vec::with_capacity(2 * batch),
        tx: DefaultHasher::new(),
        entropy: mix(cfg.seed),
        counters: Counters::default(),
    };

    let groups = rec.batches() + rec.frames_received as usize / batch + rec.recv_calls();
    let log = keep_spans.then(|| SpanLog::with_capacity(groups * 5 + 16));
    let mut totals = LayerTotals::default();
    let mut sw = Stopwatch {
        totals: &mut totals,
        log: log.as_ref(),
        parent: ROOT,
        t: 0,
        allocs: 0,
        epoch: log.as_ref().map_or_else(Instant::now, |l| l.epoch),
    };
    let mut pending: Vec<&(u64, Vec<u8>)> = Vec::with_capacity(2 * batch);
    for call in &rec.calls {
        match call {
            Call::Send {
                frames,
                single: false,
                ..
            } => {
                if !pending.is_empty() {
                    p.rx(&pending, &mut sw)?;
                    pending.clear();
                }
                p.tx(*frames as usize, &mut sw)?;
            }
            Call::Send { single: true, .. } => {
                return Err("the recording holds a retried send; no workload retries".into());
            }
            Call::Recv { frames, .. } => {
                pending.extend(frames.iter());
                if pending.len() >= batch {
                    p.rx(&pending, &mut sw)?;
                    pending.clear();
                }
            }
            Call::NextRx { .. } | Call::Killed { .. } => {}
        }
    }
    if !pending.is_empty() {
        p.rx(&pending, &mut sw)?;
    }
    let counters = p.counters;
    let tx_digest = p.tx.finish();
    let csv = p.out.finish().map_err(|e| e.to_string())?;
    totals.validated = counters.responses_validated;
    totals.suppressed = counters.duplicates_suppressed;
    totals.csv_bytes = csv.len() as u64;

    if tx_digest != rec.tx_digest {
        return Err("layer pass rendered different frames than the engine sent".into());
    }
    if digest(&csv) != reference.digest() {
        return Err("layer pass produced a different result stream than the engine".into());
    }
    let want = reference.summary.metadata.counters;
    let pick = |c: &Counters| {
        (
            c.targets_total,
            c.sent,
            c.responses_validated,
            c.responses_discarded,
            c.responses_corrupted,
            c.duplicates_suppressed,
            c.unique_successes,
            c.unique_failures,
        )
    };
    if pick(&counters) != pick(&want) {
        return Err(format!(
            "layer pass counters {:?} differ from the engine's {:?}",
            pick(&counters),
            pick(&want)
        ));
    }
    Ok(LayerPass {
        totals,
        spans: log.map(SpanLog::into_spans).unwrap_or_default(),
    })
}

/// Writes spans as CSV: `workload,pass,id,parent,name,start_ns,end_ns,self_ns`
/// (`parent` empty for a root span).
pub fn write_trace(
    path: &std::path::Path,
    workload: &str,
    passes: &[(&str, &[Span])],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "workload,pass,id,parent,name,start_ns,end_ns,self_ns")?;
    for (pass, spans) in passes {
        let selfs = self_times(spans);
        for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
            let parent = if s.parent == ROOT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{workload},{pass},{i},{parent},{},{},{},{self_ns}",
                s.name, s.start, s.end
            )?;
        }
    }
    w.flush()
}
