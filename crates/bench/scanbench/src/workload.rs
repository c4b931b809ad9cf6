//! The four workloads: scan configuration, simulated world, and the
//! ground truth each run's output is checked against.
//!
//! Every workload runs the default single-threaded engine with an open
//! loop virtual send schedule of 10 Mpps, batch 64 and a 1 s virtual
//! cooldown. The benchmark seed fixes both the scan seed and the world
//! seed; nothing else varies between seeds.

use std::collections::HashSet;
use std::net::{IpAddr, Ipv4Addr};
use zmap_core::config::Ipv6Config;
use zmap_core::output::Classification;
use zmap_core::plan::{AnyProbeBuilder, ScanPlan};
use zmap_core::{DedupMethod, ScanConfig, ScanResult};
use zmap_netsim::loss::LossModel;
use zmap_netsim::{ServiceModel, V6Population, WorldConfig};
use zmap_targets::parse_prefix_list;

use crate::replay::{Call, Recording};

/// Virtual send rate of every workload.
pub const RATE_PPS: u64 = 10_000_000;
/// Frames per batched send.
pub const BATCH: usize = 64;
/// Virtual cooldown after the last probe.
pub const COOLDOWN_SECS: u64 = 1;
/// Scanner source address (the simulator endpoint).
pub const SOURCE: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 9);

/// The four XMap-style prefixes of `scenarios/ipv6-xmap.txt` (pattern
/// and density per line); the host bits come from the [`Size`].
const V6_PREFIXES: [(&str, &str, &str); 4] = [
    ("2001:db8:100::/48", "low", "1.0"),
    ("2001:db8:200::/48", "low", "0.6"),
    ("2001:db8:300::/48", "eui64", "0.25"),
    ("2001:db8:400::/48", "embedded-v4", "0.05"),
];

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// TCP SYN/80 across a /12 of dead space: TX only.
    DeadSweep,
    /// A lossless /14 where every host SYN-ACKs: RX heavy.
    DenseSynack,
    /// The calibrated default Internet, /14 × {80, 443}, 2 probes per
    /// target, failures reported, 16,384-entry dedup window.
    InternetMix,
    /// Four IPv6 prefixes, XMap-style per-prefix walks, port 443.
    V6Prefixes,
}

/// Scan size: the benchmark runs `Full`; the fidelity tests run
/// `Reduced`, which keeps every mechanism but shrinks the space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Reduced,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::DeadSweep,
        Workload::DenseSynack,
        Workload::InternetMix,
        Workload::V6Prefixes,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DeadSweep => "dead-sweep",
            Workload::DenseSynack => "dense-synack",
            Workload::InternetMix => "internet-mix",
            Workload::V6Prefixes => "v6-prefixes",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A fully specified run: what to scan and the world to scan it in.
#[derive(Clone)]
pub struct Scenario {
    pub workload: Workload,
    pub cfg: ScanConfig,
    pub world: WorldConfig,
    /// Probes the engine must send (targets × probes per target).
    pub probes: u64,
}

/// SplitMix64: derives independent scan and world seeds from the
/// benchmark seed.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn v6_prefix_list(bits: u8) -> String {
    V6_PREFIXES
        .iter()
        .map(|(p, pattern, density)| {
            format!("{p} pattern={pattern} bits={bits} density={density}\n")
        })
        .collect()
}

impl Scenario {
    /// Builds `workload` at `size` for benchmark seed `seed`.
    pub fn new(workload: Workload, size: Size, seed: u64) -> Scenario {
        let full = size == Size::Full;
        let mut cfg = ScanConfig::new(SOURCE);
        cfg.seed = mix(seed ^ 0x5CA2);
        cfg.rate_pps = RATE_PPS;
        cfg.batch = BATCH;
        cfg.cooldown_secs = COOLDOWN_SECS;
        let mut world = WorldConfig {
            seed: mix(seed ^ 0x3011D),
            loss: LossModel::NONE,
            ..WorldConfig::default()
        };
        let host_bits: u32;
        match workload {
            Workload::DeadSweep => {
                let len = if full { 12 } else { 20 };
                cfg.allowlist_prefix(Ipv4Addr::new(44, 0, 0, 0), len);
                cfg.ports = vec![80];
                world.model = ServiceModel {
                    live_fraction: 0.0,
                    ..ServiceModel::dense(&[])
                };
                host_bits = 32 - u32::from(len);
            }
            Workload::DenseSynack => {
                let len = if full { 14 } else { 22 };
                cfg.allowlist_prefix(Ipv4Addr::new(61, 64, 0, 0), len);
                cfg.ports = vec![80];
                world.model = ServiceModel::dense(&[80]);
                host_bits = 32 - u32::from(len);
            }
            Workload::InternetMix => {
                let len = if full { 14 } else { 18 };
                cfg.allowlist_prefix(Ipv4Addr::new(45, 64, 0, 0), len);
                cfg.ports = vec![80, 443];
                cfg.probes_per_target = 2;
                cfg.report_failures = true;
                cfg.dedup = DedupMethod::Window(if full { 16_384 } else { 1_024 });
                world.loss = LossModel::default();
                host_bits = 32 - u32::from(len) + 1;
            }
            Workload::V6Prefixes => {
                let bits = if full { 16 } else { 8 };
                let list = v6_prefix_list(bits);
                cfg.ipv6 = Some(Ipv6Config {
                    source_ip: "2001:db8:ffff::1".parse().expect("literal address"),
                    prefix_list: list.clone(),
                });
                cfg.ports = vec![443];
                world.v6 = Some(
                    V6Population::from_prefix_list(&list, vec![443])
                        .expect("built-in prefix list parses"),
                );
                host_bits = u32::from(bits) + 2;
            }
        }
        let probes = (1u64 << host_bits) * u64::from(cfg.probes_per_target);
        Scenario {
            workload,
            cfg,
            world,
            probes,
        }
    }
}

/// Canonical order for comparing result sets.
pub fn sorted(results: &[ScanResult]) -> Vec<ScanResult> {
    let mut v = results.to_vec();
    v.sort_by_key(|r| (r.ts_ns, r.saddr, r.sport, r.ttl, r.success));
    v
}

/// Checks a reference run against the workload's ground truth. `rec` is
/// the recording of the same run; its sent frames must have passed the
/// TX oracle (every workload).
pub fn check_ground_truth(
    sc: &Scenario,
    results: &[ScanResult],
    duplicates_suppressed: u64,
    rec: &Recording,
) -> Result<(), String> {
    if let Some((_, e)) = &rec.tx_error {
        return Err(format!("{}: {e}", sc.workload.name()));
    }
    match sc.workload {
        Workload::DeadSweep => {
            if rec.frames_received != 0 || !results.is_empty() {
                return Err(format!(
                    "dead-sweep: expected no frames and no results, got {} frames and {} results",
                    rec.frames_received,
                    results.len()
                ));
            }
        }
        Workload::DenseSynack => {
            let plan = ScanPlan::build(&sc.cfg, None).map_err(|e| e.to_string())?;
            let mut seen = HashSet::with_capacity(results.len());
            for r in results {
                if r.classification != Classification::SynAck || !r.success {
                    return Err(format!("dense-synack: non-SYN-ACK result {r:?}"));
                }
                if !seen.insert((r.saddr, r.sport)) {
                    return Err(format!("dense-synack: {} reported twice", r.saddr));
                }
            }
            let targets: HashSet<(IpAddr, u16)> = plan.iter_shard(0, 0).collect();
            if seen != targets || seen.len() as u64 != sc.probes {
                return Err(format!(
                    "dense-synack: {} distinct results for {} targets",
                    seen.len(),
                    targets.len()
                ));
            }
        }
        Workload::InternetMix => {
            let DedupMethod::Window(window) = sc.cfg.dedup else {
                return Err("internet-mix must use window dedup".into());
            };
            if duplicates_suppressed == 0 {
                return Err("internet-mix: no duplicate was suppressed".into());
            }
            let keys = distinct_response_keys(sc, rec)?;
            if keys <= window as u64 {
                return Err(format!(
                    "internet-mix: {keys} distinct response keys do not exceed the \
                     {window}-entry window, so eviction never ran"
                ));
            }
        }
        Workload::V6Prefixes => {
            let ipv6 = sc
                .cfg
                .ipv6
                .as_ref()
                .ok_or("v6 workload without ipv6 config")?;
            let specs = parse_prefix_list(&ipv6.prefix_list).map_err(|e| e.to_string())?;
            for spec in &specs {
                let oracle = V6Population::new(vec![spec.clone()], sc.cfg.ports.clone())
                    .responsive_count(sc.world.seed);
                let hits = results
                    .iter()
                    .filter(|r| match r.saddr {
                        IpAddr::V6(a) => spec.contains(a),
                        IpAddr::V4(_) => false,
                    })
                    .count() as u64;
                if hits != oracle {
                    return Err(format!(
                        "v6-prefixes: {}/{} has {hits} hits, oracle says {oracle}",
                        spec.prefix(),
                        spec.prefix_len()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Distinct dedup keys among every validated response in `rec`.
fn distinct_response_keys(sc: &Scenario, rec: &Recording) -> Result<u64, String> {
    let plan = ScanPlan::build(&sc.cfg, None).map_err(|e| e.to_string())?;
    let builder = AnyProbeBuilder::build(&sc.cfg);
    let mut keys = HashSet::new();
    for call in &rec.calls {
        if let Call::Recv { frames, .. } = call {
            for (_, f) in frames {
                if let Ok(Some(resp)) = builder.parse_response(f) {
                    if let Ok(k) = plan.probe_key(resp.ip, resp.port) {
                        keys.insert(k);
                    }
                }
            }
        }
    }
    Ok(keys.len() as u64)
}
