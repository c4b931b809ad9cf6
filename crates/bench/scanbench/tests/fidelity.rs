//! Replay fidelity and self-consistency at reduced scan sizes.

use scanbench::bench::{run, RunArgs};
use scanbench::layers::layer_pass;
use scanbench::measure::{encode_csv, outcome, record, replay_scan, sim_scan};
use scanbench::oracle::TxOracle;
use scanbench::workload::{check_ground_truth, sorted, Scenario, Size, Workload};
use serde_json::Value;
use std::net::IpAddr;
use std::path::PathBuf;
use zmap_core::plan::{AnyProbeBuilder, ScanPlan};

#[test]
fn replay_reproduces_the_simnet_run_for_every_workload() {
    for w in Workload::ALL {
        let sc = Scenario::new(w, Size::Reduced, 7);
        let (reference, rec) = record(&sc);
        assert_eq!(reference.summary.sent, sc.probes, "{}", w.name());
        check_ground_truth(
            &sc,
            &reference.summary.results,
            reference.summary.duplicates_suppressed,
            &rec,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()));

        let replay = replay_scan(&sc, &rec)
            .unwrap_or_else(|d| panic!("{}: {d}", w.name()))
            .run;
        assert_eq!(
            outcome(&replay.summary),
            outcome(&reference.summary),
            "{}: sent, counters and sorted results",
            w.name()
        );
        assert_eq!(
            encode_csv(&sorted(&replay.summary.results)),
            encode_csv(&sorted(&reference.summary.results)),
            "{}: sorted records byte for byte",
            w.name()
        );
        assert_eq!(replay.csv, reference.csv, "{}: record order too", w.name());

        // A fresh simulator run is the reference the timed runs compare to.
        let sim = sim_scan(&sc);
        assert_eq!(
            outcome(&sim.summary),
            outcome(&reference.summary),
            "{}",
            w.name()
        );
    }
}

#[test]
fn a_recording_refuses_a_config_with_another_seed() {
    for w in Workload::ALL {
        let sc = Scenario::new(w, Size::Reduced, 7);
        let (_, rec) = record(&sc);
        let mut other = sc.clone();
        other.cfg.seed ^= 1;
        match replay_scan(&other, &rec) {
            Ok(r) => panic!(
                "{}: replay of a foreign recording returned {} results",
                w.name(),
                r.run.summary.results.len()
            ),
            Err(d) => assert!(d.to_string().contains("diverged"), "{}: {d}", w.name()),
        }
    }
}

#[test]
fn the_layer_pass_reproduces_the_engine_for_every_workload() {
    for w in Workload::ALL {
        let sc = Scenario::new(w, Size::Reduced, 3);
        let (reference, rec) = record(&sc);
        let pass =
            layer_pass(&sc, &rec, &reference, true).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_eq!(
            pass.totals.ops[0],
            sc.probes / u64::from(sc.cfg.probes_per_target)
        );
        assert!(!pass.spans.is_empty());
    }
}

/// The TX oracle over a dead-sweep's probes, one built by the wire
/// crate per target; the first target's probe is replaced by the frames
/// `first` makes of it.
fn oracle_verdict(first: impl Fn(Vec<u8>) -> Vec<Vec<u8>>) -> Result<(), (u64, String)> {
    let sc = Scenario::new(Workload::DeadSweep, Size::Reduced, 11);
    let plan = ScanPlan::build(&sc.cfg, None).unwrap();
    let AnyProbeBuilder::V4(builder) = AnyProbeBuilder::build(&sc.cfg) else {
        unreachable!("dead-sweep scans IPv4")
    };
    let mut oracle = TxOracle::new(&sc.cfg).unwrap();
    for (i, (ip, port)) in plan.iter_shard(0, 0).enumerate() {
        let IpAddr::V4(ip) = ip else { unreachable!() };
        let frame = builder.tcp_syn(ip, port, 0);
        let frames = if i == 0 { first(frame) } else { vec![frame] };
        for f in frames {
            oracle.frame(&f);
        }
    }
    oracle.finish()
}

#[test]
fn the_tx_oracle_rejects_broken_probes() {
    const IP_CHECKSUM: usize = 14 + 10;
    const TCP: usize = 14 + 20;
    let flip = |at: usize| {
        move |mut f: Vec<u8>| {
            f[at] ^= 1;
            vec![f]
        }
    };
    oracle_verdict(|f| vec![f]).expect("intact probes pass");
    let (n, err) = oracle_verdict(flip(IP_CHECKSUM)).unwrap_err();
    assert!(n == 1 && err.contains("IPv4 header checksum"), "{n} {err}");
    let (n, err) = oracle_verdict(flip(TCP + 16)).unwrap_err();
    assert!(n == 1 && err.contains("TCP checksum"), "{n} {err}");
    // A wrong cookie with a valid checksum: add one to the sequence
    // number's low word and take one from the window.
    let (n, err) = oracle_verdict(|mut f| {
        f[TCP + 7] += 1;
        f[TCP + 15] -= 1;
        vec![f]
    })
    .unwrap_err();
    assert!(n == 1 && err.contains("cookie"), "{n} {err}");
    // A target probed not at all, or three times: one or two probes off.
    for (frames, off) in [(0, 1), (3, 2)] {
        let (n, err) = oracle_verdict(|f| vec![f; frames]).unwrap_err();
        assert!(
            n == off && err.contains("not 1 to each"),
            "{frames} probes: {n} {err}"
        );
    }
}

fn spec_names(table: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
    let spec: Value =
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
    spec[table]
        .as_array()
        .unwrap()
        .iter()
        .map(|m| {
            (
                m["name"].as_str().unwrap().to_string(),
                m["unit"].as_str().unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn runs_report_exactly_the_metrics_benchmark_json_names() {
    let trace_path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("scanbench-test-trace.csv");
    for (trace, table) in [(false, "end_to_end"), (true, "per_layer")] {
        let report = run(&RunArgs {
            workload: Workload::InternetMix,
            size: Size::Reduced,
            seed: 5,
            seconds: 1,
            trace,
            trace_path: PathBuf::from(&trace_path),
        });
        assert!(report.correct, "{:?}", report.errors);
        assert!(report.attempted > 0);
        let got: Vec<(String, String)> = report
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(got, spec_names(table), "{table}");
    }
    let spans = std::fs::read_to_string(&trace_path).expect("trace file written");
    assert!(spans.lines().count() > 1);
    std::fs::remove_file(&trace_path).ok();
}
