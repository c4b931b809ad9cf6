//! `scanbench`: runs one workload and prints its metrics, or compares
//! two result files.
//!
//! ```text
//! scanbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out <results.jsonl>] [--trace-file <spans.csv>]
//! scanbench compare <before.jsonl> <after.jsonl> [--spec BENCHMARK.json]
//! ```
//!
//! A run prints one line per metric (median, quartiles, sample count),
//! then, as its last line, the JSON result object. It exits 1 when any
//! output or replay-fidelity check fails, 2 on bad arguments.

use scanbench::alloc::CountingAlloc;
use scanbench::bench::{run, Report, RunArgs};
use scanbench::compare::{bounds, compare, load};
use scanbench::workload::{Size, Workload};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn usage() -> ExitCode {
    eprintln!(
        "usage: scanbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--out <file>] [--trace-file <file>]\n       \
         scanbench compare <before> <after> [--spec BENCHMARK.json]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

/// A finite JSON number (non-finite values cannot be written as JSON).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The contract's result line: correct, attempted, failed and the
/// metrics' values and units.
fn result_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// nproc, CPU model, rustc and commit of the machine that ran.
fn machine() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let commit = std::env::var("SCANBENCH_COMMIT")
        .unwrap_or_else(|_| cmd("git", &["rev-parse", "--short", "HEAD"]));
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        escape(&cpu),
        escape(&cmd("rustc", &["--version"])),
        escape(&commit)
    )
}

/// The `--out` record: everything in the result line plus quartiles,
/// sample counts and the machine descriptor.
fn out_line(args: &RunArgs, r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                m.name,
                num(m.value),
                m.unit,
                num(m.q1),
                num(m.q3),
                m.n
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"machine\": {}, \"metrics\": {{{}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        r.correct,
        r.attempted,
        r.failed,
        machine(),
        metrics.join(", ")
    )
}

fn compare_mode(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            match it.next() {
                Some(p) => spec = PathBuf::from(p),
                None => return usage(),
            }
        } else {
            files.push(a);
        }
    }
    let [before, after] = files.as_slice() else {
        return usage();
    };
    let read = |p: &std::path::Path| {
        std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))
    };
    let result = (|| -> Result<bool, String> {
        let bounds = bounds(&read(&spec)?)?;
        let rows = compare(
            &bounds,
            &load(&read(before.as_ref())?)?,
            &load(&read(after.as_ref())?)?,
        );
        println!(
            "{:<14} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
            "workload", "metric", "before", "after", "worse by", "bound"
        );
        for r in &rows {
            println!(
                "{:<14} {:<24} {:>14.6} {:>14.6} {:>+8.1}% {:>6.1}%  {}",
                r.workload,
                format!("{} ({})", r.metric, r.unit),
                r.before,
                r.after,
                100.0 * r.worse_by,
                100.0 * r.bound,
                r.verdict
            );
        }
        Ok(rows.iter().any(|r| r.verdict == "REGRESSED"))
    })();
    match result {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(e) => {
            eprintln!("scanbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_mode(&args[1..]);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut trace_file = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--out" => out = Some(PathBuf::from(value)),
            "--trace-file" => trace_file = Some(PathBuf::from(value)),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let trace_path = trace_file.unwrap_or_else(|| {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        dir.join("scanbench")
            .join(format!("trace-{}.csv", workload.name()))
    });
    let args = RunArgs {
        workload,
        size: Size::Full,
        seed,
        seconds,
        trace,
        trace_path,
    };
    let report = run(&args);

    println!(
        "# scanbench {} seed={} seconds={} trace={}",
        workload.name(),
        seed,
        seconds,
        u8::from(trace)
    );
    for m in &report.metrics {
        println!(
            "{:<32} {:>16.6} {:<6} (q1 {:.6}, q3 {:.6}, n={})",
            m.name, m.value, m.unit, m.q1, m.q3, m.n
        );
    }
    for n in &report.notes {
        println!("# {n}");
    }
    if trace {
        println!("# spans written to {}", args.trace_path.display());
    }
    for e in &report.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    if let Some(path) = &out {
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", out_line(&args, &report)));
        if let Err(e) = written {
            eprintln!("cannot append to {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    println!("{}", result_line(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
