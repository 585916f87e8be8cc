//! The depkit benchmark harness.
//!
//! ```text
//! perfbench --depkit <path to depkit> --workload <name> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the `depkit` binary, checks its outputs,
//! prints a human report and, as the last line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `perfbench/run.sh` builds both binaries and calls this.
//! See `perfbench/README.md` for the workloads and metrics.

mod discover_cli;
mod gen;
mod layers;
mod serve_wl;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::{median, percentile, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeWrite,
    ServeRead,
}

impl Workload {
    const ALL: [(&'static str, Workload); 2] = [
        ("serve-write", Workload::ServeWrite),
        ("serve-read", Workload::ServeRead),
    ];

    fn name(self) -> &'static str {
        Workload::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is listed")
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    depkit: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut depkit = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(n, _)| n == v)
                        .map(|(_, w)| *w)
                        .ok_or_else(|| format!("unknown workload `{v}`"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
                }
            }
            "--depkit" => depkit = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        depkit: depkit.ok_or("--depkit is required")?,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Outcome {
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

/// Highest resident set size of any child this process has reaped, in
/// MiB (`getrusage(RUSAGE_CHILDREN)`).
fn children_peak_rss_mib() -> f64 {
    // The Linux `struct rusage`: two `timeval`s, then fourteen longs
    // starting with `ru_maxrss` (KiB).
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable value laid out as the kernel's
    // `struct rusage` on 64-bit Linux; `getrusage` only writes into it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    u.maxrss as f64 / 1024.0
}

fn print_samples(label: &str, xs: &[f64]) {
    if xs.is_empty() {
        println!("  {label}: no samples");
    } else {
        println!(
            "  {label}: p50 {:.3} ms, p90 {:.3} ms, max {:.3} ms (n={})",
            median(xs),
            percentile(xs, 90.0),
            percentile(xs, 100.0),
            xs.len()
        );
    }
}

/// The end-to-end report of a serve run: the universal metrics, plus the
/// workload's own figures printed for people.
fn serve_metrics(run: &serve_wl::ServeRun) -> Result<Vec<Metric>, String> {
    let txn = run.samples(|c| &c.txn_ms);
    let query = run.samples(|c| &c.query_ms);
    let health = run.samples(|c| &c.health_ms);
    let commits = txn.len() as f64;
    let lines: u64 = run.clients.iter().map(|c| c.lines).sum();
    let attempted: u64 = run.clients.iter().map(|c| c.attempted).sum();
    let failed: u64 = run.clients.iter().map(|c| c.failed).sum();
    println!(
        "  {} clients for {:.2} s: {} request lines, {} transactions",
        serve_wl::CLIENTS,
        run.elapsed_s,
        lines,
        txn.len()
    );
    println!(
        "  setup_s {:.4} (median of {}: {:?})",
        median(&run.setup_s),
        run.setup_s.len(),
        run.setup_s
    );
    println!(
        "  txn_per_s {:.3}, ops_per_s {:.3}, error_rate {}",
        commits / run.elapsed_s,
        lines as f64 / run.elapsed_s,
        failed as f64 / attempted.max(1) as f64
    );
    print_samples("txn", &txn);
    print_samples("query", &query);
    print_samples("health", &health);
    if let Some(r) = run.recovery_s {
        println!("  recovery_s {r:.4}");
    }
    let (throughput, key) = if run.write {
        (commits / run.elapsed_s, txn)
    } else {
        (lines as f64 / run.elapsed_s, query)
    };
    if key.is_empty() {
        return Err("no timed operation completed in the window".into());
    }
    Ok(vec![
        metric("setup_s", median(&run.setup_s), "s"),
        metric("throughput_per_s", throughput, "1/s"),
        metric("latency_p50_ms", median(&key), "ms"),
        metric("latency_p90_ms", percentile(&key, 90.0), "ms"),
        metric("peak_rss_mib", children_peak_rss_mib(), "MiB"),
    ])
}

/// Timed server starts per run; setup_s is their median.
const SERVE_SPAWNS: usize = 7;

fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let tracer = args.trace.then(Tracer::new);
    let tr = tracer.as_ref();
    let (seed, secs, depkit) = (args.seed, args.seconds, args.depkit.as_path());
    let write = args.workload == Workload::ServeWrite;
    let spawns = if args.trace { 1 } else { SERVE_SPAWNS };
    let run = serve_wl::run(write, seed, secs, depkit, dir, spawns, tr)?;
    let metrics = serve_metrics(&run)?;
    let mut failures = run.failures.clone();
    let mut layer_metrics = Vec::new();
    if let Some(t) = tr {
        layer_metrics.extend(layers::serve(&run, t, dir)?);
        // The discovery layers and the `depkit discover` gates on the
        // seed spec.
        let (m, f) = layers::discover(&run, depkit, t, dir)?;
        layer_metrics.extend(m);
        failures.extend(f);
    }
    let outcome = Outcome {
        attempted: run.clients.iter().map(|c| c.attempted).sum(),
        failed: run.clients.iter().map(|c| c.failed).sum(),
        failures,
        metrics,
    };
    match tr {
        None => Ok(outcome),
        Some(t) => {
            let out_dir = Path::new(".bench_out");
            std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
            let path = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload.name(), seed));
            t.write_jsonl(&path)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            println!("  spans written to {}", path.display());
            println!(
                "  {:<28} {:>7} {:>12} {:>12}",
                "span", "count", "total ms", "self ms"
            );
            for (name, count, total, own) in trace::self_times(&t.spans()) {
                println!("  {name:<28} {count:>7} {total:>12.3} {own:>12.3}");
            }
            Ok(Outcome {
                metrics: layer_metrics,
                ..outcome
            })
        }
    }
}

fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}":{{"value":{},"unit":"{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        o.failures.is_empty(),
        o.attempted.max(1),
        o.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    println!(
        "perfbench {} seed={} seconds={} trace={} threads={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(o) => {
            for f in &o.failures {
                println!("  GATE FAILED: {f}");
            }
            println!("{}", json_line(&o));
            if o.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
