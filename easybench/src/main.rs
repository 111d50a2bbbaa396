//! `easybench` — the end-to-end benchmark of easypap-rs.
//!
//! ```text
//! easybench --workload <mandel|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints provenance and a metric table, then, as its last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the run is traced and the metrics are the per-layer ones (see
//! `README.md` in this directory). Exits 1 when any output is wrong.

mod common;
mod layers;
mod mandel;
mod report;
mod serve;
mod stats;
mod stream;
mod trace;

use std::time::Duration;

/// Parsed command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

const WORKLOADS: [&str; 2] = ["mandel", "serve"];

/// The end-to-end metrics of `BENCHMARK.json`: the JSON result of a
/// `--trace 0` run carries exactly these. They are the best-decile
/// figures, which bursts of hypervisor CPU steal move far less than the
/// medians and tails printed beside them in the table (README.md,
/// "End-to-end metrics").
const END_TO_END: [&str; 5] = ["setup_s", "seq_ms_p10", "par_ms_p10", "frames_s", "rss_mb"];

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = Duration::from_secs_f64(value.parse().map_err(|_| bad())?)
            }
            "--trace" => opts.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--as-easypap") {
        // the traced run's `cli.oneshot_ms` child: the `easypap` command
        match easypap_cli::run_easypap(args[1..].iter().map(String::as_str)) {
            Ok(out) => std::process::exit(easypap_cli::emit(&out)),
            Err(e) => {
                eprintln!("easypap: {e}");
                std::process::exit(1);
            }
        }
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("easybench: {e}");
            std::process::exit(2);
        }
    };
    ezp_core::time::init_clock();
    let load_before = common::loadavg();
    let ticks_before = common::cpu_ticks();
    let mut report = match (opts.workload.as_str(), opts.trace) {
        ("mandel", false) => mandel::end_to_end(&opts),
        (_, true) => layers::traced(&opts),
        _ => serve::end_to_end(&opts),
    };
    if !opts.trace {
        report.metric("rss_mb", common::peak_rss_mib(), "MiB");
    }
    let load_after = common::loadavg();
    let ticks_after = common::cpu_ticks();
    let steal_pct = 100.0 * (ticks_after.1 - ticks_before.1) as f64
        / (ticks_after.0 - ticks_before.0).max(1) as f64;

    println!(
        "easybench workload={} seed={} seconds={} trace={} nproc={} commit={} rustc={} profile={} loadavg_before={load_before} loadavg_after={load_after} steal_pct={steal_pct:.1}",
        opts.workload,
        opts.seed,
        opts.seconds.as_secs_f64(),
        opts.trace as u8,
        common::nproc(),
        option_env_or("EASYBENCH_COMMIT"),
        option_env_or("EASYBENCH_RUSTC"),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );
    for note in &report.notes {
        println!("{note}");
    }
    let keys = (!opts.trace).then_some(&END_TO_END[..]);
    print!("{}", report.table(keys));
    for f in &report.failures {
        println!("FAILED: {f}");
    }
    println!("{}", report.json_line(keys));
    if !report.correct() {
        std::process::exit(1);
    }
}

fn option_env_or(var: &str) -> String {
    std::env::var(var).unwrap_or_else(|_| "unknown".into())
}
