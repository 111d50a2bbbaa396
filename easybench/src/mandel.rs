//! The `mandel` workload: one `run_kernel` job, its `seq` variant
//! interleaved with `omp_tiled` at `nproc` threads.

use crate::common::{digest_error, nproc, run_job, setup_rounds, Job, Ran};
use crate::report::Report;
use crate::stats::{median, quantile};
use crate::Opts;
use ezp_core::kernel::NullProbe;
use ezp_core::{Registry, Schedule};
use ezp_testkit::Rng;
use std::sync::Arc;
use std::time::Instant;

/// The mandel job: 512², tile 32, `dynamic,2`, the first 3 zoom
/// iterations (README.md, "Sizes").
pub const MANDEL: Job = Job {
    kernel: "mandel",
    dim: 512,
    tile: 32,
    iterations: 3,
    schedule: Schedule::Dynamic(2),
};

/// The sequential reference and the parallel variant a student runs.
pub const SEQ: &str = "seq";
pub const PAR: &str = "omp_tiled";

/// Set-up repetitions, in three rounds; `setup_s` is their median.
const SETUPS: usize = 21;

/// The reference digest of a job: its `seq` variant's final image.
struct Reference {
    reg: Registry,
    digest: u64,
}

/// One set-up: build the kernel registry and run each variant once
/// cold. Returns the registry and the `seq` digest.
fn set_up(job: &Job, threads: usize, report: &mut Report) -> Reference {
    let reg = ezp_kernels::registry();
    let seq = run_job(&reg, job, SEQ, 1, Arc::new(NullProbe));
    let par = run_job(&reg, job, PAR, threads, Arc::new(NullProbe));
    report.check(digest_error(
        &format!("{} {} (set-up)", job.kernel, PAR),
        par.digest,
        seq.digest,
    ));
    Reference {
        reg,
        digest: seq.digest,
    }
}

pub fn end_to_end(opts: &Opts) -> Report {
    let job = &MANDEL;
    let mut report = Report::default();
    let threads = nproc();
    // set-ups in three rounds (before, in the middle of and after the
    // timed loop), so that one burst of machine noise cannot slow them all
    let rounds = setup_rounds(SETUPS);
    let mut setups = Vec::new();
    let mut timed_set_ups = |n: usize, report: &mut Report| {
        let mut reference = None;
        for _ in 0..n {
            let t0 = Instant::now();
            let r = set_up(job, threads, report);
            setups.push(t0.elapsed().as_secs_f64());
            reference.get_or_insert(r);
        }
        reference
    };
    let reference = timed_set_ups(rounds[0], &mut report).expect("at least one set-up");
    let mut rng = Rng::seed(opts.seed);
    let check = |report: &mut Report, ran: &Ran, variant: &str| {
        report.check(digest_error(
            &format!("{} {variant}", job.kernel),
            ran.digest,
            reference.digest,
        ));
    };

    // closed loop: seq and par alternate, in a seeded order per pair.
    // The caller of a par job is this loop, so each job is due when the
    // previous one returns: its round trip is the whole run_kernel call.
    let start = Instant::now();
    let (middle, end) = (start + opts.seconds / 2, start + opts.seconds);
    let mut middle_round = Some(rounds[1]);
    let (mut seq_ms, mut par_ms, mut rt_ms) = (Vec::new(), Vec::new(), Vec::new());
    while Instant::now() < end {
        if Instant::now() >= middle {
            if let Some(n) = middle_round.take() {
                timed_set_ups(n, &mut report);
            }
        }
        let par_first = rng.gen_bool(0.5);
        for par in [par_first, !par_first] {
            let (variant, n) = if par { (PAR, threads) } else { (SEQ, 1) };
            let ran = run_job(&reference.reg, job, variant, n, Arc::new(NullProbe));
            check(&mut report, &ran, variant);
            if par {
                par_ms.push(ran.elapsed_ms());
                rt_ms.push(ran.call_ns as f64 / 1e6);
            } else {
                seq_ms.push(ran.elapsed_ms());
            }
        }
    }

    timed_set_ups(rounds[2], &mut report);
    report.metric("setup_s", median(&setups), "s");
    report.metric("seq_ms", median(&seq_ms), "ms");
    report.metric("seq_ms_p10", quantile(&seq_ms, 0.1), "ms");
    report.metric("par_ms", median(&par_ms), "ms");
    report.metric("par_ms_p10", quantile(&par_ms, 0.1), "ms");
    report.metric("par_ms_p90", quantile(&par_ms, 0.9), "ms");
    report.metric("jobs_s", 1e3 / median(&rt_ms), "jobs/s");
    report.metric("rt_ms_p50", median(&rt_ms), "ms");
    report.metric("rt_ms_p99", quantile(&rt_ms, 0.99), "ms");
    // frames per second of the whole run_kernel call (kernel creation,
    // init, compute, refresh), the caller's view, not RunOutcome's
    report.metric(
        "frames_s",
        job.iterations as f64 * 1e3 / quantile(&rt_ms, 0.1),
        "frames/s",
    );
    report.notes.push(format!(
        "samples: {} seq runs, {} par runs",
        seq_ms.len(),
        par_ms.len()
    ));
    report
}
