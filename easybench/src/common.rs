//! Helpers shared by every workload: the job description, digests, and
//! what `/proc` says about this process.

use ezp_core::kernel::Probe;
use ezp_core::perf::{run_kernel, RunOutcome};
use ezp_core::{Registry, Rgba, RunConfig, Schedule};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One `run_kernel` job: a kernel over a square image.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    pub kernel: &'static str,
    pub dim: usize,
    pub tile: usize,
    pub iterations: u32,
    pub schedule: Schedule,
}

impl Job {
    pub fn config(&self, variant: &str, threads: usize) -> RunConfig {
        RunConfig::new(self.kernel)
            .variant(variant)
            .size(self.dim)
            .tile(self.tile)
            .iterations(self.iterations)
            .threads(threads)
            .schedule(self.schedule)
    }
}

/// What one timed `run_kernel` call produced.
pub struct Ran {
    pub outcome: RunOutcome,
    /// Wall time of the whole `run_kernel` call (kernel creation, `init`,
    /// compute, refresh), nanoseconds.
    pub call_ns: u64,
    pub digest: u64,
}

impl Ran {
    pub fn elapsed_ms(&self) -> f64 {
        self.outcome.elapsed_ns as f64 / 1e6
    }
}

/// Runs `variant` of `job` at `threads` and digests the final image.
pub fn run_job(
    reg: &Registry,
    job: &Job,
    variant: &str,
    threads: usize,
    probe: Arc<dyn Probe>,
) -> Ran {
    let t0 = Instant::now();
    let (outcome, ctx) = run_kernel(reg, job.config(variant, threads), probe)
        .unwrap_or_else(|e| panic!("{} {variant}: {e}", job.kernel));
    let call_ns = t0.elapsed().as_nanos() as u64;
    Ran {
        outcome,
        call_ns,
        digest: digest_pixels(ctx.images.cur().as_slice()),
    }
}

/// FNV-1a over the pixels' little-endian bytes — the same digest the
/// serve daemon puts in its `done` frames.
pub fn digest_pixels(pixels: &[Rgba]) -> u64 {
    let bytes: Vec<u8> = pixels.iter().flat_map(|p| p.0.to_le_bytes()).collect();
    ezp_serve::proto::fnv1a(&bytes)
}

/// Checks a digest against its reference.
pub fn digest_error(what: &str, got: u64, want: u64) -> Option<String> {
    (got != want).then(|| format!("{what}: digest {got:016x} != reference {want:016x}"))
}

/// Set-ups per round: `setups` split over three rounds, the first round
/// at least one.
pub fn setup_rounds(setups: usize) -> [usize; 3] {
    let later = setups / 3;
    [setups.saturating_sub(2 * later).max(1), later, later]
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sleeps until `deadline` (returns at once if it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Open file descriptors of this process.
pub fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").map_or(0, |d| d.count())
}

/// Soft limit on open files of this process (`RLIMIT_NOFILE`, from
/// `/proc/self/limits`); `None` when unlimited or unreadable.
pub fn open_files_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    limits
        .lines()
        .find_map(|l| l.strip_prefix("Max open files"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// The 1-minute load average.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(f64::NAN)
}

/// Total and stolen CPU time of the machine so far (`/proc/stat`,
/// clock ticks). Steal is time the hypervisor ran someone else while a
/// vCPU of this machine wanted to run.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}
