//! The stream layer: the `frame_diff` streaming demo, ordered emission,
//! farm width `nproc`, through `ezp-stream`'s task-graph engine; every
//! output is checked against the demo's own `run_seq`.

use crate::common::{ms, nproc};
use crate::report::Report;
use ezp_core::kernel::{NullProbe, Probe};
use ezp_core::EmitMode;
use ezp_sched::WorkerPool;
use ezp_stream::demos::FrameOut;
use ezp_stream::{stream_kernel, StreamKernel, StreamStats};
use std::time::Instant;

/// A streaming job: `frames` frames of a `dim`² demo.
#[derive(Clone, Copy)]
pub struct StreamJob {
    pub kernel: &'static str,
    pub dim: usize,
    pub frames: usize,
}

pub const FRAME_DIFF: StreamJob = StreamJob {
    kernel: "frame_diff",
    dim: 256,
    frames: 192,
};

/// A warmed-up streaming job: its kernel, a pool, the reference output.
pub struct Ready {
    pub job: StreamJob,
    pub kernel: Box<dyn StreamKernel>,
    pub pool: WorkerPool,
    pub reference: Vec<FrameOut>,
}

impl Ready {
    /// Spawns the pool and runs the job once each way.
    pub fn set_up(job: StreamJob, report: &mut Report) -> Ready {
        let kernel = stream_kernel(job.kernel).expect("registered streaming kernel");
        let pool = WorkerPool::new(nproc());
        let reference = kernel.run_seq(job.dim, job.frames);
        let mut ready = Ready {
            job,
            kernel,
            pool,
            reference,
        };
        let (out, _) = ready.run(&NullProbe);
        report.check(ready.check(&out, "set-up ordered run"));
        ready
    }

    /// One ordered run at farm width `nproc`.
    pub fn run(&mut self, probe: &dyn Probe) -> (Vec<FrameOut>, StreamStats) {
        let width = self.pool.threads();
        self.kernel
            .run(
                self.job.dim,
                self.job.frames,
                EmitMode::Ordered,
                width,
                &mut self.pool,
                probe,
            )
            .unwrap_or_else(|e| panic!("{}: {e}", self.job.kernel))
    }

    pub fn check(&self, out: &[FrameOut], what: &str) -> Option<String> {
        (out != self.reference.as_slice())
            .then(|| format!("{} {what}: output differs from run_seq", self.job.kernel))
    }
}

/// Timed ordered run.
pub fn timed_run(ready: &mut Ready, probe: &dyn Probe) -> (Vec<FrameOut>, StreamStats, f64) {
    let t0 = Instant::now();
    let (out, stats) = ready.run(probe);
    (out, stats, ms(t0.elapsed()))
}
