//! The traced run: the same work measured rung by rung down the stack,
//! every timed call recorded as a span, the per-layer metrics derived
//! from the recorded spans and from the runtime's own counters.
//!
//! Rungs: inner loop over a plain row slice → `seq` → `tiled` →
//! `omp_tiled` at 1 thread → at `nproc` threads → with probes on →
//! through the daemon; plus micro-measurements of single scheduler
//! mechanisms (empty regions, empty chunks, tile writes).

use crate::common::{digest_error, digest_pixels, ms, nproc, Job, Ran};
use crate::report::Report;
use crate::serve::{self, Completion, Kind, Outcome, Plan};
use crate::stats::{mean, median, quantile};
use crate::stream::{self, Ready, StreamJob};
use crate::trace::{Span, TileProbe, Tracer, LANE_MAIN};
use ezp_core::color::mandel_color;
use ezp_core::kernel::{NullProbe, Probe};
use ezp_core::time::now_ns;
use ezp_core::{Img2D, Registry, Rgba, Schedule, TileGrid};
use ezp_kernels::mandel::{escape_iterations, tile_cost, Viewport, DEFAULT_MAX_ITER};
use ezp_perf::names;
use ezp_sched::{dispenser_for, parallel_for_range, ImgCell, WorkerPool};
use ezp_simsched::{simulate, CostMap, SimConfig};
use ezp_stream::demos::FrameOut;
use ezp_stream::{run_pipeline, EmitMode, Pipeline};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Repetitions of each kernel rung; each rung reports its median.
const REPS: usize = 7;

/// Where the per-layer metrics of one workload come from. Layers a
/// workload bypasses are measured on a short rung of their own, so every
/// traced run reports every per-layer metric (README.md, "Sources").
pub struct Sources {
    /// The `run_kernel` job of the kernel, core and sched rungs: the
    /// workload's own, or the serve mix's tiny job.
    pub ladder: Job,
    /// The daemon: the full serve workload or a short rung.
    pub daemon: Plan,
}

pub fn sources(workload: &str, seconds: Duration) -> Sources {
    if workload == "mandel" {
        let n = nproc();
        let kind = Kind {
            job: crate::mandel::MANDEL,
            variant: crate::mandel::PAR,
            threads: n,
        };
        Sources {
            ladder: crate::mandel::MANDEL,
            daemon: short_plan(vec![kind], serve::daemon_config(1, n)),
        }
    } else {
        Sources {
            ladder: serve::TINY.job,
            daemon: Plan {
                setups: 1,
                ..Plan::serve(seconds.mul_f64(0.6))
            },
        }
    }
}

/// Runs of the stream layer, the same on every workload.
const STREAM_RUNS: usize = 10;

/// A short daemon rung: one daemon, about a second of each loop.
fn short_plan(kinds: Vec<Kind>, daemon: ezp_serve::ServeConfig) -> Plan {
    Plan {
        kinds,
        heavy_share: 0.0,
        daemon,
        setups: 1,
        warmup_jobs: 3,
        seq: Duration::from_millis(300),
        closed: Duration::from_millis(1200),
        open: Duration::from_millis(1200),
        // set from a closed-loop probe, see `daemon_layer`
        period: Duration::ZERO,
    }
}

pub fn traced(opts: &crate::Opts) -> Report {
    let mut report = Report::default();
    let tracer = Tracer::new();
    let src = sources(&opts.workload, opts.seconds);

    let ladder = kernel_ladder(&src, &tracer, &mut report);
    let streamed = stream_layer(&tracer, &mut report);
    path_metrics(&ladder, &streamed, &tracer, &mut report);
    sched_micro(&src.ladder, &tracer, &mut report);
    simsched(&src.ladder, &ladder, &mut report);
    daemon_layer(src.daemon, opts.seed, &tracer, &mut report);
    cli_oneshot(&tracer, &mut report);

    // the trace file, and the self times derived from it
    let file = std::path::PathBuf::from(format!(
        ".easybench/trace-{}-{}.json",
        opts.workload, opts.seed
    ));
    if let Err(e) = tracer.write_chrome(&file) {
        report.check(Some(format!("writing {}: {e}", file.display())));
    }
    println!(
        "trace: {} spans written to {}",
        tracer.spans().len(),
        file.display()
    );
    println!("self time per span name (ms):");
    for (name, ns) in tracer.self_times() {
        println!("  {name:<24} {:>12.3}", ns as f64 / 1e6);
    }
    report
}

/// What the kernel ladder's traced parallel path measured, for
/// `path_metrics`.
#[derive(Default)]
struct TracedPath {
    /// Wall times of `omp_tiled` at `nproc` threads untraced and traced, ms.
    plain_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    /// The probe of each traced run.
    probes: Vec<Arc<TileProbe>>,
    workers: usize,
    /// `omp_tiled` at 1 and at `nproc` threads, ms.
    par1_ms: f64,
    parn_ms: f64,
}

/// A `run_kernel` call recorded as a `run_kernel` span.
fn timed_job(
    t: &Tracer,
    reg: &Registry,
    job: &Job,
    variant: &str,
    threads: usize,
    probe: Arc<dyn Probe>,
) -> Ran {
    let id = t.id();
    let t0 = now_ns();
    let ran = crate::common::run_job(reg, job, variant, threads, probe);
    // the digest after the call stays outside the span
    t.record("run_kernel", LANE_MAIN, id, t0, t0 + ran.call_ns);
    ran
}

fn median_ms(rans: &[Ran]) -> f64 {
    median(&rans.iter().map(Ran::elapsed_ms).collect::<Vec<_>>())
}

fn spans_ms(spans: &[Span]) -> Vec<f64> {
    spans.iter().map(|s| s.ns() as f64 / 1e6).collect()
}

/// The kernel rungs on the ladder job, interleaved so machine noise
/// spreads over all of them.
fn kernel_ladder(src: &Sources, t: &Arc<Tracer>, report: &mut Report) -> TracedPath {
    let job = &src.ladder;
    let n = nproc();
    let reg = ezp_kernels::registry();
    let reference = crate::common::run_job(&reg, job, "seq", 1, Arc::new(NullProbe)).digest;
    let mut rungs: [(&str, usize, Vec<Ran>); 5] = [
        ("seq", 1, vec![]),
        ("tiled", 1, vec![]),
        ("omp_tiled", 1, vec![]),
        ("omp_tiled", n, vec![]),
        ("omp_tiled_x4", n, vec![]),
    ];
    let mut path = TracedPath {
        workers: n,
        ..Default::default()
    };
    for _ in 0..REPS {
        for (variant, threads, rans) in rungs.iter_mut() {
            let ran = timed_job(t, &reg, job, variant, *threads, Arc::new(NullProbe));
            report.check(digest_error(
                &format!("{} {variant}@{threads}", job.kernel),
                ran.digest,
                reference,
            ));
            rans.push(ran);
        }
        let probe = Arc::new(TileProbe::new(t.clone(), n, t.id()));
        let ran = timed_job(t, &reg, job, "omp_tiled", n, probe.clone());
        report.check(digest_error(
            &format!("{} omp_tiled traced", job.kernel),
            ran.digest,
            reference,
        ));
        path.traced_ms.push(ran.elapsed_ms());
        path.probes.push(probe);
        let t0 = now_ns();
        let digest = inner_loop(job);
        t.record("inner_loop", LANE_MAIN, t.id(), t0, now_ns());
        report.check(digest_error(
            &format!("{} inner loop", job.kernel),
            digest,
            reference,
        ));
    }
    let [seq, tiled, par1, parn, fast] = rungs.map(|r| r.2);
    let inner_ms = median(&spans_ms(&t.named("inner_loop")));
    let seq_ms = median_ms(&seq);
    // exact escape iterations, and the bytes of the pixels written
    let ops = cost_maps(job).iter().map(CostMap::total).sum::<u64>() as f64;
    let bytes = (job.iterations as usize * job.dim * job.dim * 4) as f64;
    path.plain_ms = parn.iter().map(Ran::elapsed_ms).collect();
    path.par1_ms = median_ms(&par1);
    path.parn_ms = median_ms(&parn);
    report.metric("kernels.inner_ms", inner_ms, "ms");
    report.metric("kernels.ops", ops, "count");
    report.metric("kernels.ops_per_ns", ops / (inner_ms * 1e6), "1/ns");
    report.metric("kernels.gb_s_computed", bytes / (inner_ms * 1e6), "GB/s");
    report.metric(
        "kernels.x4_over_scalar",
        median_ms(&fast) / path.parn_ms,
        "ratio",
    );
    report.metric("core.seq_over_inner", seq_ms / inner_ms, "ratio");
    report.metric("core.tiled_over_seq", median_ms(&tiled) / seq_ms, "ratio");
    // the run_kernel span minus the kernel's own elapsed time
    let overhead: Vec<f64> = seq
        .iter()
        .map(|r| r.call_ns.saturating_sub(r.outcome.elapsed_ns) as f64 / 1e6)
        .collect();
    report.metric("core.run_overhead_ms", median(&overhead), "ms");
    report.metric("sched.par1_over_seq", path.par1_ms / seq_ms, "ratio");
    report.metric("sched.speedup", seq_ms / path.parn_ms, "ratio");
    path
}

/// The job's pixels through mandel's public per-pixel functions over
/// plain row slices, the rung below `seq`. Returns the final image's
/// digest, which must equal the `seq` variant's.
fn inner_loop(job: &Job) -> u64 {
    let dim = job.dim;
    let mut view = Viewport::default();
    let mut img = vec![Rgba::BLACK; dim * dim];
    for _ in 0..job.iterations {
        for (y, row) in img.chunks_exact_mut(dim).enumerate() {
            for (x, px) in row.iter_mut().enumerate() {
                let (cx, cy) = view.pixel_to_complex(x, y, dim);
                *px = mandel_color(
                    escape_iterations(cx, cy, DEFAULT_MAX_ITER),
                    DEFAULT_MAX_ITER,
                );
            }
        }
        view.zoom();
    }
    digest_pixels(&img)
}

/// The job's exact cost map per iteration: escape iterations per tile,
/// the viewport zooming between iterations.
fn cost_maps(job: &Job) -> Vec<CostMap> {
    let grid = TileGrid::square(job.dim, job.tile).expect("ladder grid");
    let mut view = Viewport::default();
    (0..job.iterations)
        .map(|_| {
            let costs = CostMap::from_fn(grid, |t| tile_cost(&view, t, job.dim, DEFAULT_MAX_ITER));
            view.zoom();
            costs
        })
        .collect()
}

/// Metrics of the traced parallel path: busy time from the tile spans,
/// idle causes and chunk counts from the runtime's counters (the
/// task-graph ones from the stream layer's probes), and what tracing
/// itself cost.
fn path_metrics(path: &TracedPath, streamed: &[Arc<TileProbe>], t: &Tracer, report: &mut Report) {
    let mut busy_ms = Vec::new();
    let mut efficiency = Vec::new();
    let mut imbalance = Vec::new();
    for (probe, wall_ms) in path.probes.iter().zip(&path.traced_ms) {
        let mut per_worker = vec![0u64; path.workers];
        for s in t
            .spans()
            .iter()
            .filter(|s| s.id == probe.id && s.name == "tile")
        {
            if let Some(w) = per_worker.get_mut(s.lane) {
                *w += s.ns();
            }
        }
        let total = per_worker.iter().sum::<u64>() as f64 / 1e6;
        let max = *per_worker.iter().max().unwrap_or(&0) as f64 / 1e6;
        busy_ms.push(total);
        efficiency.push(total / (path.workers as f64 * wall_ms));
        imbalance.push(max / (total / path.workers as f64));
    }
    let per_op = |probes: &[Arc<TileProbe>], counter: &str| {
        median(
            &probes
                .iter()
                .map(|p| p.perf.snapshot().total(counter) as f64)
                .collect::<Vec<_>>(),
        )
    };
    report.metric("sched.efficiency", median(&efficiency), "ratio");
    report.metric("sched.busy_ms", median(&busy_ms), "ms");
    report.metric("sched.imbalance", median(&imbalance), "ratio");
    // the task-graph idle causes and steals only occur on the stream layer
    for (i, cause) in ["dep_stall", "steal", "barrier", "pool_park", "backpressure"]
        .iter()
        .enumerate()
    {
        let from = if matches!(i, 0 | 4) {
            streamed
        } else {
            &path.probes
        };
        let idle_ms = per_op(from, names::IDLE_NS_BY_CAUSE[i]) / 1e6;
        report.metric(format!("sched.idle_ms.{cause}"), idle_ms, "ms");
    }
    report.metric(
        "sched.chunks",
        per_op(&path.probes, names::CHUNKS_DISPENSED),
        "count",
    );
    report.metric(
        "sched.deque_steals",
        per_op(streamed, names::DEQUE_STEALS),
        "count",
    );
    report.metric(
        "perf.probe_overhead",
        median(&path.traced_ms) / median(&path.plain_ms),
        "ratio",
    );
    report.metric(
        "perf.events",
        median(
            &path
                .probes
                .iter()
                .map(|p| p.events() as f64)
                .collect::<Vec<_>>(),
        ),
        "count",
    );
}

/// Micro-measurements of single scheduler mechanisms at `nproc`.
fn sched_micro(job: &Job, t: &Tracer, report: &mut Report) {
    let n = nproc();
    let mut pool = WorkerPool::new(n);
    const REGIONS: usize = 2000;
    const BATCHES: usize = 9;
    pool.run(|_| {});
    for _ in 0..BATCHES {
        let t0 = now_ns();
        for _ in 0..REGIONS {
            pool.run(|r| {
                black_box(r);
            });
        }
        t.record("sched.regions", LANE_MAIN, t.id(), t0, now_ns());
    }
    let region_us = median(&spans_ms(&t.named("sched.regions"))) * 1e3 / REGIONS as f64;
    report.metric("sched.regions", 1e6 / region_us, "1/s");
    report.metric("sched.region_us", region_us, "us");

    // empty chunks at the job's schedule, one loop per iteration's tiles
    let tiles = TileGrid::square(job.dim, job.tile)
        .expect("ladder grid")
        .len();
    let chunks_per_loop = count_chunks(job.schedule, tiles, n);
    const LOOPS: usize = 200;
    for _ in 0..BATCHES {
        let t0 = now_ns();
        for _ in 0..LOOPS {
            parallel_for_range(&mut pool, tiles, job.schedule, |i, r| {
                black_box((i, r));
            });
        }
        t.record("sched.chunks", LANE_MAIN, t.id(), t0, now_ns());
    }
    let loop_ms = median(&spans_ms(&t.named("sched.chunks"))) / LOOPS as f64;
    let region_ms = region_us / 1e3;
    report.metric(
        "sched.chunk_ns",
        (loop_ms - region_ms).max(0.0) * 1e6 / chunks_per_loop as f64,
        "ns",
    );

    // a full-image pass through TileWriter::set against row slices
    let dim = job.dim;
    let grid = TileGrid::square(dim, job.tile).expect("ladder grid");
    let mut img: Img2D<Rgba> = Img2D::square(dim);
    for pass in 0..BATCHES * 2 {
        let v = Rgba(pass as u32);
        let t0 = now_ns();
        {
            let cell = ImgCell::new(&mut img);
            for tile in grid.iter() {
                let w = cell.tile_writer(tile);
                for y in tile.y..tile.y + tile.h {
                    for x in tile.x..tile.x + tile.w {
                        w.set(x, y, black_box(v));
                    }
                }
            }
        }
        let t1 = now_ns();
        for y in 0..dim {
            for px in img.row_mut(y) {
                *px = black_box(v);
            }
        }
        let t2 = now_ns();
        t.record("img_cell.set", LANE_MAIN, pass as u64, t0, t1);
        t.record("img_cell.slice", LANE_MAIN, pass as u64, t1, t2);
    }
    let per_px = |name| median(&spans_ms(&t.named(name))) * 1e6 / (dim * dim) as f64;
    report.metric("sched.img_cell.set_ns_px", per_px("img_cell.set"), "ns");
    report.metric("sched.img_cell.slice_ns_px", per_px("img_cell.slice"), "ns");
}

/// Chunks a dispenser hands out for `n` iterations at `threads` ranks.
fn count_chunks(schedule: Schedule, n: usize, threads: usize) -> usize {
    let disp = dispenser_for(schedule, n, threads);
    (0..threads)
        .map(|r| std::iter::from_fn(|| disp.next(r)).count())
        .sum()
}

/// `ezp-simsched`'s speedup prediction at `nproc` from the job's cost
/// map, against the measured `omp_tiled` 1 → `nproc` scaling.
fn simsched(job: &Job, path: &TracedPath, report: &mut Report) {
    let (mut work, mut span) = (0u64, 0u64);
    for costs in cost_maps(job) {
        let sim = simulate(&costs, SimConfig::new(nproc(), job.schedule));
        work += sim.busy_ns.iter().sum::<u64>();
        span += sim.makespan_ns;
    }
    let pred = work as f64 / span as f64;
    let measured = path.par1_ms / path.parn_ms;
    report.metric("simsched.speedup_pred", pred, "ratio");
    report.metric(
        "simsched.speedup_err",
        (pred - measured).abs() / measured,
        "ratio",
    );
}

/// The stream layer: the `frame_diff` demo (ordered, farm width `nproc`)
/// for the engine's own statistics, and the same pipeline built from
/// `ezp_stream::Pipeline` with stage and sink spans, through
/// `run_pipeline`. Both are checked against the demo's `run_seq`.
/// Returns the replica runs' probes.
fn stream_layer(t: &Arc<Tracer>, report: &mut Report) -> Vec<Arc<TileProbe>> {
    let job = stream::FRAME_DIFF;
    let n = nproc();
    let mut ready = Ready::set_up(job, report);
    let mut probes = Vec::new();
    let (mut seq_ms, mut par_ms, mut stats) = (Vec::new(), Vec::new(), Vec::new());
    let mut gaps_us = Vec::new();
    for _ in 0..STREAM_RUNS {
        let t0 = Instant::now();
        let out = ready.kernel.run_seq(job.dim, job.frames);
        seq_ms.push(ms(t0.elapsed()));
        report.check(ready.check(&out, "run_seq"));

        let (out, st, wall) = stream::timed_run(&mut ready, &NullProbe);
        report.check(ready.check(&out, "ordered run"));
        par_ms.push(wall);
        stats.push(st);

        let probe = Arc::new(TileProbe::new(t.clone(), n, t.id()));
        let out = replica_run(&job, &mut ready.pool, &probe, &mut gaps_us);
        probes.push(probe);
        report.check(ready.check(&out, "run_pipeline replica"));
    }
    let frames = job.frames as f64;
    let seq_fps = frames * 1e3 / median(&seq_ms);
    let par_fps = frames * 1e3 / median(&par_ms);
    let stat =
        |f: fn(&ezp_stream::StreamStats) -> f64| median(&stats.iter().map(f).collect::<Vec<_>>());
    report.metric("stream.seq_frames_s", seq_fps, "frames/s");
    report.metric("stream.par_over_seq", par_fps / seq_fps, "ratio");
    report.metric(
        "stream.backpressure_stalls",
        stat(|s| s.backpressure_stalls as f64),
        "count",
    );
    report.metric(
        "stream.max_in_flight",
        stat(|s| s.max_frames_in_flight as f64),
        "count",
    );
    report.metric(
        "stream.max_reorder_depth",
        stat(|s| s.max_reorder_depth as f64),
        "count",
    );
    report.metric("stream.emit_gap_us_p99", quantile(&gaps_us, 0.99), "us");
    report.metric("chan.sends", stat(|s| s.chan_sends as f64), "count");
    report.metric(
        "chan.empty_stalls",
        stat(|s| s.chan_empty_stalls as f64),
        "count",
    );
    report.metric(
        "chan.full_stalls",
        stat(|s| s.chan_full_stalls as f64),
        "count",
    );
    probes
}

/// The `frame_diff` source pixel, as the demo defines it.
fn diff_source_pixel(x: usize, y: usize, frame: usize) -> u8 {
    let v = x.wrapping_mul(31) ^ y.wrapping_mul(17) ^ frame.wrapping_mul(73);
    (v % 251) as u8
}

/// Lane of this thread in the stream layer's stage spans.
fn stage_lane() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static LANE: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    LANE.with(|l| *l)
}

/// `frame_diff`'s pipeline (farm generate, stateful serial diff) run
/// through `run_pipeline` with `probe`, a span per stage and sink call
/// on the probe's tracer, and the time between sink calls pushed to
/// `gaps_us`.
fn replica_run(
    job: &StreamJob,
    pool: &mut WorkerPool,
    probe: &TileProbe,
    gaps_us: &mut Vec<f64>,
) -> Vec<FrameOut> {
    let dim = job.dim;
    let width = pool.threads();
    let (tracer, id) = (&probe.tracer, probe.id);
    let stage_span = {
        let tracer = tracer.clone();
        Arc::new(move |t0: u64| tracer.record("stage", stage_lane(), id, t0, now_ns()))
    };
    let (gen_span, diff_span) = (stage_span.clone(), stage_span);
    let prev = Mutex::new(vec![0u8; dim * dim]);
    let pipe = Pipeline::new()
        .farm_stage("generate", width, move |frame, buf: &mut Vec<u8>| {
            let t0 = now_ns();
            buf.clear();
            buf.reserve(dim * dim);
            for y in 0..dim {
                for x in 0..dim {
                    buf.push(diff_source_pixel(x, y, frame));
                }
            }
            gen_span(t0);
        })
        .stage("diff", move |_, buf: &mut Vec<u8>| {
            let t0 = now_ns();
            let mut p = prev.lock().expect("no diff stage panicked");
            for (b, pv) in buf.iter_mut().zip(p.iter_mut()) {
                let cur = *b;
                *b = cur.abs_diff(*pv);
                *pv = cur;
            }
            diff_span(t0);
        });
    let mut out = Vec::with_capacity(job.frames);
    let mut last: Option<u64> = None;
    run_pipeline(
        &pipe,
        job.frames,
        EmitMode::Ordered,
        pool,
        probe,
        |_| Vec::new(),
        |f, bytes| {
            let now = now_ns();
            if let Some(prev) = last {
                gaps_us.push((now - prev) as f64 / 1e3);
            }
            last = Some(now);
            out.push((f, bytes));
            tracer.record("sink", LANE_MAIN, id, now, now_ns());
        },
    )
    .unwrap_or_else(|e| panic!("run_pipeline: {e}"));
    out
}

/// The daemon layer: `plan` through an in-process daemon, traced.
fn daemon_layer(mut plan: Plan, seed: u64, t: &Tracer, report: &mut Report) {
    if plan.period.is_zero() {
        // a short rung: offer about half the rate of an untraced closed loop
        let probe = serve::run(
            &Plan {
                open: Duration::ZERO,
                ..plan.clone()
            },
            seed,
            None,
            report,
        );
        let rate = probe.closed.len() as f64 / probe.closed_wall_s;
        plan.period = Duration::from_secs_f64(2.0 / rate);
    }
    let raw = serve::run(&plan, seed, Some(t), report);
    let done: Vec<(&Completion, u64, usize)> = raw
        .closed
        .iter()
        .chain(&raw.open)
        .filter_map(|c| match &c.outcome {
            Outcome::Done {
                elapsed_ns, report, ..
            } => Some((c, *elapsed_ns, report.dump().len())),
            _ => None,
        })
        .collect();
    let compute_ms: Vec<f64> = done.iter().map(|(_, e, _)| *e as f64 / 1e6).collect();
    let overhead_ms: Vec<f64> = raw
        .open
        .iter()
        .filter_map(|c| match &c.outcome {
            Outcome::Done { elapsed_ns, .. } => {
                Some((c.done_ns - c.sent_ns).saturating_sub(*elapsed_ns) as f64 / 1e6)
            }
            _ => None,
        })
        .collect();
    let total = |key: &str| -> f64 {
        raw.stats
            .get("tenants")
            .and_then(|t| t.as_arr().ok())
            .map(|ts| {
                ts.iter()
                    .filter_map(|t| t.field::<u64>(key).ok())
                    .sum::<u64>() as f64
            })
            .unwrap_or(f64::NAN)
    };
    report.metric("serve.compute_ms_p50", median(&compute_ms), "ms");
    report.metric("serve.overhead_ms_p50", median(&overhead_ms), "ms");
    report.metric("serve.overhead_ms_p99", quantile(&overhead_ms, 0.99), "ms");
    report.metric(
        "serve.accept_ms_p50",
        median(&spans_ms(&t.named("serve.accept"))),
        "ms",
    );
    report.metric(
        "serve.connect_ms_p50",
        median(&spans_ms(&t.named("serve.connect"))),
        "ms",
    );
    report.metric(
        "serve.report_bytes",
        mean(&done.iter().map(|d| d.2 as f64).collect::<Vec<_>>()),
        "bytes",
    );
    report.metric(
        "serve.queue_ms_mean",
        total("tenant_idle_ns") / total("jobs_completed") / 1e6,
        "ms",
    );
    report.metric("serve.rejected", total("jobs_rejected"), "count");
    report.metric(
        "serve.done_before_accepted",
        raw.done_before_accepted as f64,
        "count",
    );
    report.metric("serve.fds_leaked", raw.fds_leaked, "count");
    report.metric(
        "serve.gen_lag_ms_p99",
        quantile(&raw.gen_lag_ms, 0.99),
        "ms",
    );
    report.metric("sched.mux.leases", raw.mux.leases as f64, "count");
    report.metric("sched.mux.waits", raw.mux.lease_waits as f64, "count");
}

/// Wall time of a one-shot `easypap` process for the serve workload's
/// tiny job: this binary re-executed as the `easypap` command line.
fn cli_oneshot(t: &Tracer, report: &mut Report) {
    let job = serve::TINY.job;
    let dir = std::path::Path::new(".easybench/cli");
    if let Err(e) = std::fs::create_dir_all(dir) {
        report.check(Some(format!("creating {}: {e}", dir.display())));
        return;
    }
    let exe = std::env::current_exe().expect("own executable");
    let args = [
        "--as-easypap".to_string(),
        "--kernel".into(),
        job.kernel.into(),
        "--variant".into(),
        serve::TINY.variant.into(),
        "--size".into(),
        job.dim.to_string(),
        "--tile-size".into(),
        job.tile.to_string(),
        "--iterations".into(),
        job.iterations.to_string(),
        "--no-display".into(),
    ];
    for i in 0..9 {
        let t0 = now_ns();
        let status = std::process::Command::new(&exe)
            .args(&args)
            .current_dir(dir)
            .stdout(std::process::Stdio::null())
            .status();
        t.record("cli.oneshot", LANE_MAIN, i, t0, now_ns());
        match status {
            Ok(s) if s.success() => report.check(None),
            other => report.check(Some(format!("easypap one-shot: {other:?}"))),
        }
    }
    report.metric(
        "cli.oneshot_ms",
        median(&spans_ms(&t.named("cli.oneshot"))),
        "ms",
    );
}
