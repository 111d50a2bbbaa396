//! The parallel streaming engine: frames through a [`Pipeline`] on the
//! worker pool's task-graph executor.
//!
//! The engine never schedules anything itself. It processes the stream
//! in windows of up to [`WINDOW`] frames; each window's
//! `(frame, stage)` units become a task graph via the pipeline's
//! [`PipeShape`](ezp_sched::PipeShape) — data, width and capacity edges
//! encode frame flow, stage replication and bounded buffers — and
//! [`TaskGraph::run_probed`](ezp_sched::TaskGraph::run_probed) executes
//! it on the Chase-Lev deques with the ordinary steal path. The region
//! barrier between windows is what lets a serial stage's cross-window
//! ordering hold with no extra machinery.
//!
//! Frame payloads travel *in place*: one slot per in-window frame,
//! handed from stage to stage. Every hand-off is ordered by a graph
//! edge (happens-before), so the slot locks are uncontended by
//! construction — they exist to keep the crate `#![deny(unsafe_code)]`,
//! not to synchronize.
//!
//! Observability: the engine classifies *why* a unit became runnable.
//! It keeps its own copy of the graph's indegrees; when the release
//! that makes a node ready arrives over a **non-data** edge (width or
//! capacity), the frame was data-ready but waiting on buffer space —
//! one backpressure stall. Gauges (`frames_in_flight`,
//! `reorder_buffer_depth`, `stage_occupancy`) are high-water marks,
//! reported through [`RuntimeEvent`]s and folded with `max` by the perf
//! probe (worker slot 0, so the reported total *is* the peak).

use crate::pipeline::Pipeline;
use ezp_chan::ChanStats;
use ezp_core::error::Result;
use ezp_core::kernel::{IdleCause, Probe, RuntimeEvent};
use ezp_core::time::now_ns;
use ezp_core::{ChanTuning, EmitMode};
use ezp_sched::WorkerPool;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Maximum frames per scheduling window (and so an upper bound on
/// frames in flight, on top of the per-stage width/capacity bounds).
pub const WINDOW: usize = 64;

/// What a streaming run observed about itself — the same quantities the
/// perf probe accumulates, returned directly so callers (benches, the
/// CLI summary line, tests) don't need a probe to see them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Frames pushed through the pipeline.
    pub frames: usize,
    /// Times a frame was data-ready but waited on a width/capacity
    /// bound (its readying release arrived over a non-data edge).
    pub backpressure_stalls: u64,
    /// High-water mark of frames simultaneously in flight (sourced but
    /// not yet handed to the sink).
    pub max_frames_in_flight: usize,
    /// High-water mark of completed-but-unemitted frames in the ordered
    /// reorder buffer (always 0 for unordered runs).
    pub max_reorder_depth: usize,
    /// High-water mark of any single stage's concurrent occupancy.
    pub max_stage_occupancy: usize,
    /// Items sent into the emission channel (one per frame).
    pub chan_sends: u64,
    /// Items drained from the emission channel (equals `chan_sends`).
    pub chan_recvs: u64,
    /// Times a worker found the emission channel full. Structurally 0:
    /// each window's channel holds the whole window (see
    /// `run_pipeline_tuned`), which is what makes the bounded emission
    /// path deadlock-free.
    pub chan_full_stalls: u64,
    /// Times the drain found the emission channel empty and waited.
    pub chan_empty_stalls: u64,
}

/// Reorder/emission bookkeeping shared by final-stage units, behind one
/// lock. Payloads travel through the emission channel; this tracker
/// only decides *when* a frame counts as emitted (gauges and events
/// fire at the same logical points as the pre-channel engine: unordered
/// on completion, ordered when the frontier passes the frame).
struct EmitTracker {
    /// Next frame id (window-local) the ordered mode may emit.
    frontier: usize,
    /// Final-stage completions so far in this window.
    completed: usize,
    /// Which frames have completed (ordered mode's reorder markers).
    done: Vec<bool>,
    /// Peak of `completed - frontier` after each emission round.
    max_reorder_depth: usize,
}

/// Pushes `frames` frames through `pipe` on `pool`, emitting through
/// `sink` in `mode` order. `source` builds the payload of a frame when
/// the pipeline admits it (pull-based admission: backpressure reaches
/// all the way to frame creation). The sink receives *global* frame
/// ids; in [`EmitMode::Unordered`] its call order is
/// schedule-dependent, in [`EmitMode::Ordered`] it is frame order.
pub fn run_pipeline<T: Send>(
    pipe: &Pipeline<T>,
    frames: usize,
    mode: EmitMode,
    pool: &mut WorkerPool,
    probe: &dyn Probe,
    source: impl Fn(usize) -> T + Sync,
    sink: impl FnMut(usize, T) + Send,
) -> Result<StreamStats> {
    run_pipeline_tuned(pipe, frames, mode, ChanTuning::default(), pool, probe, source, sink)
}

/// [`run_pipeline`] with the emission channel's wait policy chosen by
/// `tuning` (`--wait-policy`).
///
/// Completed frames leave the workers through an `ezp_chan` bounded
/// channel — one sender lane per worker, drained after the window's
/// region barrier. Each window's channel holds `wlen` items per lane,
/// and a window sends exactly `wlen` items total, so a send can never
/// find the channel full: emission backpressure is explicitly bounded
/// by the window and cannot deadlock, even at pipeline `capacity(1)`
/// (pinned by `emission_channel_is_deadlock_free_at_capacity_one`).
#[allow(clippy::too_many_arguments)]
pub fn run_pipeline_tuned<T: Send>(
    pipe: &Pipeline<T>,
    frames: usize,
    mode: EmitMode,
    tuning: ChanTuning,
    pool: &mut WorkerPool,
    probe: &dyn Probe,
    source: impl Fn(usize) -> T + Sync,
    mut sink: impl FnMut(usize, T) + Send,
) -> Result<StreamStats> {
    assert!(pipe.stages() > 0, "a pipeline needs at least one stage");
    let shape = pipe.shape();
    let stages = shape.stages();
    let want_events = probe.wants_runtime_events();

    let stalls = AtomicU64::new(0);
    let in_flight = AtomicUsize::new(0);
    let max_in_flight = AtomicUsize::new(0);
    let occupancy: Vec<AtomicUsize> = (0..stages).map(|_| AtomicUsize::new(0)).collect();
    let max_occupancy = AtomicUsize::new(0);
    let mut max_reorder_depth = 0usize;
    let mut chan_stats = ChanStats::default();
    let lanes = pool.width().max(1);

    let mut base = 0usize;
    while base < frames {
        let wlen = WINDOW.min(frames - base);
        let graph = shape.graph(wlen);
        // Engine-side copy of the indegrees, to classify the release
        // that makes each node runnable (data vs backpressure edge).
        let remaining: Vec<AtomicUsize> =
            (0..graph.len()).map(|t| AtomicUsize::new(graph.indegree(t))).collect();
        // When each node's *input* became ready, so a backpressure
        // stall can be measured as a duration (data-ready → runnable).
        // Stage-0 nodes have no data edge: their input is ready at
        // window start. Only maintained when the probe wants events —
        // the clock reads are the cost.
        let window_t0 = if want_events { now_ns() } else { 0 };
        let data_ready: Vec<AtomicU64> =
            (0..graph.len()).map(|_| AtomicU64::new(window_t0)).collect();
        // One payload slot per in-window frame; hand-offs are ordered
        // by graph edges, so these locks are uncontended.
        let slots: Vec<Mutex<Option<T>>> = (0..wlen).map(|_| Mutex::new(None)).collect();
        // The window's emission channel: one lane per worker, each deep
        // enough for the whole window, so no send can block (see the
        // function docs for the deadlock-freedom argument).
        let (txs, rx) = ezp_chan::mpmc::<(usize, T)>(lanes, wlen, tuning.policy);
        let tracker = Mutex::new(EmitTracker {
            frontier: 0,
            completed: 0,
            done: vec![false; wlen],
            max_reorder_depth: 0,
        });

        graph.run_probed(pool, probe, |t, worker| {
            let f = shape.frame_of(t);
            let s = shape.stage_of(t);

            // acquire the payload (admit the frame on its first stage)
            let mut payload = if s == 0 {
                let now = in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                max_in_flight.fetch_max(now, Ordering::Relaxed);
                if want_events {
                    probe.runtime_event(worker, RuntimeEvent::StreamInFlight { frames: now });
                }
                source(base + f)
            } else {
                slots[f].lock().unwrap().take().expect("payload lost between stages")
            };

            let occ = occupancy[s].fetch_add(1, Ordering::Relaxed) + 1;
            max_occupancy.fetch_max(occ, Ordering::Relaxed);
            if want_events {
                probe.runtime_event(worker, RuntimeEvent::StreamStageOccupancy { depth: occ });
            }
            pipe.apply(s, base + f, &mut payload);
            occupancy[s].fetch_sub(1, Ordering::Relaxed);

            if s + 1 == stages {
                // final stage: the payload leaves through the channel;
                // the tracker fires the emission events at the same
                // logical points the in-place sink used to.
                txs[worker.min(lanes - 1)]
                    .send((base + f, payload))
                    .unwrap_or_else(|_| panic!("emission channel closed mid-window"));
                let mut st = tracker.lock().unwrap();
                st.completed += 1;
                match mode {
                    EmitMode::Unordered => {
                        in_flight.fetch_sub(1, Ordering::Relaxed);
                        if want_events {
                            probe.runtime_event(worker, RuntimeEvent::StreamFrameEmitted);
                        }
                    }
                    EmitMode::Ordered => {
                        st.done[f] = true;
                        while st.frontier < wlen && st.done[st.frontier] {
                            in_flight.fetch_sub(1, Ordering::Relaxed);
                            st.frontier += 1;
                            if want_events {
                                probe.runtime_event(worker, RuntimeEvent::StreamFrameEmitted);
                            }
                        }
                        let depth = st.completed - st.frontier;
                        st.max_reorder_depth = st.max_reorder_depth.max(depth);
                        if want_events {
                            probe.runtime_event(
                                worker,
                                RuntimeEvent::StreamReorderDepth { depth },
                            );
                        }
                    }
                }
            } else {
                *slots[f].lock().unwrap() = Some(payload);
            }

            // classify the releases this completion performs: a node
            // made runnable by a non-data edge was stalled on
            // backpressure (width or capacity), not on its input
            for &d in graph.dependents(t) {
                let is_data = shape.is_data_edge(t, d);
                if want_events && is_data {
                    // ORDERING: Relaxed store, published by this
                    // worker's AcqRel decrement below — the final
                    // releaser's Acquire makes it visible.
                    data_ready[d].store(now_ns(), Ordering::Relaxed);
                }
                if remaining[d].fetch_sub(1, Ordering::AcqRel) == 1 && !is_data {
                    stalls.fetch_add(1, Ordering::Relaxed);
                    if want_events {
                        probe.runtime_event(worker, RuntimeEvent::StreamStall);
                        let waited =
                            now_ns().saturating_sub(data_ready[d].load(Ordering::Relaxed));
                        if waited > 0 {
                            probe.runtime_event(
                                worker,
                                RuntimeEvent::IdleNs {
                                    ns: waited,
                                    cause: IdleCause::Backpressure,
                                },
                            );
                        }
                    }
                }
            }
        })?;

        // Drain the window: the region barrier above guarantees all
        // `wlen` sends happened, so exactly `wlen` receives succeed.
        // Unordered mode preserves arrival order (per-lane FIFO merged
        // by the drain's rotation); ordered mode sorts by frame id —
        // the sink sees frames in exactly the order the tracker
        // reported them emitted.
        let mut emitted: Vec<(usize, T)> = Vec::with_capacity(wlen);
        for _ in 0..wlen {
            emitted.push(rx.recv().expect("emission channel closed before the window drained"));
        }
        if mode == EmitMode::Ordered {
            emitted.sort_unstable_by_key(|e| e.0);
        }
        for (id, payload) in emitted {
            sink(id, payload);
        }
        chan_stats = chan_stats.merge(&rx.stats());
        drop(txs);

        let st = tracker.into_inner().unwrap();
        debug_assert_eq!(st.frontier_or_completed(mode), wlen);
        max_reorder_depth = max_reorder_depth.max(st.max_reorder_depth);
        base += wlen;
    }

    if want_events && frames > 0 {
        probe.runtime_event(
            0,
            RuntimeEvent::ChanOps {
                sends: chan_stats.sends,
                recvs: chan_stats.recvs,
                full_stalls: chan_stats.full_stalls,
                empty_stalls: chan_stats.empty_stalls,
            },
        );
        if chan_stats.stall_ns > 0 {
            probe.runtime_event(
                0,
                RuntimeEvent::IdleNs {
                    ns: chan_stats.stall_ns,
                    cause: IdleCause::Backpressure,
                },
            );
        }
    }

    Ok(StreamStats {
        frames,
        backpressure_stalls: stalls.into_inner(),
        max_frames_in_flight: max_in_flight.into_inner(),
        max_reorder_depth,
        max_stage_occupancy: max_occupancy.into_inner(),
        chan_sends: chan_stats.sends,
        chan_recvs: chan_stats.recvs,
        chan_full_stalls: chan_stats.full_stalls,
        chan_empty_stalls: chan_stats.empty_stalls,
    })
}

impl EmitTracker {
    /// Window-completion figure checked by the engine's debug assert:
    /// ordered mode must have advanced the frontier through the whole
    /// window; unordered must have completed every frame.
    fn frontier_or_completed(&self, mode: EmitMode) -> usize {
        match mode {
            EmitMode::Ordered => self.frontier,
            EmitMode::Unordered => self.completed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::kernel::NullProbe;
    use ezp_perf::{names, PerfProbe};
    use ezp_testkit::ezp_proptest;
    use ezp_testkit::prop::vec_of;

    fn square_pipe(width: usize) -> Pipeline<u64> {
        Pipeline::new()
            .farm_stage("square", width, |_, x: &mut u64| *x = *x * *x)
            .stage("offset", |_, x| *x += 3)
    }

    #[test]
    fn ordered_run_matches_seq_in_order() {
        let pipe = square_pipe(4);
        let mut expect = Vec::new();
        pipe.run_seq(100, |f| f as u64, |f, x| expect.push((f, x)));
        let mut pool = WorkerPool::new(4);
        let mut got = Vec::new();
        let stats = run_pipeline(
            &pipe,
            100,
            EmitMode::Ordered,
            &mut pool,
            &NullProbe,
            |f| f as u64,
            |f, x| got.push((f, x)),
        )
        .unwrap();
        assert_eq!(got, expect);
        assert_eq!(stats.frames, 100);
        assert!(stats.max_frames_in_flight >= 1);
    }

    #[test]
    fn unordered_run_is_a_permutation_of_seq() {
        let pipe = square_pipe(4);
        let mut expect = Vec::new();
        pipe.run_seq(100, |f| f as u64, |f, x| expect.push((f, x)));
        let mut pool = WorkerPool::new(4);
        let mut got = Vec::new();
        run_pipeline(
            &pipe,
            100,
            EmitMode::Unordered,
            &mut pool,
            &NullProbe,
            |f| f as u64,
            |f, x| got.push((f, x)),
        )
        .unwrap();
        got.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn serial_stateful_stage_sees_frames_in_order_in_parallel() {
        // the frame-differencing pattern: a width-1 stage holding the
        // previous frame. Graph edges order its invocations, so the
        // parallel run must match seq exactly.
        let build = || {
            let prev = Mutex::new(0i64);
            Pipeline::new()
                .farm_stage("gen", 4, |f, x: &mut i64| *x = (f * f) as i64)
                .stage("diff", move |_, x| {
                    let mut p = prev.lock().unwrap();
                    let cur = *x;
                    *x -= *p;
                    *p = cur;
                })
        };
        let mut expect = Vec::new();
        build().run_seq(200, |_| 0, |f, x| expect.push((f, x)));
        let mut pool = WorkerPool::new(4);
        let mut got = Vec::new();
        run_pipeline(
            &build(),
            200,
            EmitMode::Ordered,
            &mut pool,
            &NullProbe,
            |_| 0,
            |f, x| got.push((f, x)),
        )
        .unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn multi_window_streams_work() {
        // more frames than WINDOW: exercises the window barrier and the
        // per-window reorder state reset
        let pipe = square_pipe(2);
        let frames = WINDOW * 2 + 17;
        let mut expect = Vec::new();
        pipe.run_seq(frames, |f| f as u64, |f, x| expect.push((f, x)));
        let mut pool = WorkerPool::new(2);
        let mut got = Vec::new();
        let stats = run_pipeline(
            &pipe,
            frames,
            EmitMode::Ordered,
            &mut pool,
            &NullProbe,
            |f| f as u64,
            |f, x| got.push((f, x)),
        )
        .unwrap();
        assert_eq!(got, expect);
        assert_eq!(stats.frames, frames);
    }

    #[test]
    fn single_stage_pipeline_streams() {
        let pipe = Pipeline::new().farm_stage("id", 2, |_, _: &mut u32| {});
        let mut pool = WorkerPool::new(2);
        let mut got = Vec::new();
        run_pipeline(
            &pipe,
            10,
            EmitMode::Ordered,
            &mut pool,
            &NullProbe,
            |f| f as u32,
            |f, x| got.push((f, x)),
        )
        .unwrap();
        assert_eq!(got, (0..10).map(|f| (f, f as u32)).collect::<Vec<_>>());
    }

    #[test]
    fn zero_frames_is_a_no_op() {
        let pipe = square_pipe(2);
        let mut pool = WorkerPool::new(2);
        let stats = run_pipeline(
            &pipe,
            0,
            EmitMode::Ordered,
            &mut pool,
            &NullProbe,
            |f| f as u64,
            |_, _| panic!("sink called for empty stream"),
        )
        .unwrap();
        assert_eq!(stats, StreamStats::default());
    }

    #[test]
    fn counters_land_in_the_perf_probe() {
        // a deliberately tight pipeline: capacity 1 and a serial tail
        // stage force backpressure with several workers
        let pipe = Pipeline::new()
            .farm_stage("work", 4, |_, x: &mut u64| {
                *x = (0..200).fold(*x, |a, i| a.wrapping_mul(31).wrapping_add(i))
            })
            .stage("tail", |_, _| {})
            .capacity(1);
        let probe = PerfProbe::new(4);
        let mut pool = WorkerPool::new(4);
        let stats = run_pipeline(
            &pipe,
            64,
            EmitMode::Ordered,
            &mut pool,
            &probe,
            |f| f as u64,
            |_, _| {},
        )
        .unwrap();
        let snap = probe.snapshot();
        assert_eq!(snap.total(names::FRAMES_EMITTED), 64);
        assert_eq!(
            snap.total(names::FRAMES_IN_FLIGHT) as usize,
            stats.max_frames_in_flight
        );
        assert_eq!(
            snap.total(names::REORDER_BUFFER_DEPTH) as usize,
            stats.max_reorder_depth
        );
        assert_eq!(
            snap.total(names::STAGE_OCCUPANCY) as usize,
            stats.max_stage_occupancy
        );
        assert_eq!(snap.total(names::BACKPRESSURE_STALLS), stats.backpressure_stalls);
        assert!(stats.max_stage_occupancy >= 1);
        // the emission channel's activity lands in the chan_* counters:
        // one send and one receive per frame, and the bounded-window
        // design means a send never finds the channel full
        assert_eq!(snap.total(names::CHAN_SENDS), 64);
        assert_eq!(snap.total(names::CHAN_RECVS), 64);
        assert_eq!(snap.total(names::CHAN_FULL_STALLS), 0);
        assert_eq!(stats.chan_sends, 64);
        assert_eq!(stats.chan_recvs, 64);
        assert_eq!(stats.chan_full_stalls, 0);
    }

    fn tunings() -> impl Iterator<Item = ChanTuning> {
        ezp_core::WaitPolicy::all()
            .into_iter()
            .map(|policy| ChanTuning { policy })
    }

    #[test]
    fn every_policy_matches_seq_byte_for_byte() {
        let pipe = square_pipe(4);
        let mut expect = Vec::new();
        pipe.run_seq(100, |f| f as u64, |f, x| expect.push((f, x)));
        let mut pool = WorkerPool::new(4);
        for tuning in tunings() {
            let mut got = Vec::new();
            let stats = run_pipeline_tuned(
                &pipe,
                100,
                EmitMode::Ordered,
                tuning,
                &mut pool,
                &NullProbe,
                |f| f as u64,
                |f, x| got.push((f, x)),
            )
            .unwrap();
            assert_eq!(got, expect, "{tuning:?} diverged from seq");
            assert_eq!(stats.chan_sends, 100, "{tuning:?}");
            assert_eq!(stats.chan_recvs, 100, "{tuning:?}");
        }
    }

    #[test]
    fn emission_channel_is_deadlock_free_at_capacity_one() {
        // The reorder buffer's explicit bound: even with the tightest
        // pipeline buffer (capacity 1, serial tail) and every wait
        // policy, the window-sized emission channel can never fill, so
        // no send blocks and the run terminates. Before the channel
        // migration this bound was implicit in the in-place sink; this
        // regression pins it now that emission really buffers.
        for tuning in tunings() {
            let pipe = Pipeline::new()
                .farm_stage("head", 4, |_, x: &mut u64| *x = x.wrapping_mul(31))
                .stage("tail", |_, _| {})
                .capacity(1);
            let mut pool = WorkerPool::new(4);
            let frames = WINDOW + 7; // cross a window boundary too
            let mut got = Vec::new();
            let stats = run_pipeline_tuned(
                &pipe,
                frames,
                EmitMode::Ordered,
                tuning,
                &mut pool,
                &NullProbe,
                |f| f as u64,
                |f, _| got.push(f),
            )
            .unwrap();
            assert_eq!(got, (0..frames).collect::<Vec<_>>(), "{tuning:?}");
            assert_eq!(stats.chan_full_stalls, 0, "{tuning:?}: emission filled up");
        }
    }

    ezp_proptest! {
        #![cases(8)]

        // Same permutation property at the pipeline level, with
        // arbitrary *per-stage* latencies: a farm head and a farm tail
        // whose spin budgets vary per frame.
        fn prop_pipeline_unordered_is_a_permutation_of_ordered(
            latencies in vec_of((0usize..200, 0usize..200), 1..24),
            width in 1usize..4,
        ) {
            let frames = latencies.len();
            let spin = |budget: usize, x: &mut u64| {
                for i in 0..budget {
                    *x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i as u64));
                }
            };
            let build = |lat: Vec<(usize, usize)>| {
                let tail = lat.clone();
                Pipeline::new()
                    .farm_stage("head", width, move |f, x: &mut u64| {
                        *x = f as u64;
                        spin(lat[f].0, x);
                    })
                    .farm_stage("tail", width, move |f, x: &mut u64| spin(tail[f].1, x))
            };
            let mut pool = WorkerPool::new(3);
            let mut ordered = Vec::new();
            run_pipeline(
                &build(latencies.clone()),
                frames,
                EmitMode::Ordered,
                &mut pool,
                &NullProbe,
                |_| 0,
                |f, x| ordered.push((f, x)),
            )
            .unwrap();
            let mut unordered = Vec::new();
            run_pipeline(
                &build(latencies.clone()),
                frames,
                EmitMode::Unordered,
                &mut pool,
                &NullProbe,
                |_| 0,
                |f, x| unordered.push((f, x)),
            )
            .unwrap();
            unordered.sort_unstable();
            assert_eq!(unordered, ordered, "width {width}: not a permutation");
        }
    }

    #[test]
    fn backpressure_stalls_appear_under_a_tight_buffer() {
        // width 1 + capacity 1 on the tail of a wide head: upstream
        // frames are data-ready long before the buffer drains, so some
        // stalls must be observed with real parallelism
        let pipe = Pipeline::new()
            .farm_stage("head", 4, |_, x: &mut u64| {
                *x = (0..500).fold(*x, |a, i| a.wrapping_mul(31).wrapping_add(i))
            })
            .stage("tail", |_, _| {})
            .capacity(1);
        let mut pool = WorkerPool::new(4);
        let stats = run_pipeline(
            &pipe,
            WINDOW,
            EmitMode::Ordered,
            &mut pool,
            &NullProbe,
            |f| f as u64,
            |_, _| {},
        )
        .unwrap();
        assert!(
            stats.backpressure_stalls > 0,
            "tight buffer produced no stalls: {stats:?}"
        );
    }

    #[test]
    fn backpressure_stalls_carry_idle_durations() {
        // every StreamStall must come with a cause-tagged IdleNs so the
        // explain layer can say *how long* frames waited on buffer space
        struct StallWatch {
            stall_events: AtomicU64,
            idle_events: AtomicU64,
            backpressure_ns: AtomicU64,
        }
        impl Probe for StallWatch {
            fn runtime_event(&self, _w: ezp_core::WorkerId, ev: RuntimeEvent) {
                match ev {
                    RuntimeEvent::StreamStall => {
                        self.stall_events.fetch_add(1, Ordering::Relaxed);
                    }
                    RuntimeEvent::IdleNs {
                        ns,
                        cause: IdleCause::Backpressure,
                    } => {
                        self.idle_events.fetch_add(1, Ordering::Relaxed);
                        self.backpressure_ns.fetch_add(ns, Ordering::Relaxed);
                    }
                    _ => {}
                }
            }
            fn wants_runtime_events(&self) -> bool {
                true
            }
        }
        let probe = StallWatch {
            stall_events: AtomicU64::new(0),
            idle_events: AtomicU64::new(0),
            backpressure_ns: AtomicU64::new(0),
        };
        let pipe = Pipeline::new()
            .farm_stage("head", 4, |_, x: &mut u64| {
                *x = (0..500).fold(*x, |a, i| a.wrapping_mul(31).wrapping_add(i))
            })
            .stage("tail", |_, _| {})
            .capacity(1);
        let mut pool = WorkerPool::new(4);
        let stats = run_pipeline(
            &pipe,
            WINDOW,
            EmitMode::Ordered,
            &mut pool,
            &probe,
            |f| f as u64,
            |_, _| {},
        )
        .unwrap();
        assert_eq!(
            probe.stall_events.load(Ordering::Relaxed),
            stats.backpressure_stalls
        );
        if stats.backpressure_stalls > 0 {
            assert!(probe.backpressure_ns.load(Ordering::Relaxed) > 0);
        }
    }
}
