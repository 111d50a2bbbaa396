//! The live monitoring probe: low-overhead per-worker event collection.
//!
//! Worker threads call [`ezp_core::kernel::Probe::start_tile`] /
//! `end_tile` around every tile, so collection must not serialize them.
//! Each worker gets its own cache-line-padded slot holding the open-tile
//! timestamp and a private event channel: records ride an unbounded
//! [`ezp_chan`] lane (a lock-free ring push, so the tile hot path takes
//! no lock), harvested into an accumulator when a report is requested.
//! Sends never wait and the harvest only polls (`try_recv`), so the
//! wait policy never comes into play; the lane uses the default `Park`.

use crate::record::{DepEdge, TileRecord};
use crate::report::{IterationSpan, MonitorReport};
use ezp_chan::{mpmc_unbounded, MpmcReceiver, MpmcSender};
use ezp_core::kernel::{EdgeKind, Probe};
use ezp_core::time::now_ns;
use ezp_core::{TileGrid, WaitPolicy, WorkerId};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// Pads a worker slot to its own cache line to avoid false sharing, the
/// classic pitfall the guides (and Chapter 7 of *Rust Atomics and Locks*)
/// warn about for per-thread counters.
#[repr(align(128))]
struct WorkerSlot {
    /// Timestamp of the currently open tile (`u64::MAX` when none).
    /// counter-only: the timestamp is the entire payload; the monitor
    /// thread tolerates reading one frame stale.
    open_start: AtomicU64,
    /// This worker's event lane. Only this worker sends; unbounded, so
    /// a send never blocks the tile hot path.
    tx: MpmcSender<TileRecord>,
    /// Harvest side of the lane, drained under `harvested`'s lock.
    rx: MpmcReceiver<TileRecord>,
    /// Everything harvested from the lane so far — reports are
    /// snapshots, not drains, so records accumulate here.
    harvested: Mutex<Vec<TileRecord>>,
}

impl WorkerSlot {
    fn new() -> Self {
        let (mut txs, rx) = mpmc_unbounded::<TileRecord>(1, WaitPolicy::Park);
        WorkerSlot {
            open_start: AtomicU64::new(u64::MAX),
            tx: txs.pop().expect("one sender lane"),
            rx,
            harvested: Mutex::new(Vec::new()),
        }
    }

    /// Drains the lane into the accumulator and copies everything
    /// collected so far. The lock makes concurrent reports serialize,
    /// so each in-flight record lands in the accumulator exactly once.
    fn snapshot(&self) -> Vec<TileRecord> {
        let mut harvested = self.harvested.lock().unwrap();
        while let Ok(r) = self.rx.try_recv() {
            harvested.push(r);
        }
        harvested.clone()
    }
}

/// The live monitor: a [`Probe`] implementation recording every tile.
pub struct Monitor {
    grid: TileGrid,
    slots: Vec<WorkerSlot>,
    current_iteration: AtomicU32,
    iterations: Mutex<Vec<IterationSpan>>,
    /// Dependency edges reported by the task-graph executor, deduped:
    /// graph runs re-enumerate the same structural edges every
    /// iteration, and the report wants each once. Edge reporting
    /// happens once per region launch (not per task), so this lock is
    /// nowhere near the tile hot path.
    edges: Mutex<BTreeSet<(usize, usize, u8)>>,
}

impl Monitor {
    /// Creates a monitor for `workers` threads over `grid`.
    pub fn new(workers: usize, grid: TileGrid) -> Self {
        assert!(workers > 0, "monitor needs at least one worker");
        Monitor {
            grid,
            slots: (0..workers).map(|_| WorkerSlot::new()).collect(),
            current_iteration: AtomicU32::new(0),
            iterations: Mutex::new(Vec::new()),
            edges: Mutex::new(BTreeSet::new()),
        }
    }

    /// Number of monitored workers.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// Harvests everything collected so far into an analysable report.
    /// The monitor can keep running; records are *copied* out.
    pub fn report(&self) -> MonitorReport {
        let mut records: Vec<TileRecord> = Vec::new();
        for slot in &self.slots {
            records.extend(slot.snapshot());
        }
        records.sort_by_key(|r| (r.iteration, r.start_ns));
        let mut iterations = self.iterations.lock().unwrap().clone();
        // close a still-open iteration so that live snapshots work
        if let Some(last) = iterations.last_mut() {
            if last.end_ns == u64::MAX {
                last.end_ns = now_ns();
            }
        }
        let edges: Vec<DepEdge> = self
            .edges
            .lock()
            .unwrap()
            .iter()
            .map(|&(from, to, kind)| DepEdge { from, to, kind })
            .collect();
        MonitorReport::new(self.slots.len(), self.grid, iterations, records)
            .with_edges(edges)
    }

    #[inline]
    fn slot(&self, worker: WorkerId) -> &WorkerSlot {
        assert!(
            worker < self.slots.len(),
            "worker {worker} out of range (monitor created for {})",
            self.slots.len()
        );
        &self.slots[worker]
    }
}

impl Probe for Monitor {
    fn iteration_start(&self, iteration: u32) {
        self.current_iteration.store(iteration, Ordering::Release);
        self.iterations.lock().unwrap().push(IterationSpan {
            iteration,
            start_ns: now_ns(),
            end_ns: u64::MAX,
        });
    }

    fn iteration_end(&self, iteration: u32) {
        let mut spans = self.iterations.lock().unwrap();
        if let Some(span) = spans.iter_mut().rev().find(|s| s.iteration == iteration) {
            span.end_ns = now_ns();
        }
    }

    fn start_tile(&self, worker: WorkerId) {
        self.slot(worker).open_start.store(now_ns(), Ordering::Relaxed);
    }

    fn end_tile(&self, x: usize, y: usize, w: usize, h: usize, worker: WorkerId) {
        let slot = self.slot(worker);
        let start = slot.open_start.swap(u64::MAX, Ordering::Relaxed);
        let end = now_ns();
        // An end without a start is an instrumentation bug in the kernel;
        // record a zero-length task rather than poisoning the run.
        let start = if start == u64::MAX { end } else { start };
        slot.tx
            .send(TileRecord {
                iteration: self.current_iteration.load(Ordering::Acquire),
                x,
                y,
                w,
                h,
                start_ns: start,
                end_ns: end,
                worker,
            })
            .expect("monitor event lane closed while its slot is alive");
    }

    fn dep_edge(&self, from: usize, to: usize, kind: EdgeKind) {
        self.edges.lock().unwrap().insert((from, to, kind.as_u8()));
    }

    fn wants_dep_edges(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn grid() -> TileGrid {
        TileGrid::square(64, 16).unwrap()
    }

    #[test]
    fn records_one_tile_per_bracket() {
        let m = Monitor::new(2, grid());
        m.iteration_start(1);
        m.start_tile(0);
        m.end_tile(0, 0, 16, 16, 0);
        m.start_tile(1);
        m.end_tile(16, 0, 16, 16, 1);
        m.iteration_end(1);
        let rep = m.report();
        assert_eq!(rep.records.len(), 2);
        assert_eq!(rep.records[0].worker, 0);
        assert_eq!(rep.records[1].x, 16);
        assert!(rep.records.iter().all(|r| r.iteration == 1));
    }

    #[test]
    fn tile_timestamps_are_ordered() {
        let m = Monitor::new(1, grid());
        m.iteration_start(1);
        m.start_tile(0);
        std::hint::black_box((0..1000).sum::<u64>());
        m.end_tile(0, 0, 16, 16, 0);
        let rep = m.report();
        let r = rep.records[0];
        assert!(r.end_ns >= r.start_ns);
    }

    #[test]
    fn end_without_start_yields_zero_duration() {
        let m = Monitor::new(1, grid());
        m.iteration_start(1);
        m.end_tile(0, 0, 16, 16, 0);
        let rep = m.report();
        assert_eq!(rep.records[0].duration_ns(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn worker_rank_is_checked() {
        let m = Monitor::new(2, grid());
        m.start_tile(5);
    }

    #[test]
    fn concurrent_workers_do_not_lose_records() {
        let m = Arc::new(Monitor::new(4, grid()));
        m.iteration_start(1);
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        m.start_tile(w);
                        m.end_tile(i % 4 * 16, w * 16, 16, 16, w);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        m.iteration_end(1);
        let rep = m.report();
        assert_eq!(rep.records.len(), 400);
        for w in 0..4 {
            assert_eq!(rep.records.iter().filter(|r| r.worker == w).count(), 100);
        }
    }

    #[test]
    fn open_iteration_is_closed_at_report_time() {
        let m = Monitor::new(1, grid());
        m.iteration_start(1);
        m.start_tile(0);
        m.end_tile(0, 0, 16, 16, 0);
        // no iteration_end: live snapshot mid-iteration
        let rep = m.report();
        assert_eq!(rep.iterations.len(), 1);
        assert_ne!(rep.iterations[0].end_ns, u64::MAX);
    }

    #[test]
    fn dep_edges_are_collected_and_deduped() {
        let m = Monitor::new(1, grid());
        assert!(m.wants_dep_edges());
        // re-emission across iterations (same structural graph) dedupes
        for _ in 0..3 {
            m.dep_edge(0, 1, EdgeKind::Data);
            m.dep_edge(0, 4, EdgeKind::Data);
            m.dep_edge(2, 3, EdgeKind::Capacity);
        }
        let rep = m.report();
        assert_eq!(rep.edges.len(), 3);
        assert_eq!(
            rep.edges[0],
            DepEdge {
                from: 0,
                to: 1,
                kind: EdgeKind::Data.as_u8()
            }
        );
        assert_eq!(rep.edges[2].edge_kind(), Some(EdgeKind::Capacity));
    }

    #[test]
    fn concurrent_event_lanes_deliver_every_record() {
        let m = Arc::new(Monitor::new(4, grid()));
        m.iteration_start(1);
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        m.start_tile(w);
                        m.end_tile(i % 4 * 16, w * 16, 16, 16, w);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        m.iteration_end(1);
        let mut rec = m.report().records;
        rec.sort_by_key(|r| (r.worker, r.x, r.y));
        let got: Vec<_> = rec.iter().map(|r| (r.worker, r.x, r.y, r.w, r.h)).collect();
        let mut want: Vec<_> = (0..4)
            .flat_map(|w| (0..50).map(move |i| (w, i % 4 * 16, w * 16, 16, 16)))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn report_is_a_snapshot_not_a_drain() {
        let m = Monitor::new(1, grid());
        m.iteration_start(1);
        m.start_tile(0);
        m.end_tile(0, 0, 16, 16, 0);
        assert_eq!(m.report().records.len(), 1);
        assert_eq!(m.report().records.len(), 1);
    }
}
