//! The traced run's recorder: spans kept in memory, written once as a
//! Chrome trace (`chrome://tracing`, Perfetto) at the end, plus the
//! benchmark-owned [`TileProbe`] that brackets every tile.

use ezp_core::kernel::{Probe, RuntimeEvent};
use ezp_core::time::now_ns;
use ezp_core::WorkerId;
use ezp_perf::PerfProbe;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Lanes (Chrome `tid`s) for spans recorded by the benchmark's own
/// threads; worker ranks use lanes `0..`.
pub const LANE_MAIN: usize = 100;
pub const LANE_SENDER: usize = 101;
pub const LANE_RECEIVER: usize = 102;
pub const LANE_CLIENT: usize = 103;

/// One closed interval, nanoseconds on the `ezp_core::time` clock.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub lane: usize,
    /// Groups the spans of one operation (one job id, one run).
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store.
#[derive(Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer::default())
    }

    /// A fresh operation id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, name: &'static str, lane: usize, id: u64, start_ns: u64, end_ns: u64) {
        let span = Span {
            name,
            lane,
            id,
            start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .expect("no span recorder panicked")
            .push(span);
    }

    /// Every span, ordered by lane then start.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("no span recorder panicked")
            .clone();
        v.sort_by_key(|s| (s.lane, s.start_ns, std::cmp::Reverse(s.end_ns)));
        v
    }

    pub fn named(&self, name: &str) -> Vec<Span> {
        self.spans()
            .into_iter()
            .filter(|s| s.name == name)
            .collect()
    }

    /// Self time per span name: each span's duration minus the time of
    /// the spans directly nested in it on the same lane.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        let spans = self.spans();
        // stack of (index, child time) per lane; spans are sorted so a
        // parent precedes its children
        let mut stack: Vec<(usize, u64)> = Vec::new();
        let close = |stack: &mut Vec<(usize, u64)>, out: &mut BTreeMap<&'static str, u64>| {
            let (i, child) = stack.pop().expect("close is called on a non-empty stack");
            let s: &Span = &spans[i];
            *out.entry(s.name).or_default() += s.ns().saturating_sub(child);
            if let Some(parent) = stack.last_mut() {
                parent.1 += s.ns();
            }
        };
        for (i, s) in spans.iter().enumerate() {
            while let Some(&(top, _)) = stack.last() {
                let t = &spans[top];
                if t.lane == s.lane && s.start_ns >= t.start_ns && s.end_ns <= t.end_ns {
                    break;
                }
                close(&mut stack, &mut out);
            }
            stack.push((i, 0));
        }
        while !stack.is_empty() {
            close(&mut stack, &mut out);
        }
        out
    }

    /// Writes every span as a Chrome trace-event JSON array.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans().iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{}}}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.id
            );
        }
        out.push_str("\n]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// The benchmark's probe: brackets every tile (`start_tile` →
/// `end_tile`) per worker, records the tile as a span, counts its own
/// calls, and forwards everything to an `ezp_perf::PerfProbe` so the
/// runtime's own counters (idle causes, steals, parks) come along.
pub struct TileProbe {
    pub tracer: Arc<Tracer>,
    pub perf: Arc<PerfProbe>,
    /// Operation id stamped on the recorded tile spans.
    pub id: u64,
    starts: Vec<AtomicU64>,
    events: AtomicU64,
}

impl TileProbe {
    pub fn new(tracer: Arc<Tracer>, workers: usize, id: u64) -> TileProbe {
        TileProbe {
            tracer,
            perf: Arc::new(PerfProbe::new(workers)),
            id,
            starts: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            events: AtomicU64::new(0),
        }
    }

    /// Probe calls received (tile brackets, iterations, runtime events).
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    fn count(&self) {
        self.events.fetch_add(1, Ordering::Relaxed);
    }
}

impl Probe for TileProbe {
    fn iteration_start(&self, iteration: u32) {
        self.count();
        self.perf.iteration_start(iteration);
    }
    fn iteration_end(&self, iteration: u32) {
        self.count();
        self.perf.iteration_end(iteration);
    }
    fn start_tile(&self, worker: WorkerId) {
        self.count();
        self.perf.start_tile(worker);
        self.starts[worker].store(now_ns(), Ordering::Relaxed);
    }
    fn end_tile(&self, x: usize, y: usize, w: usize, h: usize, worker: WorkerId) {
        let end = now_ns();
        self.count();
        let start = self.starts[worker].load(Ordering::Relaxed);
        self.tracer.record("tile", worker, self.id, start, end);
        self.perf.end_tile(x, y, w, h, worker);
    }
    fn runtime_event(&self, worker: WorkerId, event: RuntimeEvent) {
        self.count();
        self.perf.runtime_event(worker, event);
    }
    fn wants_runtime_events(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children() {
        let t = Tracer::default();
        t.record("outer", 0, 0, 0, 100);
        t.record("inner", 0, 0, 10, 40);
        t.record("inner", 0, 0, 50, 60);
        t.record("other_lane", 1, 0, 20, 30);
        let st = t.self_times();
        assert_eq!(st["outer"], 60);
        assert_eq!(st["inner"], 40);
        assert_eq!(st["other_lane"], 10);
    }
}
