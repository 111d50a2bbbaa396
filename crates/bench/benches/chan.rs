//! Microbenches of `ezp-chan` against the `std::sync::mpsc` baseline:
//! SPSC ring throughput (same-thread op cost and cross-thread
//! streaming) and MPMC fan-in at 1/2/4/8 producer threads — the
//! numbers behind `ci/BENCH_chan.json`.
//!
//! Run with `cargo bench -p ezp-bench --bench chan`.
//!
//! * `EZP_BENCH_CSV=path` appends every result as CSV.
//! * `EZP_BENCH_JSON=path` writes the summary (msgs/sec per shape and
//!   thread count, ring vs mpsc) as JSON — the file `ci/verify.sh`
//!   diffs against the committed baseline.
//! * `EZP_BENCH_SMOKE=1` shrinks message counts so the whole lane
//!   finishes in seconds; rates stay comparable, only noisier.

use ezp_chan::{mpmc, spsc};
use ezp_core::WaitPolicy;
use ezp_testkit::{Bench, BenchSet};
use std::sync::mpsc as std_mpsc;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Yield everywhere: the fan-in rows run up to 8 producer threads plus
/// the consumer, more threads than the host has cores, and on an
/// oversubscribed host a waiter that does not give up its timeslice
/// blocks the peer it waits on. `std::sync::mpsc` blocks natively,
/// which there behaves like yield-then-park — the closest fair
/// comparison.
const POLICY: WaitPolicy = WaitPolicy::Yield;

fn smoke() -> bool {
    std::env::var("EZP_BENCH_SMOKE").is_ok_and(|v| v != "0")
}

struct Rates {
    spsc_inline: f64,
    spsc_threaded: f64,
    mpmc: Vec<f64>,
}

/// Same-thread push/pop cycles: isolates the per-operation cost of the
/// channel structure itself (no scheduler involvement on either side).
/// Batches of `cap` so the ring exercises its full wraparound path.
fn spsc_inline(set: &mut BenchSet) -> (f64, f64) {
    let cap = 1024usize;
    let batches: usize = if smoke() { 8 } else { 64 };
    let n = (cap * batches) as f64;

    let (mut tx, mut rx) = spsc::<usize>(cap, POLICY);
    let r = set.bench("spsc_inline", "ring", || {
        for _ in 0..batches {
            for i in 0..cap {
                assert!(tx.try_send(i).is_ok());
            }
            for i in 0..cap {
                assert_eq!(rx.try_recv().ok(), Some(i));
            }
        }
    });
    let ring = n * 1e9 / r.min_ns.max(1) as f64;

    let (mtx, mrx) = std_mpsc::sync_channel::<usize>(cap);
    let r = set.bench("spsc_inline", "mpsc", || {
        for _ in 0..batches {
            for i in 0..cap {
                assert!(mtx.try_send(i).is_ok());
            }
            for i in 0..cap {
                assert_eq!(mrx.try_recv().ok(), Some(i));
            }
        }
    });
    let mpsc = n * 1e9 / r.min_ns.max(1) as f64;
    (ring, mpsc)
}

/// One producer thread streaming into one consumer thread through a
/// bounded channel — the streaming engine's emission shape.
fn spsc_threaded(set: &mut BenchSet) -> (f64, f64) {
    let cap = 1024usize;
    let n: usize = if smoke() { 5_000 } else { 50_000 };

    let r = set.bench("spsc_threaded", "ring", || {
        let (mut tx, mut rx) = spsc::<usize>(cap, POLICY);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..n {
                    tx.send(i).unwrap();
                }
            });
            for i in 0..n {
                assert_eq!(rx.recv().ok(), Some(i));
            }
        });
    });
    let ring = n as f64 * 1e9 / r.min_ns.max(1) as f64;

    let r = set.bench("spsc_threaded", "mpsc", || {
        let (tx, rx) = std_mpsc::sync_channel::<usize>(cap);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..n {
                    tx.send(i).unwrap();
                }
            });
            for i in 0..n {
                assert_eq!(rx.recv().ok(), Some(i));
            }
        });
    });
    let mpsc = n as f64 * 1e9 / r.min_ns.max(1) as f64;
    (ring, mpsc)
}

/// `t` producer threads fanning into one consumer. The ring side is the
/// per-producer-lane MPMC channel; the baseline is `sync_channel` with
/// one cloned sender per producer (its native multi-producer mode).
fn mpmc_fan_in(set: &mut BenchSet) -> (Vec<f64>, Vec<f64>) {
    let cap = 256usize;
    let per_producer: usize = if smoke() { 2_000 } else { 10_000 };
    let mut ring_rates = Vec::new();
    let mut mpsc_rates = Vec::new();

    for &t in &THREAD_SWEEP {
        let total = t * per_producer;

        let r = set.bench("mpmc_fan_in_ring", &t.to_string(), || {
            let (txs, rx) = mpmc::<usize>(t, cap, POLICY);
            std::thread::scope(|s| {
                for tx in txs {
                    s.spawn(move || {
                        for i in 0..per_producer {
                            tx.send(i).unwrap();
                        }
                    });
                }
                for _ in 0..total {
                    rx.recv().unwrap();
                }
            });
        });
        ring_rates.push(total as f64 * 1e9 / r.min_ns.max(1) as f64);

        let r = set.bench("mpmc_fan_in_mpsc", &t.to_string(), || {
            let (tx, rx) = std_mpsc::sync_channel::<usize>(t * cap);
            std::thread::scope(|s| {
                for _ in 0..t {
                    let tx = tx.clone();
                    s.spawn(move || {
                        for i in 0..per_producer {
                            tx.send(i).unwrap();
                        }
                    });
                }
                drop(tx);
                for _ in 0..total {
                    rx.recv().unwrap();
                }
            });
        });
        mpsc_rates.push(total as f64 * 1e9 / r.min_ns.max(1) as f64);
    }
    (ring_rates, mpsc_rates)
}

fn json_array(vals: &[f64]) -> String {
    let items: Vec<String> = vals.iter().map(|v| format!("{v:.1}")).collect();
    format!("[{}]", items.join(", "))
}

fn write_json(path: &str, mode: &str, ring: &Rates, mpsc: &Rates) -> std::io::Result<()> {
    let threads: Vec<String> = THREAD_SWEEP.iter().map(|t| t.to_string()).collect();
    let body = format!(
        "{{\n  \"bench\": \"chan\",\n  \"mode\": \"{mode}\",\n  \"threads\": [{}],\n  \
         \"ring\": {{\n    \"spsc_inline_msgs_per_sec\": {:.1},\n    \
         \"spsc_threaded_msgs_per_sec\": {:.1},\n    \
         \"mpmc_msgs_per_sec\": {}\n  }},\n  \"mpsc_baseline\": {{\n    \
         \"spsc_inline_msgs_per_sec\": {:.1},\n    \
         \"spsc_threaded_msgs_per_sec\": {:.1},\n    \
         \"mpmc_msgs_per_sec\": {}\n  }}\n}}\n",
        threads.join(", "),
        ring.spsc_inline,
        ring.spsc_threaded,
        json_array(&ring.mpmc),
        mpsc.spsc_inline,
        mpsc.spsc_threaded,
        json_array(&mpsc.mpmc),
    );
    std::fs::write(path, body)
}

fn main() {
    let (warmup, samples) = if smoke() { (1, 9) } else { (3, 20) };
    let mut set = BenchSet::with_config(Bench::new().warmup(warmup).samples(samples));

    let (inline_ring, inline_mpsc) = spsc_inline(&mut set);
    let (thr_ring, thr_mpsc) = spsc_threaded(&mut set);
    let (mpmc_ring, mpmc_mpsc) = mpmc_fan_in(&mut set);

    let ring = Rates {
        spsc_inline: inline_ring,
        spsc_threaded: thr_ring,
        mpmc: mpmc_ring,
    };
    let mpsc = Rates {
        spsc_inline: inline_mpsc,
        spsc_threaded: thr_mpsc,
        mpmc: mpmc_mpsc,
    };

    print!("{}", set.table());
    if let Ok(path) = std::env::var("EZP_BENCH_CSV") {
        set.write_csv(std::path::Path::new(&path)).unwrap();
    }
    if let Ok(path) = std::env::var("EZP_BENCH_JSON") {
        let mode = if smoke() { "smoke" } else { "full" };
        write_json(&path, mode, &ring, &mpsc).unwrap();
        eprintln!("wrote {path}");
    }
}
