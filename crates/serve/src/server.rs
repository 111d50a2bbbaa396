//! The daemon: acceptor, per-connection readers, and runner threads
//! over a shared [`PoolMux`].
//!
//! ## Threading model
//!
//! * **acceptor** — blocks on `TcpListener::accept`, spawns one reader
//!   per connection. Woken for shutdown by a loopback connect.
//! * **readers** (one per live connection) — decode frames, answer
//!   `stats` inline, push `submit`s through [`Admission`]. A malformed
//!   frame gets an error response and closes *that* connection only; a
//!   disconnect cancels the connection's in-flight jobs via their
//!   [`JobTicket`]s. Readers never touch the worker pool.
//! * **runners** (`slots` of them) — take jobs in round-robin tenant
//!   order, lease a pool from the shared [`PoolMux`], install it, and
//!   run the kernel exactly like the one-shot CLI would. A lease is
//!   returned (and its epoch left closed) whatever the job did — panic
//!   unwind included — so a misbehaving job cannot leak a pool slot.
//!
//! Responses are written under a per-connection mutex so `Accepted`
//! and `Done` frames from different threads never interleave bytes, and
//! a reader holds that mutex across admission so a job's `Done` never
//! precedes its `Accepted`.

use crate::admission::{Admission, Job, JobTicket, ReplySink};
use crate::metrics::ServeMetrics;
use crate::proto::{read_frame, write_frame, FrameIn, JobSpec, Request, Response};
use ezp_core::json::{FromJson, Json, ToJson};
use ezp_core::kernel::Probe;
use ezp_core::perf::run_kernel_boxed;
use ezp_core::{ChanTuning, RunConfig};
use ezp_monitor::UnifiedReport;
use ezp_perf::PerfProbe;
use ezp_sched::{MuxStats, PoolMux};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// TCP port (0 = ephemeral, query via [`Server::addr`]).
    pub port: u16,
    /// Worker threads per pool slot.
    pub workers: usize,
    /// Concurrent jobs (pool slots / runner threads).
    pub slots: usize,
    /// Distinct tenants admitted before the table rejects.
    pub max_tenants: usize,
    /// Bounded depth of each tenant's admission queue.
    pub queue_cap: usize,
    /// Channel substrate/wait policy of the admission lanes.
    pub tuning: ChanTuning,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            port: 0,
            workers: 2,
            slots: 2,
            max_tenants: 8,
            queue_cap: 16,
            tuning: ChanTuning::default(),
        }
    }
}

/// Final tallies returned by [`Server::shutdown`].
#[derive(Clone, Debug)]
pub struct ServerSummary {
    /// (admitted, rejected, completed, cancelled, failed) job totals.
    pub totals: (u64, u64, u64, u64, u64),
    /// Pool-lease traffic of the shared mux.
    pub mux: MuxStats,
    /// The final per-tenant stats document.
    pub stats: Json,
}

struct Shared {
    admission: Admission,
    metrics: Arc<ServeMetrics>,
    mux: PoolMux,
    workers: usize,
    stop: AtomicBool,
    addr: SocketAddr,
    /// Live reader threads, so shutdown can join them. The paired
    /// stream clone lets shutdown unblock a reader that is mid-
    /// `read_frame` on a connection the client kept open. The acceptor
    /// reaps finished readers (joins them, drops their clone) at every
    /// accept, so a churning client leaves no thread or descriptor
    /// behind.
    readers: Mutex<Vec<(JoinHandle<()>, TcpStream)>>,
}

/// A running daemon. Dropping without [`Server::shutdown`] aborts the
/// accept loop and joins all threads.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    runners: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `127.0.0.1:port` and starts the acceptor and runner
    /// threads.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(ServeMetrics::new(cfg.max_tenants));
        let slots = cfg.slots.max(1);
        let shared = Arc::new(Shared {
            admission: Admission::new(cfg.tuning, Arc::clone(&metrics), cfg.queue_cap),
            metrics,
            mux: PoolMux::new(slots, cfg.workers.max(1)),
            workers: cfg.workers.max(1),
            stop: AtomicBool::new(false),
            addr,
            readers: Mutex::new(Vec::new()),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        let runners = (0..slots)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || runner_loop(shared))
            })
            .collect();
        Ok(Server { shared, acceptor: Some(acceptor), runners })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Live per-tenant stats document.
    pub fn stats(&self) -> Json {
        self.shared.metrics.to_json()
    }

    /// Blocks until a remote [`Request::Shutdown`] stops the daemon,
    /// then joins everything. This is what `easypap serve` does.
    pub fn wait(self) -> ServerSummary {
        while !self.shared.stop.load(Ordering::SeqCst) {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        self.shutdown()
    }

    /// Stops accepting, drains the admission queues, joins every
    /// thread, and reports the final tallies. Also triggered remotely
    /// by [`Request::Shutdown`].
    pub fn shutdown(mut self) -> ServerSummary {
        self.stop_and_join();
        ServerSummary {
            totals: self.shared.metrics.totals(),
            mux: self.shared.mux.stats(),
            stats: self.shared.metrics.to_json(),
        }
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.admission.close();
        // wake the blocking accept with a throwaway connection
        let _ = TcpStream::connect(self.shared.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.runners.drain(..) {
            let _ = h.join();
        }
        let readers = std::mem::take(
            &mut *self.shared.readers.lock().unwrap_or_else(|e| e.into_inner()),
        );
        for (h, stream) in readers {
            // a client may keep its connection open indefinitely; yank
            // the socket so the blocked read returns EOF before the join
            let _ = stream.shutdown(std::net::Shutdown::Both);
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.shared.stop.load(Ordering::SeqCst) {
            self.stop_and_join();
        }
    }
}

/// Sleep after a first failed `accept`; it doubles while the errors
/// continue, up to [`ACCEPT_BACKOFF_MAX`].
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(1);
/// Longest sleep between two failed `accept`s.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut backoff = ACCEPT_BACKOFF_MIN;
    loop {
        let conn = match listener.accept() {
            Ok((stream, _)) => {
                backoff = ACCEPT_BACKOFF_MIN;
                stream
            }
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                // errors such as EMFILE persist until descriptors free
                // up: back off instead of spinning on them
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // small frames, latency-sensitive protocol: defeat Nagle
        let _ = conn.set_nodelay(true);
        let Ok(shutdown_handle) = conn.try_clone() else {
            continue;
        };
        let shared2 = Arc::clone(&shared);
        let handle = std::thread::spawn(move || reader_loop(conn, shared2));
        let mut readers = shared.readers.lock().unwrap_or_else(|e| e.into_inner());
        let (done, live): (Vec<_>, Vec<_>) =
            std::mem::take(&mut *readers).into_iter().partition(|(h, _)| h.is_finished());
        *readers = live;
        readers.push((handle, shutdown_handle));
        drop(readers);
        for (h, _stream) in done {
            let _ = h.join();
        }
    }
}

/// Write-side of one connection, shared between its reader (errors,
/// stats, admission answers) and the runners (job results).
struct Conn {
    stream: Mutex<TcpStream>,
    /// Cancels this connection's jobs when the client goes away.
    ticket: Arc<JobTicket>,
}

impl Conn {
    /// Sends one response; on a dead peer, cancels the connection's
    /// jobs instead of erroring (the job already ran — nobody is left
    /// to care). An oversized response (`InvalidData`) is the daemon's
    /// fault, not the peer's: the frame is replaced by a small error
    /// note so the client is not left waiting on a silently dropped
    /// terminal frame, and the connection stays usable.
    fn send(&self, resp: &Response) {
        self.write(&mut self.lock(), resp);
    }

    fn lock(&self) -> MutexGuard<'_, TcpStream> {
        self.stream.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// [`Conn::send`] on a stream whose lock the caller holds.
    fn write(&self, stream: &mut TcpStream, resp: &Response) {
        match write_frame(stream, &resp.to_json()) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                let note = Response::Error(format!("response dropped: {e}"));
                if write_frame(stream, &note.to_json()).is_err() {
                    self.ticket.cancel();
                }
            }
            Err(_) => self.ticket.cancel(),
        }
    }
}

impl ReplySink for Conn {
    fn send(&self, resp: &Response) {
        Conn::send(self, resp);
    }
}

fn reader_loop(stream: TcpStream, shared: Arc<Shared>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(Conn {
        stream: Mutex::new(write_half),
        ticket: JobTicket::new(),
    });
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader) {
            Ok(FrameIn::Msg(msg)) => {
                let req = match Request::from_json(&msg) {
                    Ok(r) => r,
                    Err(e) => {
                        conn.send(&Response::Error(e.to_string()));
                        break;
                    }
                };
                match req {
                    Request::Submit(spec) => handle_submit(&shared, &conn, spec),
                    Request::Stats => conn.send(&Response::Stats(shared.metrics.to_json())),
                    Request::Shutdown => {
                        conn.send(&Response::ShuttingDown);
                        shared.stop.store(true, Ordering::SeqCst);
                        shared.admission.close();
                        // wake the acceptor so Server::shutdown joins fast
                        let _ = TcpStream::connect(shared.addr);
                        break;
                    }
                }
            }
            Ok(FrameIn::Eof) => break,
            Ok(FrameIn::Malformed(why)) => {
                conn.send(&Response::Error(format!("malformed frame: {why}")));
                break;
            }
            Err(_) => break,
        }
    }
    // reader gone = client gone (or told to go): any queued or running
    // job of this connection is now pointless
    conn.ticket.cancel();
    // actively close the socket — the shutdown handle stored in
    // `shared.readers` would otherwise hold it open (the client would
    // never see EOF) until daemon shutdown
    let _ = reader.get_ref().shutdown(std::net::Shutdown::Both);
}

fn handle_submit(shared: &Arc<Shared>, conn: &Arc<Conn>, spec: JobSpec) {
    let reply: Arc<dyn ReplySink> = Arc::clone(conn) as Arc<dyn ReplySink>;
    // Hold the write lock from admission until the answer is written: a
    // runner can finish the job before this thread writes `Accepted`,
    // and its `Done` must not overtake it. No deadlock: `submit` never
    // blocks (a full lane is a `try_send` rejection), and the runner
    // only waits for this lock.
    let mut stream = conn.lock();
    let answer = match shared.admission.submit(spec, Arc::clone(&conn.ticket), reply) {
        Ok((job_id, tenant, _slot)) => Response::Accepted { job_id, tenant },
        Err(rej) => Response::Rejected {
            reason: rej.reason,
            retry_after_ms: rej.retry_after_ms,
        },
    };
    conn.write(&mut stream, &answer);
}

fn runner_loop(shared: Arc<Shared>) {
    let cursor = AtomicUsize::new(0);
    while let Some(job) = shared.admission.next_job(&cursor) {
        run_one(&shared, job);
    }
}

fn run_one(shared: &Arc<Shared>, job: Job) {
    let slot = job.tenant_slot;
    if !job.ticket.is_live() {
        shared.metrics.cancelled(slot);
        return;
    }
    let queued_ns = ezp_core::time::now_ns().saturating_sub(job.enqueued_ns);
    // synthetic upstream latency of a replayed request: stalls overlap
    // across runner slots, compute does not (on fewer cores than slots)
    if job.spec.stall_us > 0 {
        std::thread::sleep(std::time::Duration::from_micros(job.spec.stall_us));
    }
    let threads = job.spec.threads.clamp(1, shared.workers);
    let cfg = RunConfig::new(&job.spec.kernel)
        .variant(&job.spec.variant)
        .size(job.spec.size)
        .tile(job.spec.tile)
        .iterations(job.spec.iterations)
        .threads(threads);
    let probe = Arc::new(PerfProbe::new(threads));
    let probe_dyn: Arc<dyn Probe> = probe.clone();
    let reg = ezp_kernels::registry();
    let mut lease = shared.mux.lease();
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        lease.install(threads, || run_kernel_boxed(&reg, cfg, probe_dyn))
    }));
    drop(lease); // slot back in the mux before any response I/O
    let outcome = match result {
        Ok(Ok(ok)) => ok,
        Ok(Err(e)) => {
            shared.metrics.failed(slot);
            job.reply.send(&Response::Failed { job_id: job.id, error: e.to_string() });
            return;
        }
        Err(_) => {
            shared.metrics.failed(slot);
            job.reply.send(&Response::Failed {
                job_id: job.id,
                error: "kernel panicked".to_string(),
            });
            return;
        }
    };
    let (run, ctx, kernel) = outcome;
    if !job.ticket.is_live() {
        // ran to completion for a client that left mid-job; count it as
        // cancelled — the epoch is closed either way
        shared.metrics.cancelled(slot);
        return;
    }
    shared.metrics.completed(slot, queued_ns);
    let mut snapshot = probe.snapshot();
    for (name, per_worker) in kernel.stats_counters() {
        snapshot.push(&name, per_worker);
    }
    let report = UnifiedReport::new(None, snapshot, probe.span_snapshot())
        .with_tenant(&job.tenant)
        .to_json();
    let digest = format!("{:016x}", digest_pixels(ctx.images.cur().as_slice()));
    job.reply.send(&Response::Done {
        job_id: job.id,
        tenant: job.tenant.clone(),
        elapsed_ns: run.elapsed_ns,
        iterations: run.completed_iterations,
        digest,
        report,
    });
}

/// FNV-1a over the frame's pixel words, little-endian byte order — the
/// digest clients compare across runs and machines.
fn digest_pixels(pixels: &[ezp_core::Rgba]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for px in pixels {
        for b in px.0.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}
