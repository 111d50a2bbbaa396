//! The `serve` workload: an in-process `ezp-serve` daemon driven over
//! loopback TCP by a load generator speaking the public
//! `ezp_serve::proto` frames.
//!
//! The generator does not use `ezp_serve::Client`: it matches terminal
//! frames to submissions by `job_id`, so a `done` frame that overtakes
//! its `accepted` frame (a known daemon race: the runner can finish
//! before the reader thread writes `accepted`) is counted
//! (`serve.done_before_accepted`) instead of desynchronising the
//! connection.

use crate::common::{digest_error, run_job, setup_rounds, sleep_until, Job};
use crate::report::Report;
use crate::stats::{median, quantile};
use crate::trace::{Tracer, LANE_CLIENT, LANE_RECEIVER, LANE_SENDER};
use ezp_core::json::{FromJson, Json, ToJson};
use ezp_core::kernel::NullProbe;
use ezp_core::time::now_ns;
use ezp_core::{ChanTuning, Schedule};
use ezp_sched::MuxStats;
use ezp_serve::proto::{read_frame, write_frame, FrameIn};
use ezp_serve::{JobSpec, Request, Response, ServeConfig, Server};
use ezp_testkit::Rng;
use std::collections::{HashMap, VecDeque};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One kind of served job.
#[derive(Clone, Copy)]
pub struct Kind {
    pub job: Job,
    pub variant: &'static str,
    pub threads: usize,
}

/// The serve workload's tiny job: 90% of its mix.
pub const TINY: Kind = Kind {
    job: Job {
        kernel: "mandel",
        dim: 64,
        tile: 16,
        iterations: 1,
        schedule: Schedule::Static,
    },
    variant: "seq",
    threads: 1,
};

/// The serve workload's heavy job: 10% of its mix.
pub const HEAVY: Kind = Kind {
    job: Job {
        kernel: "blur",
        dim: 256,
        tile: 16,
        iterations: 2,
        schedule: Schedule::Static,
    },
    variant: "omp_tiled_opt",
    threads: 1,
};

const TENANTS: [&str; 2] = ["alpha", "beta"];

/// A job mix and how to drive the daemon with it.
#[derive(Clone)]
pub struct Plan {
    /// Job kinds; `kinds[1]` (if any) is drawn with probability `heavy_share`.
    pub kinds: Vec<Kind>,
    pub heavy_share: f64,
    pub daemon: ServeConfig,
    /// Daemon start-ups, in three rounds (see `run`); `setup_s` is their
    /// median.
    pub setups: usize,
    /// Jobs run on the load daemon before the load, the first of them
    /// as part of its set-up.
    pub warmup_jobs: usize,
    /// In-process reference runs of the mix (the `seq` path).
    pub seq: Duration,
    /// Closed loop: one persistent and one reconnecting client.
    pub closed: Duration,
    /// Open loop: one connection, a sender and a receiver thread.
    pub open: Duration,
    /// Open-loop arrival period (frozen offered rate).
    pub period: Duration,
}

impl Plan {
    /// The `serve` workload: `slots 2, workers 1`, 90% tiny, 10% heavy.
    pub fn serve(seconds: Duration) -> Plan {
        Plan {
            kinds: vec![TINY, HEAVY],
            heavy_share: 0.1,
            daemon: daemon_config(2, 1),
            setups: 21,
            warmup_jobs: 40,
            seq: seconds.mul_f64(0.1),
            closed: seconds.mul_f64(0.4),
            open: seconds.mul_f64(0.5),
            // about half the closed-loop rate measured when the
            // benchmark was defined (2-vCPU VM)
            period: Duration::from_micros(1_000_000 / OPEN_RATE_JOBS_S),
        }
    }

    fn pick(&self, rng: &mut Rng) -> usize {
        if self.kinds.len() > 1 && rng.gen_f64() < self.heavy_share {
            1
        } else {
            0
        }
    }
}

/// Frozen open-loop offered rate of the `serve` workload, jobs/s.
pub const OPEN_RATE_JOBS_S: u64 = 500;

/// A daemon with `slots` runners of `workers` threads and queues deep
/// enough that a scheduling hiccup on a shared machine queues jobs
/// instead of rejecting them.
pub fn daemon_config(slots: usize, workers: usize) -> ServeConfig {
    ServeConfig {
        port: 0,
        workers,
        slots,
        max_tenants: 8,
        queue_cap: 1024,
        tuning: ChanTuning::default(),
    }
}

fn spec(kind: &Kind, tenant: &str) -> JobSpec {
    JobSpec {
        kernel: kind.job.kernel.into(),
        variant: kind.variant.into(),
        size: kind.job.dim,
        tile: kind.job.tile,
        iterations: kind.job.iterations,
        threads: kind.threads,
        tenant: Some(tenant.into()),
        stall_us: 0,
    }
}

/// One loopback connection speaking length-prefixed JSON frames.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Wire {
    fn connect(addr: SocketAddr) -> std::io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // a lost terminal frame must fail the run, not hang it
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        let writer = stream.try_clone()?;
        Ok(Wire {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send(&mut self, req: &Request) -> Result<(), String> {
        write_frame(&mut self.writer, &req.to_json()).map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Response, String> {
        match read_frame(&mut self.reader).map_err(|e| format!("recv: {e}"))? {
            FrameIn::Msg(json) => {
                Response::from_json(&json).map_err(|e| format!("bad response: {e}"))
            }
            FrameIn::Eof => Err("daemon closed the connection".into()),
            FrameIn::Malformed(why) => Err(format!("malformed frame: {why}")),
        }
    }
}

/// A submission waiting for its answer.
#[derive(Clone, Copy)]
struct Pending {
    kind: usize,
    /// When the job was due (open loop) or sent (closed loop).
    due_ns: u64,
    sent_ns: u64,
}

/// How a job ended.
pub enum Outcome {
    Done {
        digest: String,
        elapsed_ns: u64,
        report: Json,
    },
    Failed(String),
    Rejected(String),
}

/// One job, start to end.
pub struct Completion {
    pub kind: usize,
    pub job_id: Option<u64>,
    pub due_ns: u64,
    pub sent_ns: u64,
    pub accepted_ns: Option<u64>,
    pub done_ns: u64,
    pub outcome: Outcome,
}

impl Completion {
    /// Round trip from when the job was due, ms; rejected and failed
    /// jobs count as +inf.
    pub fn rt_ms(&self) -> f64 {
        match self.outcome {
            Outcome::Done { .. } => (self.done_ns - self.due_ns) as f64 / 1e6,
            _ => f64::INFINITY,
        }
    }
}

/// Matches answer frames to submissions. `accepted`/`rejected` answer
/// submissions in order (the reader thread writes them synchronously);
/// `done`/`failed` carry the job id and may arrive before `accepted`.
#[derive(Default)]
struct Matcher {
    fifo: VecDeque<Pending>,
    accepted: HashMap<u64, (Pending, u64)>,
    early: HashMap<u64, (Response, u64)>,
    done_before_accepted: u64,
}

impl Matcher {
    fn on_frame(&mut self, resp: Response, now: u64) -> Result<Option<Completion>, String> {
        match resp {
            Response::Accepted { job_id, .. } => {
                let p = self
                    .fifo
                    .pop_front()
                    .ok_or("accepted without a submission")?;
                match self.early.remove(&job_id) {
                    Some((terminal, at)) => {
                        Ok(Some(complete(p, Some(job_id), Some(now), terminal, at)))
                    }
                    None => {
                        self.accepted.insert(job_id, (p, now));
                        Ok(None)
                    }
                }
            }
            Response::Rejected { reason, .. } => {
                let p = self
                    .fifo
                    .pop_front()
                    .ok_or("rejected without a submission")?;
                Ok(Some(complete(
                    p,
                    None,
                    None,
                    Response::Rejected {
                        reason,
                        retry_after_ms: 0,
                    },
                    now,
                )))
            }
            Response::Done { job_id, .. } | Response::Failed { job_id, .. } => {
                match self.accepted.remove(&job_id) {
                    Some((p, acc)) => Ok(Some(complete(p, Some(job_id), Some(acc), resp, now))),
                    None => {
                        self.done_before_accepted += 1;
                        self.early.insert(job_id, (resp, now));
                        Ok(None)
                    }
                }
            }
            Response::Error(e) => Err(format!("daemon error frame: {e}")),
            other => Err(format!("unexpected frame: {}", other.to_json().dump())),
        }
    }
}

fn complete(
    p: Pending,
    job_id: Option<u64>,
    accepted_ns: Option<u64>,
    resp: Response,
    done_ns: u64,
) -> Completion {
    let outcome = match resp {
        Response::Done {
            digest,
            elapsed_ns,
            report,
            ..
        } => Outcome::Done {
            digest,
            elapsed_ns,
            report,
        },
        Response::Failed { error, .. } => Outcome::Failed(error),
        Response::Rejected { reason, .. } => Outcome::Rejected(reason),
        other => Outcome::Failed(format!(
            "unexpected terminal frame {}",
            other.to_json().dump()
        )),
    };
    Completion {
        kind: p.kind,
        job_id,
        due_ns: p.due_ns,
        sent_ns: p.sent_ns,
        accepted_ns,
        done_ns,
        outcome,
    }
}

/// Sends one job on `wire` and waits for its terminal frame.
fn round_trip(
    wire: &mut Wire,
    m: &mut Matcher,
    kind: usize,
    spec: &JobSpec,
    due_ns: u64,
) -> Result<Completion, String> {
    let sent_ns = now_ns();
    m.fifo.push_back(Pending {
        kind,
        due_ns,
        sent_ns,
    });
    wire.send(&Request::Submit(spec.clone()))?;
    loop {
        let resp = wire.recv()?;
        if let Some(c) = m.on_frame(resp, now_ns())? {
            return Ok(c);
        }
    }
}

/// What the serve load observed.
pub struct ServeRaw {
    pub setups_s: Vec<f64>,
    /// In-process `run_kernel` times of the mix, ms.
    pub seq_ms: Vec<f64>,
    pub closed: Vec<Completion>,
    /// Start (on the `ezp_core::time` clock) and length of the closed loop.
    pub closed_start_ns: u64,
    pub closed_wall_s: f64,
    /// Connect times of the reconnecting client, ms.
    pub connect_ms: Vec<f64>,
    pub open: Vec<Completion>,
    /// How late the open-loop sender sent each job, ms.
    pub gen_lag_ms: Vec<f64>,
    pub done_before_accepted: u64,
    pub stats: Json,
    pub mux: MuxStats,
    pub fds_leaked: f64,
    pub kinds: Vec<Kind>,
}

/// A daemon's set-up: start it, connect, and run its first job cold.
/// Returns the connection and the daemon, still up.
fn start_daemon(plan: &Plan, refs: &[u64], dba: &mut u64, report: &mut Report) -> (Wire, Server) {
    let server = Server::start(plan.daemon.clone()).expect("start the serve daemon");
    let mut wire = Wire::connect(server.addr()).expect("connect to the daemon");
    let mut m = Matcher::default();
    let s = spec(&plan.kinds[0], TENANTS[0]);
    match round_trip(&mut wire, &mut m, 0, &s, now_ns()) {
        Ok(c) => report.check(check(&c, refs, "first job")),
        Err(e) => report.check(Some(format!("first job: {e}"))),
    }
    *dba += m.done_before_accepted;
    (wire, server)
}

/// Runs the rest of `plan.warmup_jobs` jobs through the load daemon,
/// untimed, every tenth one heavy. Returns the Done-before-Accepted
/// races seen.
fn warm_up(plan: &Plan, refs: &[u64], wire: &mut Wire, report: &mut Report) -> u64 {
    let mut m = Matcher::default();
    for i in 1..plan.warmup_jobs {
        let k = if plan.kinds.len() > 1 && i % 10 == 9 {
            1
        } else {
            0
        };
        let s = spec(&plan.kinds[k], TENANTS[i % 2]);
        match round_trip(wire, &mut m, k, &s, now_ns()) {
            Ok(c) => report.check(check(&c, refs, &format!("warm-up job {i}"))),
            Err(e) => report.check(Some(format!("warm-up job {i}: {e}"))),
        }
    }
    m.done_before_accepted
}

/// Timed daemon set-ups, and the races their first jobs saw.
#[derive(Default)]
struct SetUps {
    times_s: Vec<f64>,
    done_before_accepted: u64,
}

impl SetUps {
    /// Times `n` set-ups, each daemon shut down before the next starts;
    /// returns the last one, still up, with its connection.
    fn run(
        &mut self,
        plan: &Plan,
        refs: &[u64],
        n: usize,
        report: &mut Report,
    ) -> Option<(Wire, Server)> {
        let mut daemon = None;
        for _ in 0..n {
            drop(daemon.take());
            let t0 = Instant::now();
            daemon = Some(start_daemon(
                plan,
                refs,
                &mut self.done_before_accepted,
                report,
            ));
            self.times_s.push(t0.elapsed().as_secs_f64());
        }
        daemon
    }
}

/// The correctness check of one served job.
fn check(c: &Completion, refs: &[u64], what: &str) -> Option<String> {
    match &c.outcome {
        Outcome::Done { digest, .. } => match u64::from_str_radix(digest, 16) {
            Ok(d) => digest_error(what, d, refs[c.kind]),
            Err(_) => Some(format!("{what}: bad digest `{digest}`")),
        },
        Outcome::Failed(e) => Some(format!("{what}: failed: {e}")),
        Outcome::Rejected(r) => Some(format!("{what}: rejected: {r}")),
    }
}

pub fn run(plan: &Plan, seed: u64, tracer: Option<&Tracer>, report: &mut Report) -> ServeRaw {
    // the daemon leaks a descriptor per connection (README.md, "Known
    // defects"): fail early and clearly if the quota cannot fit
    let quota = (plan.closed.as_secs_f64() * RECONNECTS_PER_S).round() as usize;
    let need = crate::common::open_fds() + quota + FD_HEADROOM;
    if let Some(limit) = crate::common::open_files_limit().filter(|&l| l < need) {
        eprintln!(
            "easybench: the serve load needs about {need} open files, but the soft \
             RLIMIT_NOFILE is {limit}; run.py raises it to the hard limit, so raise \
             the hard limit (ulimit -Hn) to at least {need}"
        );
        std::process::exit(1);
    }
    // references: every served digest must equal an in-process run
    let reg = ezp_kernels::registry();
    let refs: Vec<u64> = plan
        .kinds
        .iter()
        .map(|k| run_job(&reg, &k.job, k.variant, k.threads, Arc::new(NullProbe)).digest)
        .collect();
    let mut rng = Rng::seed(seed);

    // set-up: start a daemon and run its first job, `plan.setups` times in
    // three rounds (before, between and after the loops), so that one
    // burst of machine noise cannot slow them all; the first round's last
    // daemon is warmed up and carries the load
    let rounds = setup_rounds(plan.setups);
    let mut setups = SetUps::default();
    let (mut wire, server) = setups
        .run(plan, &refs, rounds[0], report)
        .expect("at least one set-up");
    let mut done_before_accepted = warm_up(plan, &refs, &mut wire, report);
    drop(wire);
    let addr = server.addr();

    // the sequential path: the same jobs computed in-process
    let mut seq_ms = Vec::new();
    let seq_end = Instant::now() + plan.seq;
    while Instant::now() < seq_end || seq_ms.is_empty() {
        let k = plan.pick(&mut rng);
        let kind = &plan.kinds[k];
        let ran = run_job(
            &reg,
            &kind.job,
            kind.variant,
            kind.threads,
            Arc::new(NullProbe),
        );
        report.check(digest_error(
            "in-process reference run",
            ran.digest,
            refs[k],
        ));
        seq_ms.push(ran.elapsed_ms());
    }

    let fds_before = crate::common::open_fds();

    // closed loop: a persistent and a reconnecting client, until the
    // reconnecting one has made its quota of connections (a fixed count,
    // so the leaked descriptors and threads are the same every run)
    let cap = Instant::now() + plan.closed * 3;
    let stop = AtomicBool::new(false);
    let t_closed = Instant::now();
    let closed_start_ns = now_ns();
    let seeds = [rng.next_u64(), rng.next_u64()];
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                let client = Closed {
                    reconnect: c == 1,
                    seed: seeds[c],
                    quota,
                    cap,
                    stop: &stop,
                };
                s.spawn(move || closed_client(plan, addr, client, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client"))
            .collect()
    });
    let closed_wall_s = t_closed.elapsed().as_secs_f64();
    let mut closed = Vec::new();
    let mut connect_ms = Vec::new();
    for r in results {
        let (cs, conns, dba, errs) = r;
        closed.extend(cs);
        connect_ms.extend(conns);
        done_before_accepted += dba;
        for e in errs {
            report.check(Some(e));
        }
    }
    for (i, c) in closed.iter().enumerate() {
        report.check(check(c, &refs, &format!("closed-loop job {i}")));
    }

    drop(setups.run(plan, &refs, rounds[1], report));

    // open loop: one connection, a sender and a receiver thread
    let (open, gen_lag_ms, dba, errs) = open_loop(plan, addr, rng.next_u64(), tracer);
    done_before_accepted += dba;
    for e in errs {
        report.check(Some(e));
    }
    for (i, c) in open.iter().enumerate() {
        report.check(check(c, &refs, &format!("open-loop job {i}")));
    }

    let stats = {
        let mut wire = Wire::connect(addr).expect("connect for stats");
        wire.send(&Request::Stats).expect("ask for stats");
        match wire.recv() {
            Ok(Response::Stats(j)) => j,
            other => {
                report.check(Some(format!(
                    "stats request: {}",
                    other.map(|r| r.to_json().dump()).unwrap_or_else(|e| e)
                )));
                Json::Null
            }
        }
    };
    let fds_leaked = crate::common::open_fds() as f64 - fds_before as f64;
    let summary = server.shutdown();
    drop(setups.run(plan, &refs, rounds[2], report));
    ServeRaw {
        setups_s: setups.times_s,
        seq_ms,
        closed,
        closed_start_ns,
        closed_wall_s,
        connect_ms,
        open,
        gen_lag_ms,
        done_before_accepted: done_before_accepted + setups.done_before_accepted,
        stats,
        mux: summary.mux,
        fds_leaked,
        kinds: plan.kinds.clone(),
    }
}

type ClientResult = (Vec<Completion>, Vec<f64>, u64, Vec<String>);

/// Connections per second of the closed-loop budget the reconnecting
/// client makes (4000 at `--seconds 25`).
const RECONNECTS_PER_S: f64 = 400.0;

/// Descriptors beyond the reconnect quota a serve run may hold: the
/// daemon's listener and runners, the clients' own connections.
const FD_HEADROOM: usize = 256;

/// One closed-loop client's part.
struct Closed<'a> {
    /// Open a new connection for every job, the way `easypap submit` does.
    reconnect: bool,
    seed: u64,
    /// Jobs the reconnecting client runs; the persistent one runs until
    /// `stop`.
    quota: usize,
    /// Safety deadline for both.
    cap: Instant,
    stop: &'a AtomicBool,
}

/// One closed-loop client: submit, wait for the terminal frame, repeat.
fn closed_client(
    plan: &Plan,
    addr: SocketAddr,
    client: Closed,
    tracer: Option<&Tracer>,
) -> ClientResult {
    let reconnect = client.reconnect;
    let mut rng = Rng::seed(client.seed);
    let tenant = TENANTS[reconnect as usize];
    let lane = LANE_CLIENT + reconnect as usize;
    let (mut out, mut connects, mut errors) = (Vec::new(), Vec::new(), Vec::new());
    let mut m = Matcher::default();
    let mut wire: Option<Wire> = None;
    let mut dba = 0;
    let more = |jobs: usize| {
        Instant::now() < client.cap
            && if reconnect {
                jobs < client.quota
            } else {
                !client.stop.load(Ordering::Acquire)
            }
    };
    while more(out.len()) {
        let k = plan.pick(&mut rng);
        let s = spec(&plan.kinds[k], tenant);
        let t0 = now_ns();
        if wire.is_none() {
            match Wire::connect(addr) {
                Ok(w) => wire = Some(w),
                Err(e) => {
                    errors.push(format!("connect: {e}"));
                    break;
                }
            }
            let t1 = now_ns();
            connects.push((t1 - t0) as f64 / 1e6);
            if let Some(t) = tracer {
                t.record("serve.connect", lane, 0, t0, t1);
            }
        }
        match round_trip(wire.as_mut().expect("connected above"), &mut m, k, &s, t0) {
            Ok(c) => {
                if let Some(t) = tracer {
                    record_job(t, lane, &c);
                }
                out.push(c);
            }
            Err(e) => {
                errors.push(e);
                break;
            }
        }
        if reconnect {
            dba += m.done_before_accepted;
            m = Matcher::default();
            wire = None;
        }
    }
    if reconnect {
        client.stop.store(true, Ordering::Release);
    }
    (out, connects, dba + m.done_before_accepted, errors)
}

/// Records the spans of one job: submit → accepted → done.
fn record_job(t: &Tracer, lane: usize, c: &Completion) {
    let id = c.job_id.unwrap_or(u64::MAX);
    t.record("serve.job", lane, id, c.due_ns, c.done_ns);
    if let Some(acc) = c.accepted_ns {
        let (a, b) = (acc.min(c.done_ns), acc.max(c.done_ns));
        t.record("serve.accept", lane, id, c.sent_ns, a);
        t.record("serve.after_accept", lane, id, a, b);
    }
}

/// The open loop: jobs due every `plan.period`, sent by one thread and
/// answered to another, both on one connection carrying both tenants.
fn open_loop(
    plan: &Plan,
    addr: SocketAddr,
    seed: u64,
    tracer: Option<&Tracer>,
) -> (Vec<Completion>, Vec<f64>, u64, Vec<String>) {
    let mut wire = match Wire::connect(addr) {
        Ok(w) => w,
        Err(e) => {
            return (
                Vec::new(),
                Vec::new(),
                0,
                vec![format!("open-loop connect: {e}")],
            )
        }
    };
    let mut writer = wire.writer.try_clone().expect("clone the open-loop socket");
    let matcher = Mutex::new(Matcher::default());
    let sent = AtomicUsize::new(0);
    let mut rng = Rng::seed(seed);
    let specs: Vec<Vec<JobSpec>> = plan
        .kinds
        .iter()
        .map(|k| TENANTS.iter().map(|t| spec(k, t)).collect())
        .collect();
    let t0 = Instant::now() + Duration::from_millis(1);
    let t0_ns = now_ns() + 1_000_000;
    let end = t0 + plan.open;
    std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut out = Vec::new();
            let mut errors = Vec::new();
            // the sender ends with a `stats` request; its answer marks
            // the end of the answers to submissions
            let mut sentinel = false;
            while !(sentinel && out.len() >= sent.load(Ordering::Acquire)) {
                let resp = match wire.recv() {
                    Ok(Response::Stats(_)) => {
                        sentinel = true;
                        continue;
                    }
                    Ok(r) => r,
                    Err(e) => {
                        errors.push(format!("open loop: {e}"));
                        break;
                    }
                };
                let now = now_ns();
                match matcher
                    .lock()
                    .expect("no load-generator thread panicked")
                    .on_frame(resp, now)
                {
                    Ok(Some(c)) => {
                        if let Some(t) = tracer {
                            record_job(t, LANE_RECEIVER, &c);
                        }
                        out.push(c);
                    }
                    Ok(None) => {}
                    Err(e) => {
                        errors.push(e);
                        break;
                    }
                }
            }
            (out, errors)
        });
        let mut lags = Vec::new();
        let mut send_error = None;
        for i in 0u32.. {
            let due = t0 + plan.period * i;
            if due >= end {
                break;
            }
            sleep_until(due);
            let k = plan.pick(&mut rng);
            let due_ns = t0_ns + (plan.period * i).as_nanos() as u64;
            let sent_ns = now_ns();
            lags.push(sent_ns.saturating_sub(due_ns) as f64 / 1e6);
            matcher
                .lock()
                .expect("no load-generator thread panicked")
                .fifo
                .push_back(Pending {
                    kind: k,
                    due_ns,
                    sent_ns,
                });
            sent.fetch_add(1, Ordering::Release);
            let req = Request::Submit(specs[k][i as usize % 2].clone());
            if let Err(e) = write_frame(&mut writer, &req.to_json()) {
                send_error = Some(format!("open-loop send: {e}"));
                break;
            }
            if let Some(t) = tracer {
                t.record("serve.send", LANE_SENDER, i as u64, sent_ns, now_ns());
            }
        }
        if send_error.is_none() {
            if let Err(e) = write_frame(&mut writer, &Request::Stats.to_json()) {
                send_error = Some(format!("open-loop send: {e}"));
            }
        }
        let (out, mut errors) = receiver.join().expect("open-loop receiver");
        errors.extend(send_error);
        let dba = matcher
            .lock()
            .expect("no load-generator thread panicked")
            .done_before_accepted;
        if out.len() < sent.load(Ordering::Acquire) {
            errors.push(format!(
                "open loop: {} of {} jobs unanswered",
                sent.load(Ordering::Acquire) - out.len(),
                out.len()
            ));
        }
        (out, lags, dba, errors)
    })
}

/// Kernel iterations completed per second in each whole
/// `FRAME_WINDOW` of the closed loop.
fn window_frames_s(raw: &ServeRaw) -> Vec<f64> {
    let window_ns = FRAME_WINDOW.as_nanos() as u64;
    let windows = (raw.closed_wall_s / FRAME_WINDOW.as_secs_f64()) as usize;
    let mut frames = vec![0u32; windows];
    for c in &raw.closed {
        let w = (c.done_ns.saturating_sub(raw.closed_start_ns) / window_ns) as usize;
        if let Some(f) = frames.get_mut(w) {
            *f += raw.kinds[c.kind].job.iterations;
        }
    }
    frames
        .iter()
        .map(|&f| f as f64 / FRAME_WINDOW.as_secs_f64())
        .collect()
}

/// Window of the closed loop's throughput samples (`frames_s`).
const FRAME_WINDOW: Duration = Duration::from_millis(500);

pub fn end_to_end(opts: &crate::Opts) -> Report {
    let mut report = Report::default();
    let raw = run(&Plan::serve(opts.seconds), opts.seed, None, &mut report);
    let closed_rt: Vec<f64> = raw.closed.iter().map(Completion::rt_ms).collect();
    let open_rt: Vec<f64> = raw.open.iter().map(Completion::rt_ms).collect();
    report.metric("setup_s", median(&raw.setups_s), "s");
    report.metric("seq_ms", median(&raw.seq_ms), "ms");
    report.metric("seq_ms_p10", quantile(&raw.seq_ms, 0.1), "ms");
    report.metric("par_ms", median(&closed_rt), "ms");
    report.metric("par_ms_p10", quantile(&closed_rt, 0.1), "ms");
    report.metric("par_ms_p90", quantile(&closed_rt, 0.9), "ms");
    report.metric(
        "jobs_s",
        raw.closed.len() as f64 / raw.closed_wall_s,
        "jobs/s",
    );
    report.metric("rt_ms_p50", median(&open_rt), "ms");
    report.metric("rt_ms_p99", quantile(&open_rt, 0.99), "ms");
    report.metric(
        "frames_s",
        quantile(&window_frames_s(&raw), 0.9),
        "frames/s",
    );
    report.notes.push(format!(
        "samples: {} in-process runs, {} closed-loop jobs ({} connections by the reconnecting client), {} open-loop jobs",
        raw.seq_ms.len(),
        raw.closed.len(),
        raw.connect_ms.len(),
        raw.open.len()
    ));
    report.notes.push(format!(
        "serve: {} done before accepted, {} fds leaked",
        raw.done_before_accepted, raw.fds_leaked
    ));
    report
}
