//! The session workloads: one closed-loop client on one loopback TCP
//! connection to an in-process `Server` with one worker.
//!
//! * `session-saturate-ecdf` — anonymous `CU-UDP-ECDF` m=8 sessions,
//!   each fed 400 constrained-deadline arrivals generated at `UB ≈ 1.4`,
//!   so about half the admits are rejects that probe all processors.
//! * `session-churn-amc` — named, journaled `CU-UDP-AMC` m=8 sessions:
//!   admits (with `op_id`) until the first reject, then a churn of
//!   admits, removes of a random committed task and probing queries near
//!   saturation, then a drain that removes what is left.
//!
//! The client sends a request only after the previous reply arrived.
//! Its next operation depends only on the script and the verdicts, so a
//! correct server always sees the same request lines for a seed.

use crate::stats::{fnv1a, Samples};
use crate::trace::Recorder;
use mcsched_analysis::{AdmissionStats, AmcMax, AmcRtb, Ecdf, EdfVd, Ey, OneShot};
use mcsched_core::{AlgorithmRegistry, ClusterSession, TestName};
use mcsched_exp::journal::{Journal, JournalStats};
use mcsched_exp::protocol::{parse_envelope, parse_reply, Envelope, Reply, Request, RequestId};
use mcsched_exp::server::{
    serve_connection_outcome, AdmissionTier, Server, ServerConfig, ServerHandle,
};
use mcsched_gen::{DeadlineModel, GridPoint, TaskSetSpec};
use mcsched_model::{Task, TaskId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cell::RefCell;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::rc::Rc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Processors per session.
pub const M: usize = 8;

/// Arrivals per generated task set.
const ARRIVALS: usize = 400;

/// Probe tasks use ids from here up, never committed.
const PROBE_ID_BASE: u32 = 1_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    SaturateEcdf,
    ChurnAmc,
}

impl Kind {
    pub fn algorithm(self) -> &'static str {
        match self {
            Kind::SaturateEcdf => "CU-UDP-ECDF",
            Kind::ChurnAmc => "CU-UDP-AMC",
        }
    }

    pub fn journaled(self) -> bool {
        self == Kind::ChurnAmc
    }

    /// Generated task sets concatenated into one session's arrivals.
    fn pools(self) -> usize {
        match self {
            Kind::SaturateEcdf => 1,
            Kind::ChurnAmc => 3,
        }
    }

    fn stream(self) -> u64 {
        match self {
            Kind::SaturateEcdf => 1,
            Kind::ChurnAmc => 2,
        }
    }
}

/// One session's inputs: arrivals in order, probe tasks, and the seed of
/// the client's operation choices.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    pub tasks: Vec<Task>,
    pub probes: Vec<Task>,
    pub choice_seed: u64,
}

/// The `gen` layer's work while building scripts.
#[derive(Debug, Default, Clone, Copy)]
pub struct GenStats {
    pub calls: u64,
    pub ok: u64,
    pub busy: Duration,
}

/// The task-set spec every session draws from: m = 8, `UB = 1.4`,
/// constrained deadlines, 400 tasks.
fn arrival_spec() -> TaskSetSpec {
    let point = GridPoint {
        u_hh: 1.4,
        u_hl: 0.7,
        u_ll: 0.7,
    };
    let mut spec = TaskSetSpec::paper_defaults(M, point, DeadlineModel::Constrained);
    spec.n_min = ARRIVALS;
    spec.n_max = ARRIVALS;
    spec
}

fn generate(spec: &TaskSetSpec, rng: &mut StdRng, gen: &mut GenStats) -> Vec<Task> {
    loop {
        gen.calls += 1;
        let t0 = Instant::now();
        let result = spec.generate(rng);
        gen.busy += t0.elapsed();
        if let Ok(ts) = result {
            gen.ok += 1;
            return ts.iter().copied().collect();
        }
    }
}

fn with_id(t: &Task, id: u32) -> Task {
    Task::builder(id)
        .period(t.period().as_ticks())
        .criticality(t.criticality())
        .wcet_lo(t.wcet_lo().as_ticks())
        .wcet_hi(t.wcet_hi().as_ticks())
        .deadline(t.deadline().as_ticks())
        .try_build()
        .expect("re-identifying a valid task keeps it valid")
}

/// `count` scripts for `kind` under `seed` (deterministic).
pub fn make_scripts(kind: Kind, seed: u64, count: usize) -> (Vec<Script>, GenStats) {
    let spec = arrival_spec();
    let mut gen = GenStats::default();
    let scripts = (0..count)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(kind.stream() << 32)
                    .wrapping_add(i as u64),
            );
            let mut tasks = Vec::with_capacity(ARRIVALS * kind.pools());
            for _ in 0..kind.pools() {
                tasks.extend(generate(&spec, &mut rng, &mut gen));
            }
            // Arrivals in random order (the generator emits HC tasks
            // first), re-identified 0.. in arrival order.
            for k in (1..tasks.len()).rev() {
                tasks.swap(k, rng.random_range(0..=k));
            }
            let tasks = tasks
                .iter()
                .enumerate()
                .map(|(k, t)| with_id(t, k as u32))
                .collect();
            let probes = match kind {
                Kind::SaturateEcdf => Vec::new(),
                Kind::ChurnAmc => generate(&spec, &mut rng, &mut gen)
                    .iter()
                    .enumerate()
                    .map(|(k, t)| with_id(t, PROBE_ID_BASE + k as u32))
                    .collect(),
            };
            Script {
                tasks,
                probes,
                choice_seed: rng.random_range(0..u64::MAX),
            }
        })
        .collect();
    (scripts, gen)
}

// ------------------------------------------------------------ verdicts

/// One reply reduced to its verdict and processor: an admit on
/// processor k is `'0'+k`, a reject `'-'`; a remove from k is `'a'+k`,
/// a failed remove `'x'`; a probe that fits on k is `'A'+k`, one that
/// fits nowhere `'!'`; `'o'` opens a session; anything else (errors,
/// sheds) is `'?'`.
pub fn reply_code(reply: &Reply) -> u8 {
    match reply {
        Reply::Session(_) => b'o',
        Reply::Admit(a) if a.admitted => at(b'0', a.processor),
        Reply::Admit(_) => b'-',
        Reply::Remove(r) if r.removed => at(b'a', r.processor),
        Reply::Remove(_) => b'x',
        Reply::Query(q) => match &q.probe {
            Some(p) if p.fits => at(b'A', p.processor),
            Some(_) => b'!',
            None => b'q',
        },
        _ => b'?',
    }
}

/// `base + k` for processor `k` (`'?'` past the 26 letters a code has).
fn at(base: u8, k: Option<usize>) -> u8 {
    match k.and_then(|k| u8::try_from(k).ok()) {
        Some(k) if k < 26 => base + k,
        _ => b'?',
    }
}

fn is_accept(code: u8) -> bool {
    code.is_ascii_digit()
}

// ------------------------------------------------------------ the client

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Open,
    Fill,
    Churn,
    Drain,
    Done,
}

/// The closed-loop client's decision logic for one session: it plays
/// a script, choosing each request from the script and the verdicts so
/// far.
pub struct Player<'a> {
    kind: Kind,
    slot: usize,
    script: &'a Script,
    name: Option<String>,
    op_prefix: String,
    rng: StdRng,
    phase: Phase,
    next_task: usize,
    next_probe: usize,
    ops: u64,
    committed: Vec<u32>,
    last_admit: Option<u32>,
}

impl<'a> Player<'a> {
    /// The client of script `slot`, on its `iteration`-th use in the
    /// run (which keeps its `op_id`s unique).
    pub fn new(kind: Kind, script: &'a Script, slot: usize, iteration: u64) -> Self {
        Player {
            kind,
            slot,
            script,
            name: kind.journaled().then(|| format!("s{slot}")),
            op_prefix: format!("i{iteration}-"),
            rng: StdRng::seed_from_u64(script.choice_seed),
            phase: Phase::Open,
            next_task: 0,
            next_probe: 0,
            ops: 0,
            committed: Vec::new(),
            last_admit: None,
        }
    }

    fn op_id(&mut self) -> Option<String> {
        self.ops += 1;
        self.kind
            .journaled()
            .then(|| format!("{}{}", self.op_prefix, self.ops))
    }

    fn admit(&mut self) -> Option<Request> {
        let task = *self.script.tasks.get(self.next_task)?;
        self.next_task += 1;
        self.last_admit = Some(task.id().0);
        let op_id = self.op_id();
        Some(Request::Admit { task, op_id })
    }

    fn remove(&mut self, pick: usize) -> Request {
        let id = self.committed.swap_remove(pick);
        let op_id = self.op_id();
        Request::Remove {
            task_id: TaskId(id),
            op_id,
        }
    }

    /// The next request, or `None` when the session is over.
    fn next_request(&mut self) -> Option<Request> {
        self.last_admit = None;
        loop {
            match self.phase {
                Phase::Open => {
                    self.phase = Phase::Fill;
                    return Some(Request::OpenSession {
                        algorithm: self.kind.algorithm().to_owned(),
                        m: M,
                        session: self.name.clone(),
                    });
                }
                Phase::Fill => match self.admit() {
                    Some(r) => return Some(r),
                    // Saturation sessions end after their arrivals.
                    None if self.kind == Kind::SaturateEcdf => self.phase = Phase::Done,
                    None => self.phase = Phase::Drain,
                },
                Phase::Churn => {
                    let roll = self.rng.random_range(0..100u32);
                    if roll < 25 && !self.committed.is_empty() {
                        let pick = self.rng.random_range(0..self.committed.len());
                        return Some(self.remove(pick));
                    }
                    if roll >= 75 && !self.script.probes.is_empty() {
                        let probe = self.script.probes[self.next_probe % self.script.probes.len()];
                        self.next_probe += 1;
                        return Some(Request::Query { probe: Some(probe) });
                    }
                    match self.admit() {
                        Some(r) => return Some(r),
                        None => self.phase = Phase::Drain,
                    }
                }
                Phase::Drain => match self.committed.len() {
                    0 => self.phase = Phase::Done,
                    n => return Some(self.remove(n - 1)),
                },
                Phase::Done => return None,
            }
        }
    }

    /// Feeds the verdict of the request [`Player::next_request`] returned.
    fn observe(&mut self, code: u8) {
        if let Some(id) = self.last_admit {
            if is_accept(code) {
                self.committed.push(id);
            } else if self.kind == Kind::ChurnAmc && self.phase == Phase::Fill {
                // The first reject: the session is saturated.
                self.phase = Phase::Churn;
            }
        }
    }
}

// ------------------------------------------------------------ server

/// The in-process server, on its own thread.
pub struct Service {
    handle: ServerHandle,
    thread: Option<JoinHandle<io::Result<mcsched_exp::server::ServerStats>>>,
}

/// One exact worker, no degraded pool; `journal` is used by the
/// journaled workload only.
pub fn server_config(kind: Kind, journal: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 1,
        degraded_workers: 0,
        queue_depth: 4,
        max_requests: u64::MAX,
        journal: kind.journaled().then(|| journal.to_owned()),
        ..ServerConfig::default()
    }
}

impl Service {
    pub fn start(kind: Kind, journal: &Path) -> io::Result<Service> {
        let config = server_config(kind, journal);
        let server = Server::bind(AlgorithmRegistry::standard(), config)?;
        let handle = server.handle();
        let thread = std::thread::Builder::new()
            .name("bench-server".to_owned())
            .spawn(move || server.run())?;
        Ok(Service {
            handle,
            thread: Some(thread),
        })
    }

    pub fn connect(&self) -> io::Result<Client> {
        let stream = TcpStream::connect(self.handle.addr())?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Client {
            stream,
            pending: Vec::new(),
        })
    }

    /// Stops the server and waits for its threads.
    pub fn stop(mut self) -> io::Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> io::Result<()> {
        self.handle.shutdown();
        match self.thread.take() {
            Some(t) => match t.join() {
                Ok(r) => r.map(|_| ()),
                Err(_) => Err(io::Error::other("server thread panicked")),
            },
            None => Ok(()),
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// One loopback connection.
pub struct Client {
    stream: TcpStream,
    /// Bytes read past the last reply's newline.
    pending: Vec<u8>,
}

/// A reply that has not arrived after this long is an I/O failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

impl Client {
    /// Sends one line and waits for its reply: the closed loop. The
    /// socket is non-blocking and the client polls, yielding between
    /// polls, instead of sleeping in `read`. Its core then never idles,
    /// so a round trip does not include waking the client's core, a cost
    /// that varies widely on virtual machines.
    pub fn call(&mut self, line: &str) -> io::Result<(String, Instant, Instant)> {
        let t0 = Instant::now();
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        let mut sent = 0;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let t1 = Instant::now();
                let rest = self.pending.split_off(pos + 1);
                let mut reply = std::mem::replace(&mut self.pending, rest);
                reply.pop();
                let reply = String::from_utf8(reply).map_err(io::Error::other)?;
                return Ok((reply, t0, t1));
            }
            let progress = if sent < frame.len() {
                self.stream.write(&frame[sent..]).map(|n| sent += n)
            } else {
                match self.stream.read(&mut chunk) {
                    Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                    Ok(n) => {
                        self.pending.extend_from_slice(&chunk[..n]);
                        Ok(())
                    }
                    Err(e) => Err(e),
                }
            };
            match progress {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if t0.elapsed() > REPLY_TIMEOUT {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                    std::thread::yield_now();
                }
                Err(e) => return Err(e),
            }
        }
    }
}

// ------------------------------------------------------------ runs

/// One request as sent and answered.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub request: Request,
    pub line: String,
    pub reply: String,
    pub code: u8,
}

/// Width of the throughput windows.
const WINDOW: Duration = Duration::from_millis(100);

/// The latency samples of a run, by request class, plus completions
/// per [`WINDOW`] since the run started.
#[derive(Debug, Clone)]
pub struct Latencies {
    pub all: Samples,
    pub accept: Samples,
    pub reject: Samples,
    pub remove: Samples,
    pub query: Samples,
    start: Instant,
    windows: Vec<u32>,
}

impl Latencies {
    pub fn new(start: Instant) -> Self {
        Latencies {
            all: Samples::default(),
            accept: Samples::default(),
            reject: Samples::default(),
            remove: Samples::default(),
            query: Samples::default(),
            start,
            windows: Vec::new(),
        }
    }

    fn push(&mut self, request: &Request, code: u8, t0: Instant, t1: Instant) {
        let d = t1 - t0;
        self.all.push(d);
        match request {
            Request::Admit { .. } if is_accept(code) => self.accept.push(d),
            Request::Admit { .. } => self.reject.push(d),
            Request::Remove { .. } => self.remove.push(d),
            Request::Query { .. } => self.query.push(d),
            _ => {}
        }
        let w = (t1.saturating_duration_since(self.start).as_nanos() / WINDOW.as_nanos()) as usize;
        if self.windows.len() <= w {
            self.windows.resize(w + 1, 0);
        }
        self.windows[w] += 1;
    }

    /// Requests answered per second: the median over the run's full
    /// windows (the last, partial one is dropped), so a stall of the
    /// machine in a few windows does not move it. Falls back to the
    /// plain rate when the run is shorter than two windows.
    pub fn rate(&self, wall: Duration) -> f64 {
        let full = &self.windows[..self.windows.len().saturating_sub(1)];
        if full.len() < 2 {
            return self.all.len() as f64 / wall.as_secs_f64();
        }
        let per_window: Vec<f64> = full.iter().map(|&c| f64::from(c)).collect();
        crate::stats::median(&per_window) / WINDOW.as_secs_f64()
    }

    pub fn windows(&self) -> usize {
        self.windows.len().saturating_sub(1)
    }
}

/// One session as the client ran it.
#[derive(Debug, Clone)]
pub struct SessionRun {
    pub slot: usize,
    pub codes: Vec<u8>,
    /// Kept for the first use of each script only.
    pub exchanges: Option<Vec<Exchange>>,
    /// Requests that failed on the wire (the session stops there).
    pub io_failures: u64,
}

/// Runs one session over `client`. With `rec`, records one span per
/// round trip.
pub fn run_session(
    client: &mut Client,
    mut player: Player<'_>,
    keep: bool,
    lat: &mut Latencies,
    mut rec: Option<&mut Recorder>,
) -> SessionRun {
    let mut run = SessionRun {
        slot: player.slot,
        codes: Vec::new(),
        exchanges: keep.then(Vec::new),
        io_failures: 0,
    };
    while let Some(request) = player.next_request() {
        let req_no = lat.all.len() as u64;
        let line = Envelope::with_id(RequestId::Num(req_no), request.clone()).render();
        let (reply, t0, t1) = match client.call(&line) {
            Ok(x) => x,
            Err(_) => {
                run.io_failures += 1;
                break;
            }
        };
        let code = parse_reply(&reply).map_or(b'?', |(_, r)| reply_code(&r));
        lat.push(&request, code, t0, t1);
        if let Some(rec) = rec.as_deref_mut() {
            rec.record("netframe.round_trip", None, req_no, t0, t1);
        }
        player.observe(code);
        run.codes.push(code);
        if let Some(ex) = run.exchanges.as_mut() {
            ex.push(Exchange {
                request,
                line,
                reply,
                code,
            });
        }
    }
    run
}

/// The exact clone-and-retest cluster for the kind's algorithm: the
/// reference every verdict is held against.
pub fn oracle_cluster(kind: Kind) -> ClusterSession {
    let spec = AlgorithmRegistry::standard()
        .spec(kind.algorithm())
        .expect("workload algorithms are registered");
    let name = spec.name();
    let strategy = spec.strategy.clone();
    match spec.test {
        TestName::EdfVd => ClusterSession::with_test(name, strategy, &OneShot(EdfVd::new()), M),
        TestName::Ey => ClusterSession::with_test(name, strategy, &OneShot(Ey::new()), M),
        TestName::Ecdf => ClusterSession::with_test(name, strategy, &OneShot(Ecdf::new()), M),
        TestName::AmcRtb => ClusterSession::with_test(name, strategy, &OneShot(AmcRtb::new()), M),
        TestName::AmcMax => ClusterSession::with_test(name, strategy, &OneShot(AmcMax::new()), M),
    }
}

/// Applies one request to an in-process cluster and returns its code.
fn apply(cluster: &mut ClusterSession, request: &Request) -> u8 {
    match request {
        Request::OpenSession { .. } => b'o',
        Request::Admit { task, .. } => cluster.admit(*task).map_or(b'-', |k| at(b'0', Some(k))),
        Request::Remove { task_id, .. } => {
            cluster.remove(*task_id).map_or(b'x', |k| at(b'a', Some(k)))
        }
        Request::Query { probe: Some(t) } => cluster.probe(t).map_or(b'!', |k| at(b'A', Some(k))),
        Request::Query { probe: None } => b'q',
        _ => b'?',
    }
}

/// The reference codes of a session: the oracle replays the client's
/// script, closed loop, with its own verdicts.
pub fn oracle_codes(kind: Kind, script: &Script, slot: usize) -> Vec<u8> {
    let mut player = Player::new(kind, script, slot, 0);
    let mut cluster = oracle_cluster(kind);
    let mut codes = Vec::new();
    while let Some(request) = player.next_request() {
        if matches!(request, Request::OpenSession { .. }) {
            cluster = oracle_cluster(kind);
        }
        let code = apply(&mut cluster, &request);
        player.observe(code);
        codes.push(code);
    }
    codes
}

/// Positions where `found` differs from `expected` (a length difference
/// counts each missing or extra reply).
pub fn code_mismatches(found: &[u8], expected: &[u8]) -> u64 {
    let diff = found.iter().zip(expected).filter(|(a, b)| a != b).count();
    (diff + found.len().abs_diff(expected.len())) as u64
}

/// The golden file's text: one line of codes per script slot.
pub fn golden_text(kind: Kind, seed: u64, codes: &[Vec<u8>]) -> String {
    let mut out = format!(
        "# {} verdict codes per script: seed {seed}, m = {M}\n",
        kind.algorithm()
    );
    for (slot, c) in codes.iter().enumerate() {
        out.push_str(&format!(
            "{slot} {:016x} {}\n",
            fnv1a(c),
            String::from_utf8_lossy(c)
        ));
    }
    out
}

/// Parses [`golden_text`] back into per-slot codes.
pub fn parse_golden(text: &str) -> Vec<Vec<u8>> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| l.split_whitespace().nth(2).map(|c| c.as_bytes().to_vec()))
        .collect()
}

// ------------------------------------------------------------ per-layer replays

/// Per-request layer timings of one replayed cycle, indexed like the
/// exchanges they replay.
#[derive(Debug, Default)]
pub struct LayerReplay {
    pub cluster_ns: Vec<u64>,
    pub parse_ns: Vec<u64>,
    pub render_ns: Vec<u64>,
    pub server_ns: Vec<u64>,
    pub journal_ns: Vec<u64>,
    pub cluster_accept: Samples,
    pub cluster_reject: Samples,
    pub cluster_remove: Samples,
    pub cluster_probe: Samples,
    pub admit_calls: u64,
    pub processors_tried: u64,
    pub analysis: AdmissionStats,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub journal: JournalStats,
    pub journal_bytes: u64,
    pub journal_append: Samples,
    /// Replies or verdicts of a replay that differ from the TCP run's.
    pub mismatches: u64,
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// `core.cluster`: the exchanges' operations on production sessions.
pub fn replay_cluster(kind: Kind, ex: &[Exchange], out: &mut LayerReplay, rec: &mut Recorder) {
    let registry = AlgorithmRegistry::standard();
    let open = || {
        registry
            .open_session(kind.algorithm(), M)
            .expect("workload algorithms are registered")
    };
    let mut cluster = open();
    for (i, e) in ex.iter().enumerate() {
        let name = match &e.request {
            Request::OpenSession { .. } => {
                out.analysis.merge(&cluster.stats());
                cluster = open();
                out.cluster_ns.push(0);
                continue;
            }
            Request::Admit { .. } => "core.cluster.admit",
            Request::Remove { .. } => "core.cluster.remove",
            _ => "core.cluster.probe",
        };
        let before = cluster.stats().attempts;
        let t0 = Instant::now();
        let code = apply(&mut cluster, &e.request);
        let t1 = Instant::now();
        rec.record(name, None, i as u64, t0, t1);
        let d = t1 - t0;
        out.cluster_ns.push(ns(d));
        match &e.request {
            Request::Admit { .. } => {
                out.admit_calls += 1;
                out.processors_tried += cluster.stats().attempts - before;
                if is_accept(code) {
                    out.cluster_accept.push(d);
                } else {
                    out.cluster_reject.push(d);
                }
            }
            Request::Remove { .. } => out.cluster_remove.push(d),
            _ => out.cluster_probe.push(d),
        }
        if code != e.code {
            out.mismatches += 1;
        }
    }
    out.analysis.merge(&cluster.stats());
}

/// `exp.protocol`: parse every request line, render every reply.
pub fn replay_protocol(ex: &[Exchange], out: &mut LayerReplay, rec: &mut Recorder) {
    for (i, e) in ex.iter().enumerate() {
        let req = i as u64;
        let t0 = Instant::now();
        let parsed = parse_envelope(&e.line);
        let t1 = Instant::now();
        rec.record("exp.protocol.parse_envelope", None, req, t0, t1);
        out.parse_ns.push(ns(t1 - t0));
        if parsed.map(|env| env.request) != Ok(e.request.clone()) {
            out.mismatches += 1;
        }
        let Ok((id, reply)) = parse_reply(&e.reply) else {
            out.mismatches += 1;
            out.render_ns.push(0);
            continue;
        };
        let t2 = Instant::now();
        let rendered = reply.render(id.as_ref());
        let t3 = Instant::now();
        rec.record("exp.protocol.render", None, req, t2, t3);
        out.render_ns.push(ns(t3 - t2));
        if rendered != e.reply {
            out.mismatches += 1;
        }
        out.bytes_in += e.line.len() as u64 + 1;
        out.bytes_out += e.reply.len() as u64 + 1;
    }
}

/// Per request: when its line was handed to the server, and when the
/// reply was flushed.
type Clock = Rc<RefCell<Vec<(Instant, Option<Instant>)>>>;

/// Hands the server one request line per `read`, stamping when each
/// line was handed over.
struct LineFeed {
    lines: Vec<Vec<u8>>,
    next: usize,
    clock: Clock,
}

impl Read for LineFeed {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let Some(line) = self.lines.get(self.next) else {
            return Ok(0);
        };
        // Lines are far shorter than the server's read buffer.
        let n = line.len().min(buf.len());
        buf[..n].copy_from_slice(&line[..n]);
        if n < line.len() {
            self.lines[self.next].drain(..n);
        } else {
            self.next += 1;
            self.clock.borrow_mut().push((Instant::now(), None));
        }
        Ok(n)
    }
}

/// Collects the server's replies, stamping each flushed frame.
struct ReplySink {
    bytes: Vec<u8>,
    clock: Clock,
    answered: usize,
}

impl Write for ReplySink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let mut clock = self.clock.borrow_mut();
        if let Some(slot) = clock.get_mut(self.answered) {
            slot.1 = Some(Instant::now());
            self.answered += 1;
        }
        Ok(())
    }
}

/// `exp.server`: the same lines through `serve_connection_outcome` over
/// in-memory buffers, with the same journal setting.
pub fn replay_server(
    kind: Kind,
    ex: &[Exchange],
    journal: &Path,
    out: &mut LayerReplay,
    rec: &mut Recorder,
) -> io::Result<()> {
    let config = server_config(kind, journal);
    let journal = match &config.journal {
        Some(path) => Some(Journal::create(path)?),
        None => None,
    };
    let clock = Rc::new(RefCell::new(Vec::with_capacity(ex.len())));
    let feed = LineFeed {
        lines: ex
            .iter()
            .map(|e| format!("{}\n", e.line).into_bytes())
            .collect(),
        next: 0,
        clock: Rc::clone(&clock),
    };
    let mut sink = ReplySink {
        bytes: Vec::new(),
        clock: Rc::clone(&clock),
        answered: 0,
    };
    let registry = AlgorithmRegistry::standard();
    serve_connection_outcome(
        &registry,
        &config,
        AdmissionTier::Exact,
        journal.as_ref(),
        feed,
        &mut sink,
    );
    let replies = String::from_utf8_lossy(&sink.bytes).into_owned();
    let mut replies = replies.lines();
    for (i, ((start, end), e)) in clock.borrow().iter().zip(ex).enumerate() {
        let end = end.unwrap_or(*start);
        rec.record("exp.server.request", None, i as u64, *start, end);
        out.server_ns.push(ns(end - *start));
        if replies.next() != Some(e.reply.as_str()) {
            out.mismatches += 1;
        }
    }
    out.mismatches += ex.len().saturating_sub(clock.borrow().len()) as u64;
    Ok(())
}

/// `exp.journal`: every committed admit and remove appended to a fresh
/// journal, in order.
pub fn replay_journal(
    kind: Kind,
    ex: &[Exchange],
    path: &Path,
    out: &mut LayerReplay,
    rec: &mut Recorder,
) -> io::Result<()> {
    out.journal_ns = vec![0; ex.len()];
    if !kind.journaled() {
        return Ok(());
    }
    let journal = Journal::create(path)?;
    let mut name: Option<String> = None;
    let mut len = 0u64;
    for (i, e) in ex.iter().enumerate() {
        let reply = parse_reply(&e.reply).map(|(_, r)| r);
        // The commit's processor and task count come from the reply.
        let t0 = Instant::now();
        let span = match (&e.request, reply, name.as_deref()) {
            (
                Request::OpenSession {
                    algorithm,
                    m,
                    session,
                },
                ..,
            ) => {
                if let Some(old) = name.take() {
                    journal.detach(&old);
                }
                if let Some(s) = session {
                    let _ = journal.attach(s, algorithm, *m);
                    name = Some(s.clone());
                }
                None
            }
            (Request::Admit { task, op_id }, Ok(Reply::Admit(a)), Some(s)) if a.admitted => {
                let k = a.processor.unwrap_or_default();
                journal.committed_admit(s, op_id.as_deref(), task, k, a.tasks);
                Some("exp.journal.committed_admit")
            }
            (Request::Remove { task_id, op_id }, Ok(Reply::Remove(r)), Some(s)) if r.removed => {
                let k = r.processor.unwrap_or_default();
                journal.committed_remove(s, op_id.as_deref(), *task_id, k, r.tasks);
                Some("exp.journal.committed_remove")
            }
            _ => None,
        };
        if let Some(span_name) = span {
            let t1 = Instant::now();
            rec.record(span_name, None, i as u64, t0, t1);
            out.journal_ns[i] = ns(t1 - t0);
            out.journal_append.push(t1 - t0);
            let now = std::fs::metadata(path)?.len();
            // A compaction shrinks the file; count only appended bytes.
            out.journal_bytes += now.saturating_sub(len);
            len = now;
        }
    }
    out.journal = journal.stats();
    Ok(())
}
