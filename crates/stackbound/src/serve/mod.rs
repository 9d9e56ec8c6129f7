//! `sbound serve` — a cache-resident verification daemon.
//!
//! A one-shot `sbound` run pays the whole pipeline every time and throws
//! its caches away on exit. The daemon inverts that: one long-lived
//! process holds a single shared [`vcache::VCache`] and
//! [`asm::MeasureCache`] in memory and verifies requests arriving over a
//! socket, so an edit-verify loop (or a fleet of CI clients) pays the
//! cold pipeline once and then reuses every per-function artifact whose
//! inputs are unchanged. Stage output is byte-identical to a one-shot
//! run — the cache layer guarantees it — so a served `report` string can
//! be diffed directly against `sbound` output.
//!
//! The moving parts:
//!
//! * [`Session`] — the shared caches plus verification defaults; every
//!   request builds a fresh [`Verifier`] against them.
//! * [`queue::JobQueue`] — a bounded queue between connection readers
//!   and the worker pool; back-pressure blocks the reader (and, through
//!   TCP flow control, the client) instead of buffering unboundedly.
//! * [`protocol`] — the line-delimited JSON wire format.
//! * [`Server`] — workers, transports (TCP, Unix-domain sockets, stdio),
//!   live `metrics`, and graceful drain on `shutdown`.
//!
//! Two verbs go through the worker pool: `verify` (the automatic
//! pipeline on client-supplied source) and `table2` (re-verification of
//! a built-in Table 2 recursive case's hand-written derivations — the
//! most expensive, and most cache-sensitive, work in the corpus).
//! Responses to pipelined pool requests may arrive out of request
//! order (the pool works them in parallel); clients match them by `id`.
//! A request's `timeout_ms` bounds its *queue wait*: a job still queued
//! at its deadline is rejected without being worked. Once a job reaches
//! a worker it runs to completion, bounded by the machine fuel — the
//! pipeline has no preemption points, so fuel is the in-work budget.
//!
//! ```
//! use stackbound::serve::{Server, ServeOptions, Session};
//! use std::io::{BufRead, BufReader, Write};
//!
//! let server = std::sync::Arc::new(Server::new(Session::new(), ServeOptions::default()));
//! let handle = stackbound::serve::spawn_tcp(server).unwrap();
//!
//! let mut conn = std::net::TcpStream::connect(handle.addr()).unwrap();
//! writeln!(conn, r#"{{"op":"verify","id":1,"source":"int main() {{ return 0; }}"}}"#).unwrap();
//! let mut line = String::new();
//! BufReader::new(conn.try_clone().unwrap()).read_line(&mut line).unwrap();
//! assert!(line.contains("\"ok\":true"));
//! handle.shutdown().unwrap();
//! ```

pub mod protocol;
pub mod queue;

use crate::{Error, Report, Verifier, DEFAULT_FUEL};
use protocol::{Request, Table2Request, VerifyRequest};
use queue::JobQueue;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The caches and verification defaults shared by every request the
/// daemon serves. Cloning is cheap (everything shared is behind an
/// [`Arc`]); clones keep hitting the same caches.
#[derive(Clone)]
pub struct Session {
    vcache: Arc<vcache::VCache>,
    measure_cache: Arc<asm::MeasureCache>,
    fuel: u64,
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

impl Session {
    /// A session with fresh caches and [`DEFAULT_FUEL`].
    pub fn new() -> Session {
        Session {
            vcache: Arc::new(vcache::VCache::new()),
            measure_cache: Arc::new(asm::MeasureCache::new()),
            fuel: DEFAULT_FUEL,
        }
    }

    /// Replaces the verification cache (e.g. one pre-loaded from disk).
    #[must_use]
    pub fn vcache(mut self, cache: Arc<vcache::VCache>) -> Session {
        self.vcache = cache;
        self
    }

    /// Sets the machine fuel used for every request's measurement stage.
    #[must_use]
    pub fn fuel(mut self, fuel: u64) -> Session {
        self.fuel = fuel;
        self
    }

    /// The shared verification cache.
    pub fn cache(&self) -> &Arc<vcache::VCache> {
        &self.vcache
    }

    /// The shared measurement cache.
    pub fn measures(&self) -> &Arc<asm::MeasureCache> {
        &self.measure_cache
    }

    /// Verifies one request against the shared caches. Equivalent to a
    /// one-shot [`Verifier`] run with the same target/params/measure
    /// settings — including byte-identical [`Report`] rendering.
    ///
    /// # Errors
    ///
    /// Exactly the one-shot pipeline's [`Error`] cases.
    pub fn verify(&self, req: &VerifyRequest) -> Result<Report, Error> {
        let params: Vec<(&str, u32)> = req.params.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        Verifier::new()
            .fuel(self.fuel)
            .target(req.target)
            .params(&params)
            .measure(req.measure)
            .vcache(self.vcache.clone())
            .measure_cache(self.measure_cache.clone())
            .verify(&req.source)
    }

    /// Re-verifies one built-in Table 2 recursive case (by headline
    /// name) through the shared cache — exactly the one-shot
    /// [`table2::verify_case_cached`](crate::table2::verify_case_cached)
    /// rendering.
    ///
    /// # Errors
    ///
    /// Unknown case names, and the one-shot pipeline's rendered
    /// derivation/compiler failures.
    pub fn table2(&self, req: &Table2Request) -> Result<String, String> {
        let case = benchsuite::recursive_case(&req.case)
            .ok_or_else(|| format!("unknown table2 case `{}`", req.case))?;
        crate::table2::verify_case_cached(&case, req.target, &self.vcache)
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads; `0` uses the machine's available parallelism.
    pub workers: usize,
    /// Bounded queue capacity — the back-pressure threshold.
    pub queue_cap: usize,
    /// Default per-request queue deadline (`timeout_ms` overrides it).
    pub timeout: Duration,
    /// Machine fuel per measurement.
    pub fuel: u64,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            workers: 0,
            queue_cap: 128,
            timeout: Duration::from_secs(30),
            fuel: DEFAULT_FUEL,
        }
    }
}

impl ServeOptions {
    fn worker_count(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// A writer shared between a connection's reader thread (inline
/// responses) and the workers (verify responses), serialized per line.
type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

fn write_line(writer: &SharedWriter, line: &str) {
    // A dead client is the client's problem, not the server's.
    let mut w = writer.lock().unwrap();
    let _ = w.write_all(line.as_bytes());
    let _ = w.write_all(b"\n");
    let _ = w.flush();
}

/// The work a queued job carries: the two verbs that go through the
/// worker pool (everything else is answered inline by the reader).
enum Work {
    Verify(Box<VerifyRequest>),
    Table2(Table2Request),
}

impl Work {
    fn id(&self) -> u64 {
        match self {
            Work::Verify(r) => r.id,
            Work::Table2(r) => r.id,
        }
    }

    fn timeout_ms(&self) -> Option<u64> {
        match self {
            Work::Verify(r) => r.timeout_ms,
            Work::Table2(r) => r.timeout_ms,
        }
    }
}

/// One queued job.
struct Job {
    work: Work,
    reply: SharedWriter,
    enqueued: Instant,
    deadline: Instant,
}

/// The verification daemon: a [`Session`], a worker pool behind a
/// bounded [`JobQueue`], and the transport loops.
pub struct Server {
    session: Session,
    opts: ServeOptions,
    queue: JobQueue<Job>,
    started: Instant,
    received: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    timed_out: AtomicU64,
    stop: AtomicBool,
}

impl Server {
    /// A server over `session` with the fuel from `opts` taking
    /// precedence over the session's.
    pub fn new(session: Session, opts: ServeOptions) -> Server {
        let session = session.fuel(opts.fuel);
        Server {
            queue: JobQueue::new(opts.queue_cap),
            session,
            opts,
            started: Instant::now(),
            received: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        }
    }

    /// The session (for cache persistence after a drain).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Whether a `shutdown` has been requested.
    pub fn is_stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn worker(&self) {
        while let Some(job) = self.queue.next() {
            let queue_us = job.enqueued.elapsed().as_micros() as u64;
            let id = job.work.id();
            let line = if Instant::now() >= job.deadline {
                self.timed_out.fetch_add(1, Ordering::Relaxed);
                obs::counter("serve/timed_out", 1);
                protocol::error_response(id, &format!("timed out after {queue_us}us in queue"))
            } else {
                let _span = obs::span("serve/request");
                let work = Instant::now();
                let cache = || protocol::cache_stats(self.session.cache(), self.session.measures());
                let rendered = match &job.work {
                    Work::Verify(req) => {
                        self.session
                            .verify(req)
                            .map_err(|e| e.to_string())
                            .map(|report| {
                                protocol::verify_response(
                                    id,
                                    &report,
                                    &cache(),
                                    queue_us,
                                    work.elapsed().as_micros() as u64,
                                )
                            })
                    }
                    Work::Table2(req) => self.session.table2(req).map(|report| {
                        protocol::table2_response(
                            id,
                            &req.case,
                            req.target,
                            &report,
                            &cache(),
                            queue_us,
                            work.elapsed().as_micros() as u64,
                        )
                    }),
                };
                match rendered {
                    Ok(line) => {
                        self.completed.fetch_add(1, Ordering::Relaxed);
                        line
                    }
                    Err(e) => {
                        self.failed.fetch_add(1, Ordering::Relaxed);
                        protocol::error_response(id, &e)
                    }
                }
            };
            write_line(&job.reply, &line);
            self.queue.done();
        }
    }

    fn metrics_line(&self, id: u64) -> String {
        let obs = obs::snapshot().map(|r| {
            fn count(nodes: &[obs::SpanNode]) -> usize {
                nodes.iter().map(|n| 1 + count(&n.children)).sum()
            }
            (count(&r.roots), r.counters.len(), r.histograms.len())
        });
        protocol::metrics_response(&protocol::Metrics {
            id,
            uptime_ms: self.started.elapsed().as_millis() as u64,
            received: self.received.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            queue_depth: self.queue.depth(),
            in_flight: self.queue.in_flight(),
            cache: protocol::cache_stats(self.session.cache(), self.session.measures()),
            obs,
        })
    }

    /// Reads requests off one connection until EOF or a `shutdown`.
    /// Returns the `shutdown` id when one arrived — the caller owns the
    /// drain and the late acknowledgement.
    fn run_connection<R: BufRead>(&self, reader: R, reply: &SharedWriter) -> Option<u64> {
        for line in reader.lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            self.received.fetch_add(1, Ordering::Relaxed);
            match protocol::parse_request(&line) {
                Err((id, msg)) => {
                    self.failed.fetch_add(1, Ordering::Relaxed);
                    write_line(reply, &protocol::error_response(id, &msg));
                }
                Ok(Request::Ping { id }) => write_line(reply, &protocol::pong_response(id)),
                Ok(Request::Metrics { id }) => write_line(reply, &self.metrics_line(id)),
                Ok(Request::Shutdown { id }) => return Some(id),
                Ok(Request::Verify(req)) => self.enqueue(Work::Verify(req), reply),
                Ok(Request::Table2(req)) => self.enqueue(Work::Table2(req), reply),
            }
        }
        None
    }

    /// Submits one unit of pool work, bouncing it with an error response
    /// when the queue is draining.
    fn enqueue(&self, work: Work, reply: &SharedWriter) {
        let now = Instant::now();
        let timeout = work
            .timeout_ms()
            .map_or(self.opts.timeout, Duration::from_millis);
        let job = Job {
            reply: reply.clone(),
            enqueued: now,
            deadline: now + timeout,
            work,
        };
        if let Err(job) = self.queue.submit(job) {
            self.failed.fetch_add(1, Ordering::Relaxed);
            write_line(
                reply,
                &protocol::error_response(job.work.id(), "server is draining; request rejected"),
            );
        }
    }

    /// Serves a single full-duplex byte stream (no listener): used by
    /// `--stdio` and by in-process tests. Returns after EOF or
    /// `shutdown`, once every accepted job has been answered.
    pub fn run_stream<R, W>(&self, reader: R, writer: W)
    where
        R: Read,
        W: Write + Send + 'static,
    {
        let reply: SharedWriter = Arc::new(Mutex::new(Box::new(writer)));
        std::thread::scope(|scope| {
            for w in 0..self.opts.worker_count() {
                scope.spawn(move || {
                    obs::register_thread(&format!("serve-worker-{w}"));
                    self.worker();
                });
            }
            let shutdown = self.run_connection(BufReader::new(reader), &reply);
            self.stop.store(true, Ordering::SeqCst);
            self.queue.drain();
            if let Some(id) = shutdown {
                write_line(&reply, &protocol::shutdown_response(id));
            }
        });
    }

    /// Serves connections accepted from a TCP listener until a client
    /// sends `shutdown`; then stops accepting, drains the queue, answers
    /// the ack, and unblocks every connection before returning.
    ///
    /// # Errors
    ///
    /// Propagates listener address/accept failures.
    pub fn run_tcp(&self, listener: TcpListener) -> std::io::Result<()> {
        self.run_accept(TcpTransport(listener))
    }

    /// [`Server::run_tcp`] over a Unix-domain socket listener.
    ///
    /// # Errors
    ///
    /// Propagates listener address/accept failures.
    #[cfg(unix)]
    pub fn run_uds(&self, listener: UnixListener) -> std::io::Result<()> {
        self.run_accept(UdsTransport(listener))
    }

    fn run_accept<T: Transport>(&self, transport: T) -> std::io::Result<()> {
        let transport = &transport;
        // Registry of reader-side handles so a drain can unblock every
        // connection thread's blocking read.
        let conns: Mutex<Vec<T::Stream>> = Mutex::new(Vec::new());
        let conns = &conns;
        std::thread::scope(|scope| {
            for w in 0..self.opts.worker_count() {
                scope.spawn(move || {
                    obs::register_thread(&format!("serve-worker-{w}"));
                    self.worker();
                });
            }
            let result = loop {
                let stream = match transport.accept() {
                    Ok(s) => s,
                    Err(e) => {
                        if self.is_stopping() {
                            break Ok(());
                        }
                        break Err(e);
                    }
                };
                if self.is_stopping() {
                    break Ok(()); // the drainer's wakeup connection
                }
                let Ok(read_half) = T::clone_stream(&stream) else {
                    continue;
                };
                conns.lock().unwrap().push(read_half);
                scope.spawn(move || {
                    let Ok(write_half) = T::clone_stream(&stream) else {
                        return;
                    };
                    let reply: SharedWriter = Arc::new(Mutex::new(Box::new(write_half)));
                    if let Some(id) = self.run_connection(BufReader::new(stream), &reply) {
                        // This thread owns the shutdown: stop intake,
                        // finish every accepted job, ack, then release
                        // the accept loop and the other readers.
                        self.stop.store(true, Ordering::SeqCst);
                        self.queue.drain();
                        write_line(&reply, &protocol::shutdown_response(id));
                        transport.unblock_accept();
                        for conn in conns.lock().unwrap().iter() {
                            T::close(conn);
                        }
                    }
                });
            };
            // Accept failed on its own (or the listener was closed): make
            // sure the workers and readers are still released.
            if !self.is_stopping() {
                self.stop.store(true, Ordering::SeqCst);
                self.queue.drain();
                for conn in conns.lock().unwrap().iter() {
                    T::close(conn);
                }
            }
            result
        })
    }
}

/// A listener the accept loop can run over: TCP or Unix-domain sockets.
trait Transport: Sync {
    /// The accepted byte-stream type.
    type Stream: Read + Write + Send + 'static;
    fn accept(&self) -> std::io::Result<Self::Stream>;
    fn clone_stream(s: &Self::Stream) -> std::io::Result<Self::Stream>;
    /// Shuts the stream down in both directions, unblocking its reader.
    fn close(s: &Self::Stream);
    /// Wakes a blocking [`Transport::accept`] (e.g. by self-connecting).
    fn unblock_accept(&self);
}

struct TcpTransport(TcpListener);

impl Transport for TcpTransport {
    type Stream = TcpStream;

    fn accept(&self) -> std::io::Result<TcpStream> {
        let (s, _) = self.0.accept()?;
        // Responses are single small lines; Nagle + delayed ACK would
        // add tens of milliseconds to every round trip.
        let _ = s.set_nodelay(true);
        Ok(s)
    }

    fn clone_stream(s: &TcpStream) -> std::io::Result<TcpStream> {
        s.try_clone()
    }

    fn close(s: &TcpStream) {
        let _ = s.shutdown(std::net::Shutdown::Both);
    }

    fn unblock_accept(&self) {
        if let Ok(addr) = self.0.local_addr() {
            let _ = TcpStream::connect(addr);
        }
    }
}

#[cfg(unix)]
struct UdsTransport(UnixListener);

#[cfg(unix)]
impl Transport for UdsTransport {
    type Stream = UnixStream;

    fn accept(&self) -> std::io::Result<UnixStream> {
        self.0.accept().map(|(s, _)| s)
    }

    fn clone_stream(s: &UnixStream) -> std::io::Result<UnixStream> {
        s.try_clone()
    }

    fn close(s: &UnixStream) {
        let _ = s.shutdown(std::net::Shutdown::Both);
    }

    fn unblock_accept(&self) {
        if let Ok(addr) = self.0.local_addr() {
            if let Some(path) = addr.as_pathname() {
                let _ = UnixStream::connect(path);
            }
        }
    }
}

/// A handle to a [`spawn_tcp`] background server.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The loopback address the server is listening on.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Sends a `shutdown` request as a client, waits for the drain
    /// acknowledgement, and joins the server thread.
    ///
    /// # Errors
    ///
    /// Propagates connection failures and the server loop's own error.
    pub fn shutdown(self) -> std::io::Result<()> {
        let conn = TcpStream::connect(self.addr)?;
        let _ = conn.set_nodelay(true);
        let mut w = conn.try_clone()?;
        writeln!(w, "{{\"op\":\"shutdown\",\"id\":0}}")?;
        let mut ack = String::new();
        BufReader::new(conn).read_line(&mut ack)?;
        match self.join.join() {
            Ok(result) => result,
            Err(_) => Err(std::io::Error::other("server thread panicked")),
        }
    }
}

/// Binds an ephemeral loopback port and runs `server` on a background
/// thread — the harness used by the serve tests and the `serve_edit`
/// workload of the `stackbench` benchmark.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn spawn_tcp(server: Arc<Server>) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let join = std::thread::spawn(move || server.run_tcp(listener));
    Ok(ServerHandle { addr, join })
}
