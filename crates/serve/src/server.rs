//! The TCP server: accept loop, per-connection request handling, and
//! graceful drain.
//!
//! One thread accepts connections (non-blocking, polling the [`Stop`]
//! token); each connection gets a thread that reads request lines (at
//! most [`MAX_LINE_BYTES`] each) and writes event lines. A `job` the
//! result cache answers is answered right there, from the stored bytes;
//! all actual simulation is submitted to the shared [`WorkerPool`].
//! Shutdown — a `shutdown` request, [`Stop::request`],
//! or (in the binary) SIGINT/SIGTERM — is cooperative: jobs already
//! executing on workers run to completion, queued jobs bail, sweeps
//! that lost jobs answer with an `error` event instead of a report, and
//! nothing partial is ever written: served reports are persisted by
//! writing to a `.tmp` sibling and renaming only after the full report
//! is on disk, and only for sweeps that completed every job.
//!
//! Telemetry rides alongside: every *work* request (sweep, job) is
//! assigned a monotonic request id, bracketed by a request span, and
//! threaded through the engine so queue-wait, boot/restore, simulate,
//! and serialize phases land in the engine's [`ServiceTelem`], the only
//! place the service counts anything. Read-only verbs — `ping`,
//! `metrics`, `health` — take no id and record nothing, which is what
//! keeps idle `metrics` scrapes byte-identical. The final drain flushes
//! the span timeline and metric snapshot to `telem_out` with the same
//! `.tmp`-then-rename discipline as reports.

use crate::cache::StoredRecord;
use crate::engine::{run_profile, JobEngine, Lookup, Miss, Stop, WorkerPool};
use crate::protocol::{
    decode_request, encode_event, Event, HealthSnapshot, Origin, Request, SCHEMA,
};
use crate::telem::{self, elapsed_us, JobCtx, ServiceTelem};
use cheri_sweep::{JobSpec, Profile};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How often blocked reads and the accept loop wake to poll the stop
/// token.
const POLL: Duration = Duration::from_millis(100);

/// The longest request line the server reads, in bytes (the newline not
/// counted). A longer line is answered with a `bad request` error and
/// its connection closed, so a client that never sends a newline cannot
/// grow a connection's buffer without bound.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// The worker-queue depth at or above which `health` reports not ready.
const QUEUE_LIMIT: u64 = 256;

/// Prewarm states for the readiness probe.
const PREWARM_NONE: u64 = 0;
const PREWARM_RUNNING: u64 = 1;
const PREWARM_DONE: u64 = 2;

/// Server construction parameters.
pub struct ServerConfig {
    /// Worker threads executing jobs (default: host parallelism).
    pub workers: usize,
    /// Persist every completed served sweep report under this
    /// directory (atomically) when set.
    pub results_dir: Option<PathBuf>,
    /// Also trip the stop token on SIGINT/SIGTERM (the binary sets
    /// this; tests leave it off so a ^C to the test runner cannot leak
    /// into server state).
    pub watch_signals: bool,
    /// Write the final telemetry flush (Chrome trace + metric snapshot)
    /// to this path on drain, atomically.
    pub telem_out: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: cheri_sweep::default_threads(),
            results_dir: None,
            watch_signals: false,
            telem_out: None,
        }
    }
}

struct Shared {
    engine: Arc<JobEngine>,
    workers: WorkerPool,
    stop: Stop,
    results_dir: Option<PathBuf>,
    telem_out: Option<PathBuf>,
    /// Allocator for work-request ids (1-based; 0 means "no request").
    work_reqs: AtomicU64,
    prewarm_state: AtomicU64,
    start: Instant,
}

/// The listening server. [`Server::serve`] blocks until shutdown.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port; read the result
    /// back with [`Server::local_addr`]) and builds the engine and
    /// worker pool.
    ///
    /// # Errors
    ///
    /// Socket errors from binding.
    pub fn bind(addr: &str, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared {
            engine: Arc::default(),
            workers: WorkerPool::new(cfg.workers),
            stop: Stop::new(cfg.watch_signals),
            results_dir: cfg.results_dir,
            telem_out: cfg.telem_out,
            work_reqs: AtomicU64::new(0),
            prewarm_state: AtomicU64::new(PREWARM_NONE),
            start: Instant::now(),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A stop token sharing this server's flag — trip it to initiate a
    /// drain from another thread (tests, embedders).
    #[must_use]
    pub fn stop_handle(&self) -> Stop {
        self.shared.stop.clone()
    }

    /// The engine's telemetry handle (for tests and embedders).
    #[must_use]
    pub fn telem(&self) -> Arc<ServiceTelem> {
        self.shared.engine.telem().clone()
    }

    /// Pre-boots the snapshot pool for `profile` in a background
    /// thread, so the server accepts connections while the pool boots;
    /// `health` answers `ready: false`, `prewarm: "running"` until it
    /// is done.
    pub fn prewarm_background(&self, profile: Profile) {
        // Flip the state *before* the thread exists so no health probe
        // can observe "none"/ready in the gap.
        self.shared.prewarm_state.store(PREWARM_RUNNING, Ordering::SeqCst);
        let shared = self.shared.clone();
        std::thread::spawn(move || {
            let _ = shared.engine.prewarm(profile, &shared.workers, &shared.stop);
            shared.prewarm_state.store(PREWARM_DONE, Ordering::SeqCst);
        });
    }

    /// Accepts and serves connections until the stop token trips, then
    /// drains: in-flight jobs finish, queued jobs bail, workers and
    /// connection threads are joined, and — last, so it sees every
    /// span — the telemetry flush is written if configured. Returns
    /// `Ok(())` on a clean drain — the binary turns this into exit
    /// status 0.
    ///
    /// # Errors
    ///
    /// Fatal listener errors only (per-connection errors close that
    /// connection).
    pub fn serve(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shared.stop.stopping() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = self.shared.clone();
                    conns.push(std::thread::spawn(move || handle_connection(stream, &shared)));
                    conns.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(e) => return Err(e),
            }
        }
        // Drain: close the queue (queued jobs bail against the tripped
        // stop token), join workers, then the connection threads.
        self.shared.workers.shutdown();
        for h in conns {
            let _ = h.join();
        }
        // Every producer of spans has been joined; the flush is final.
        if let Some(path) = &self.shared.telem_out {
            flush_telem(path, self.shared.engine.telem());
        }
        Ok(())
    }
}

fn send(writer: &mut TcpStream, ev: &Event) -> bool {
    let mut line = encode_event(ev);
    line.push('\n');
    writer.write_all(line.as_bytes()).and_then(|()| writer.flush()).is_ok()
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    // Accepted sockets inherit the listener's non-blocking flag on some
    // platforms; force blocking reads with a timeout so the thread can
    // poll the stop token while idle.
    if stream.set_nonblocking(false).is_err() || stream.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = Vec::new();
    loop {
        // Room for one byte past the cap, so an over-long line shows
        // itself as a full read without its newline.
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => return, // client closed
            Ok(_) if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') => {
                let message = format!("bad request: line longer than {MAX_LINE_BYTES} bytes");
                send(&mut writer, &Event::Error { message });
                return;
            }
            Ok(_) => {
                let close = match std::str::from_utf8(&line).map(str::trim) {
                    Ok("") => false,
                    Ok(text) => handle_request(text, &mut writer, shared),
                    Err(_) => {
                        let message = "bad request: line is not UTF-8".to_string();
                        !send(&mut writer, &Event::Error { message })
                    }
                };
                line.clear();
                if close {
                    return;
                }
            }
            // A timeout mid-line leaves the partial line in the buffer;
            // the retry continues appending where it left off.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.stop.stopping() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// The readiness conjunction behind the `health` verb.
fn health(shared: &Shared) -> HealthSnapshot {
    let workers = shared.workers.workers() as u64;
    let workers_alive = shared.workers.alive();
    let queue_depth = shared.workers.queue_depth();
    let prewarm = match shared.prewarm_state.load(Ordering::SeqCst) {
        PREWARM_RUNNING => "running",
        PREWARM_DONE => "done",
        _ => "none",
    };
    let ready = !shared.stop.stopping()
        && workers_alive == workers
        && prewarm != "running"
        && queue_depth < QUEUE_LIMIT;
    HealthSnapshot {
        ready,
        prewarm: prewarm.to_string(),
        workers_alive,
        workers,
        queue_depth,
        queue_limit: QUEUE_LIMIT,
        uptime_ms: u64::try_from(shared.start.elapsed().as_millis()).unwrap_or(u64::MAX),
        version: env!("CARGO_PKG_VERSION").to_string(),
    }
}

/// One `metrics` scrape: live gauges refreshed, registry rendered.
fn scrape(shared: &Shared) -> String {
    shared.engine.telem().scrape(&[
        (telem::QUEUE_DEPTH, shared.workers.queue_depth()),
        (telem::WORKERS, shared.workers.workers() as u64),
        (telem::WORKERS_ALIVE, shared.workers.alive()),
        (telem::WORKERS_BUSY, shared.workers.busy()),
        (telem::POOL_ENTRIES, shared.engine.pool().len() as u64),
        (telem::CACHED_RESULTS, shared.engine.cache().len() as u64),
    ])
}

/// Allocates the next work-request id (1-based) and opens its request
/// span.
fn begin_request(shared: &Shared) -> u64 {
    let req = shared.work_reqs.fetch_add(1, Ordering::Relaxed) + 1;
    shared.engine.telem().request_begin(req);
    req
}

/// Closes request `req`'s span, tagged by its outcome, and sends that
/// outcome; returns `true` when the client is unreachable.
fn answer(writer: &mut TcpStream, shared: &Shared, req: u64, ev: &Event) -> bool {
    shared.engine.telem().request_end(req, end_tag(ev));
    !send(writer, ev)
}

/// A `record` event for a job's stored result.
fn record_event(stored: &StoredRecord, origin: Origin, req: u64) -> Event {
    Event::Record { key: stored.record.key.clone(), origin, record: stored.json.clone(), req }
}

/// The request span's closing tag, read off the outcome event.
fn end_tag(ev: &Event) -> &'static str {
    match ev {
        Event::Record { origin, .. } => origin.name(),
        Event::Report { .. } => "sweep",
        Event::Error { .. } => "error",
        _ => "ok",
    }
}

/// Handles one request; returns `true` when the connection should
/// close (shutdown requested, or the client is unreachable).
fn handle_request(text: &str, writer: &mut TcpStream, shared: &Shared) -> bool {
    let req = match decode_request(text) {
        Ok(req) => req,
        Err(e) => return !send(writer, &Event::Error { message: format!("bad request: {e}") }),
    };
    let observe_only = matches!(req, Request::Ping | Request::Metrics | Request::Health);
    if shared.stop.stopping() && !observe_only {
        return !send(writer, &Event::Error { message: "server is shutting down".into() });
    }
    match req {
        Request::Ping => !send(writer, &Event::Pong { schema: SCHEMA.into() }),
        Request::Metrics => !send(writer, &Event::Metrics { text: scrape(shared) }),
        Request::Health => !send(writer, &Event::Health(health(shared))),
        Request::Shutdown => {
            send(writer, &Event::Ok);
            shared.stop.request();
            true
        }
        Request::Sweep { profile, cache } => {
            handle_sweep(writer, shared, profile, cache, begin_request(shared))
        }
        // The cached rung runs here, on the connection thread: a hit
        // is answered from the stored bytes with no task, no channel
        // and no worker; only a miss is shipped to the pool.
        Request::Job { parts, cache } => {
            let req = begin_request(shared);
            match parts.spec().map(|spec| (spec, shared.engine.lookup(&spec, cache))) {
                Err(message) => answer(writer, shared, req, &Event::Error { message }),
                Ok((_, Lookup::Hit(stored))) => {
                    answer(writer, shared, req, &record_event(&stored, Origin::Cached, req))
                }
                Ok((spec, Lookup::Miss(miss))) => serve_miss(writer, shared, req, spec, miss),
            }
        }
    }
}

/// Serves a `job` the cached rung missed as request `req`: ships it to
/// the worker pool and blocks this connection thread for its outcome,
/// so executing requests obey the same global parallelism bound as
/// sweeps, then answers with it. The queue wait (submission to pickup)
/// is spanned and recorded; a refused submission closes the span
/// immediately so the stream stays balanced. A task that ends without
/// replying while the server is not stopping panicked (the pool
/// contains it), and is answered as such. Returns `true` when the
/// client is unreachable.
fn serve_miss(
    writer: &mut TcpStream,
    shared: &Shared,
    req: u64,
    spec: JobSpec,
    miss: Miss,
) -> bool {
    let ctx = JobCtx::single(req);
    let (tx, rx) = mpsc::channel();
    let engine = shared.engine.clone();
    let stop = shared.stop.clone();
    let queued_at = Instant::now();
    engine.telem().queue_begin(ctx);
    let submitted = shared.workers.submit(tx, move || {
        engine.telem().queue_end(ctx, elapsed_us(queued_at));
        if stop.stopping() {
            return Err("server is shutting down".to_string());
        }
        engine.execute_miss(&spec, miss, ctx)
    });
    let reply = if submitted {
        match rx.recv() {
            Ok(Ok((stored, origin))) => record_event(&stored, origin, req),
            Ok(Err(message)) => Event::Error { message },
            Err(_) if shared.stop.stopping() => {
                Event::Error { message: "job was dropped during shutdown".into() }
            }
            Err(_) => Event::Error {
                message: "job panicked on its worker (the worker survived; see the server log)"
                    .into(),
            },
        }
    } else {
        shared.engine.telem().queue_end(ctx, elapsed_us(queued_at));
        Event::Error { message: "server is shutting down".into() }
    };
    answer(writer, shared, req, &reply)
}

fn handle_sweep(
    writer: &mut TcpStream,
    shared: &Shared,
    profile: Profile,
    cache: bool,
    req: u64,
) -> bool {
    let fail = |writer: &mut TcpStream, message: String| {
        answer(writer, shared, req, &Event::Error { message })
    };
    let outcome = run_profile(
        &shared.engine,
        &shared.workers,
        profile,
        cache,
        &shared.stop,
        req,
        |done, total, key, origin| {
            // Progress is advisory; a vanished client must not stop the
            // jobs already queued, so write errors are ignored here and
            // surface on the terminal event instead.
            let _ = send(writer, &Event::Progress { done, total, key: key.to_string(), origin });
        },
    );
    let report = match outcome {
        Err(message) => return fail(writer, message),
        Ok(None) => {
            let message = "sweep aborted by server shutdown (drained, nothing written)".into();
            return fail(writer, message);
        }
        Ok(Some(report)) => report,
    };
    // One rendering feeds both the wire event and the persisted file,
    // so what lands on disk is byte-identical to what the client read.
    let rendered = shared.engine.telem().serialize_span(JobCtx::single(req), || report.to_json());
    if let Some(dir) = &shared.results_dir {
        persist_report(dir, &report.profile, &rendered, req);
    }
    let ev = Event::Report { profile: report.profile, report: rendered, req };
    answer(writer, shared, req, &ev)
}

/// Persists a *complete* report atomically as
/// `serve-<profile>-<req>.json`: full write to a `.tmp` sibling, then
/// rename. A crash or shutdown at any point leaves either nothing or a
/// finished report — never a partial file. Request ids are unique, so
/// concurrent sweeps never share a name.
fn persist_report(dir: &std::path::Path, profile: &str, rendered: &str, req: u64) {
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let name = format!("serve-{profile}-{req}.json");
    let path = dir.join(&name);
    let tmp = dir.join(format!("{name}.tmp"));
    if std::fs::write(&tmp, rendered).is_ok() {
        let _ = std::fs::rename(&tmp, &path);
    } else {
        let _ = std::fs::remove_file(&tmp);
    }
}

/// Writes the final telemetry flush with the same atomicity discipline
/// as [`persist_report`]: the file either appears whole or not at all.
fn flush_telem(path: &std::path::Path, telem: &ServiceTelem) {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() && std::fs::create_dir_all(dir).is_err() {
            return;
        }
    }
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else { return };
    let tmp = path.with_file_name(format!("{name}.tmp"));
    if std::fs::write(&tmp, telem.flush_json()).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    } else {
        let _ = std::fs::remove_file(&tmp);
    }
}
