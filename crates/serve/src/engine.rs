//! The execution engine behind the service: a persistent worker pool
//! plus the cache → pool → cold decision ladder for each job.
//!
//! Batch and served execution share one code path by construction:
//! every rung of the ladder bottoms out in [`run_job`], the runner the
//! batch binaries use — [`Mode::Resume`] for warm execution (exactly
//! `xsweep --warm`'s restore path), [`Mode::Split`] for cold execution
//! (exactly its cold path) and [`Mode::BootOnly`] for prewarm. The
//! service adds only *where results come from* (cache, pooled snapshot,
//! fresh boot), never *how they are computed* — which is why the
//! transparency gate can demand byte-identity with the batch report.

use crate::cache::{ResultCache, StoredRecord};
use crate::pool::SnapshotPool;
use crate::protocol::Origin;
use crate::signal;
use crate::telem::{elapsed_us, JobCtx, PhaseRecorder, ServiceTelem};
use cheri_snap::Snapshot;
use cheri_sweep::{
    profile_matrix, run_job, run_matrix, JobRecord, JobSpec, Mode, Profile, SweepReport,
};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// A cooperative stop token: set programmatically (shutdown request,
/// test) and optionally wired to the process signal flag (SIGINT /
/// SIGTERM in the `cheri-serve` binary). Checked between jobs, never
/// mid-job — a running simulation always completes, which is what makes
/// drain-on-shutdown leave no partial state behind.
#[derive(Clone)]
pub struct Stop {
    flag: Arc<AtomicBool>,
    watch_signals: bool,
}

impl Stop {
    /// A fresh token. With `watch_signals`, delivery of SIGINT/SIGTERM
    /// (after [`signal::install`]) also trips it.
    #[must_use]
    pub fn new(watch_signals: bool) -> Stop {
        Stop { flag: Arc::new(AtomicBool::new(false)), watch_signals }
    }

    /// Trips the token.
    pub fn request(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether a stop has been requested (programmatically or, if
    /// watched, by signal).
    #[must_use]
    pub fn stopping(&self) -> bool {
        self.flag.load(Ordering::SeqCst) || (self.watch_signals && signal::requested())
    }
}

/// A queued task: runs the submitted work, holding the busy count (the
/// argument) while it does, then sends the result.
type Task = Box<dyn FnOnce(&AtomicU64) + Send + 'static>;

/// A fixed-size pool of persistent worker threads fed from one shared
/// queue. All requests on all connections shard their jobs into the
/// same pool, so total simulator parallelism is bounded by the worker
/// count no matter how many clients are connected.
///
/// A task's result is sent only after its worker has left the busy
/// count, so a submitter holding the result never sees its own task as
/// [`WorkerPool::busy`]. A task that panics unwinds no further than
/// [`WorkerPool::submit`]'s wrapper: the worker survives to take the
/// next task, so [`WorkerPool::alive`] keeps telling the truth, and the
/// reply sender drops unanswered, which is how the submitter learns of
/// the panic.
pub struct WorkerPool {
    tx: Mutex<Option<mpsc::Sender<Task>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    workers: usize,
    queued: Arc<AtomicU64>,
    busy: Arc<AtomicU64>,
    alive: Arc<AtomicU64>,
}

impl WorkerPool {
    /// Spawns `workers` (≥ 1) threads.
    #[must_use]
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let (tx, rx) = mpsc::channel::<Task>();
        let rx = Arc::new(Mutex::new(rx));
        let queued = Arc::new(AtomicU64::new(0));
        let busy = Arc::new(AtomicU64::new(0));
        let alive = Arc::new(AtomicU64::new(workers as u64));
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let rx = rx.clone();
            let queued = queued.clone();
            let busy = busy.clone();
            let alive = alive.clone();
            handles.push(std::thread::spawn(move || {
                loop {
                    // Take the next task with the queue lock released
                    // before running it, so workers execute concurrently.
                    let task = match rx.lock() {
                        Ok(guard) => guard.recv(),
                        Err(_) => break,
                    };
                    match task {
                        Ok(task) => {
                            queued.fetch_sub(1, Ordering::Relaxed);
                            task(&busy);
                        }
                        Err(_) => break, // all senders gone: shutdown
                    }
                }
                alive.fetch_sub(1, Ordering::Relaxed);
            }));
        }
        WorkerPool {
            tx: Mutex::new(Some(tx)),
            handles: Mutex::new(handles),
            workers,
            queued,
            busy,
            alive,
        }
    }

    /// The pool's thread count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Tasks submitted but not yet picked up by a worker.
    #[must_use]
    pub fn queue_depth(&self) -> u64 {
        self.queued.load(Ordering::Relaxed)
    }

    /// Workers currently executing a task.
    #[must_use]
    pub fn busy(&self) -> u64 {
        self.busy.load(Ordering::Relaxed)
    }

    /// Worker threads still running (drops below [`WorkerPool::workers`]
    /// only during shutdown; a panicking task does not kill its
    /// worker).
    #[must_use]
    pub fn alive(&self) -> u64 {
        self.alive.load(Ordering::Relaxed)
    }

    /// Submits `task`, whose result a worker sends on `reply` once it
    /// has left the busy count. A task that panics sends nothing: its
    /// `reply` drops unanswered (the panic message itself goes to
    /// stderr through the default hook). Returns `false` if the pool has
    /// shut down (the task and `reply` are dropped).
    pub fn submit<T, F>(&self, reply: mpsc::Sender<T>, task: F) -> bool
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let task: Task = Box::new(move |busy: &AtomicU64| {
            busy.fetch_add(1, Ordering::Relaxed);
            let out = std::panic::catch_unwind(AssertUnwindSafe(task));
            busy.fetch_sub(1, Ordering::Relaxed);
            if let Ok(out) = out {
                let _ = reply.send(out);
            }
        });
        match self.tx.lock() {
            Ok(guard) => match guard.as_ref() {
                Some(tx) => {
                    self.queued.fetch_add(1, Ordering::Relaxed);
                    let sent = tx.send(task).is_ok();
                    if !sent {
                        self.queued.fetch_sub(1, Ordering::Relaxed);
                    }
                    sent
                }
                None => false,
            },
            Err(_) => false,
        }
    }

    /// Closes the queue and joins every worker. Tasks already queued
    /// still run (they are expected to bail fast once a [`Stop`] token
    /// is tripped); new submissions are refused.
    pub fn shutdown(&self) {
        if let Ok(mut guard) = self.tx.lock() {
            guard.take();
        }
        let handles = match self.handles.lock() {
            Ok(mut guard) => std::mem::take(&mut *guard),
            Err(_) => return,
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What the cached rung ([`JobEngine::lookup`]) decided.
pub enum Lookup {
    /// Answered from the result cache: the stored record and its bytes.
    Hit(Arc<StoredRecord>),
    /// Not cached; run it with [`JobEngine::execute_miss`].
    Miss(Miss),
}

/// A job the cached rung missed, with what the lookup already resolved:
/// its pooled snapshot, if any.
pub struct Miss {
    snapshot: Option<Arc<Snapshot>>,
    use_cache: bool,
}

/// The per-job decision ladder (cache → warm pool → cold boot) plus the
/// shared state it works over. One engine serves every connection; its
/// telemetry ([`JobEngine::telem`]) is the only count of the jobs it
/// ran, by origin.
#[derive(Default)]
pub struct JobEngine {
    cache: ResultCache,
    pool: SnapshotPool,
    telem: Arc<ServiceTelem>,
}

impl JobEngine {
    /// The snapshot pool (exposed for prewarm and tests).
    #[must_use]
    pub fn pool(&self) -> &SnapshotPool {
        &self.pool
    }

    /// The result cache (exposed for tests).
    #[must_use]
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The telemetry handle this engine records into (the server's
    /// wire verbs share it).
    #[must_use]
    pub fn telem(&self) -> &Arc<ServiceTelem> {
        &self.telem
    }

    /// Executes one job through the ladder: [`JobEngine::lookup`] (the
    /// cached rung), then on a miss [`JobEngine::execute_miss`] (the
    /// warm and cold rungs). The server runs the two halves on
    /// different threads; sweeps run both here, on a worker.
    ///
    /// # Errors
    ///
    /// Compile/OS/restore errors rendered as strings.
    pub fn execute(
        &self,
        spec: &JobSpec,
        use_cache: bool,
        ctx: JobCtx,
    ) -> Result<(Arc<StoredRecord>, Origin), String> {
        match self.lookup(spec, use_cache) {
            Lookup::Hit(stored) => Ok((stored, Origin::Cached)),
            Lookup::Miss(miss) => self.execute_miss(spec, miss, ctx),
        }
    }

    /// The cached rung of the ladder: with `use_cache`, looks the job
    /// up under its spec, which is the key (no string is rendered). A
    /// hit is a finished job (counted and recorded as
    /// [`Origin::Cached`]) whose stored record is shared, not copied.
    /// Anything else is a [`Miss`] carrying the pooled snapshot, if
    /// any.
    ///
    /// It never simulates, so the server calls it on the connection
    /// thread and sends only misses to the worker pool.
    /// `use_cache = false` always misses and the result is not stored,
    /// forcing real execution.
    #[must_use]
    pub fn lookup(&self, spec: &JobSpec, use_cache: bool) -> Lookup {
        let t0 = Instant::now();
        if use_cache {
            if let Some(stored) = self.cache.lookup(spec) {
                self.telem.job_finished(Origin::Cached, elapsed_us(t0));
                return Lookup::Hit(stored);
            }
        }
        Lookup::Miss(Miss { snapshot: self.pool.get(spec), use_cache })
    }

    /// The executing rungs for a job [`JobEngine::lookup`] missed,
    /// without looking it up again:
    ///
    /// 1. pool entry present → restore and run the computation phase
    ///    ([`Mode::Resume`]);
    /// 2. otherwise → full cold run ([`Mode::Split`]), pooling the
    ///    phase-2 snapshot it captures for every later request.
    ///
    /// The record is serialised and quoted once, here, inside `ctx`'s
    /// serialize span, and stored with those bytes when the miss allows
    /// it.
    ///
    /// `ctx` attributes the job's phase spans and latency to a request
    /// (pass [`JobCtx::default`] outside request handling). Telemetry
    /// observes the ladder, never steers it: [`run_job`]'s span hook is
    /// the one the batch path passes `None`.
    ///
    /// # Errors
    ///
    /// Compile/OS/restore errors rendered as strings.
    pub fn execute_miss(
        &self,
        spec: &JobSpec,
        miss: Miss,
        ctx: JobCtx,
    ) -> Result<(Arc<StoredRecord>, Origin), String> {
        let t0 = Instant::now();
        let (record, origin) = self.run(spec, miss.snapshot.as_deref(), ctx)?;
        self.telem.job_finished(origin, elapsed_us(t0));
        let stored = Arc::new(self.telem.serialize_span(ctx, || StoredRecord::new(record)));
        if miss.use_cache {
            self.cache.store(*spec, &stored);
        }
        Ok((stored, origin))
    }

    /// The executing rungs of the ladder: resumes `from` (warm) or boots
    /// cold, pooling the phase-2 snapshot a cold run captures, with the
    /// job's phases recorded under its origin.
    fn run(
        &self,
        spec: &JobSpec,
        from: Option<&Snapshot>,
        ctx: JobCtx,
    ) -> Result<(JobRecord, Origin), String> {
        let (origin, mode) = match from {
            Some(snap) => (Origin::Warm, Mode::Resume(snap)),
            None => (Origin::Cold, Mode::Split),
        };
        let mut phases = PhaseRecorder::new(&self.telem, ctx, origin.name());
        let run = run_job(spec, spec.machine_config(), mode, Some(&mut |n, b| phases.note(n, b)))?;
        let rec =
            JobRecord::from_result(run.result.as_ref().expect("split and resumed runs complete"));
        // Only a cold (split) run captures a snapshot.
        if let Some(snap) = run.snapshot {
            self.pool.insert(*spec, snap);
        }
        Ok((rec, origin))
    }

    /// Fills the pool with phase-2 pre-boots for every job of `profile`
    /// that does not already have one, sharded across the worker pool.
    /// Returns the number of entries added. Stops early (skipping
    /// remaining boots) if `stop` trips.
    pub fn prewarm(self: &Arc<Self>, profile: Profile, workers: &WorkerPool, stop: &Stop) -> usize {
        let specs = profile_matrix(profile);
        let (tx, rx) = mpsc::channel::<bool>();
        let mut submitted = 0usize;
        for spec in specs {
            if self.pool.get(&spec).is_some() {
                continue;
            }
            let engine = self.clone();
            let stop = stop.clone();
            let ok = workers.submit(tx.clone(), move || {
                if stop.stopping() {
                    return false;
                }
                let run = run_job(&spec, spec.machine_config(), Mode::BootOnly, None);
                match run.map(|r| r.snapshot) {
                    Ok(Some(snap)) => {
                        engine.pool.insert(spec, snap);
                        true
                    }
                    Ok(None) | Err(_) => false,
                }
            });
            if ok {
                submitted += 1;
            }
        }
        drop(tx);
        rx.into_iter().filter(|&added| added).count().min(submitted)
    }
}

/// One job's outcome inside a sweep, as reported to the collector.
enum JobOut {
    Done(Arc<StoredRecord>, Origin),
    Aborted,
    Failed(String),
}

/// Runs a whole profile matrix through the engine, sharding jobs across
/// the worker pool and invoking `progress(done, total, key, origin)` as
/// each job lands (in completion order — the *report* is assembled in
/// canonical matrix order regardless). Returns `Ok(None)` if `stop`
/// tripped before every job executed (the drain path: running jobs
/// complete, queued jobs bail).
///
/// `req` attributes the sweep's spans (queue wait per job, phases per
/// job) to a request id; pass 0 for work not driven by a wire request.
///
/// # Errors
///
/// The first job failure, with its key.
pub fn run_profile<F>(
    engine: &Arc<JobEngine>,
    workers: &WorkerPool,
    profile: Profile,
    use_cache: bool,
    stop: &Stop,
    req: u64,
    mut progress: F,
) -> Result<Option<SweepReport>, String>
where
    F: FnMut(u64, u64, &str, Origin),
{
    let specs = profile_matrix(profile);
    let total = specs.len();
    let (tx, rx) = mpsc::channel::<(usize, JobOut)>();
    let mut submitted = 0usize;
    for (i, spec) in specs.iter().enumerate() {
        let spec = *spec;
        let worker_engine = engine.clone();
        let stop = stop.clone();
        let ctx = JobCtx { req, job: i as u64 };
        let queued_at = Instant::now();
        engine.telem().queue_begin(ctx);
        let ok = workers.submit(tx.clone(), move || {
            let engine = worker_engine;
            engine.telem().queue_end(ctx, elapsed_us(queued_at));
            let out = if stop.stopping() {
                JobOut::Aborted
            } else {
                match engine.execute(&spec, use_cache, ctx) {
                    Ok((stored, origin)) => JobOut::Done(stored, origin),
                    Err(e) => JobOut::Failed(format!("{}: {e}", spec.key())),
                }
            };
            (i, out)
        });
        if ok {
            submitted += 1;
        } else {
            // The task never entered the queue; close its span so the
            // stream stays balanced.
            engine.telem().queue_end(ctx, elapsed_us(queued_at));
        }
    }
    drop(tx);

    let mut slots: Vec<Option<Arc<StoredRecord>>> = Vec::new();
    slots.resize_with(total, || None);
    let mut done = 0u64;
    let mut aborted = submitted < total;
    for (i, out) in rx {
        match out {
            JobOut::Done(stored, origin) => {
                done += 1;
                progress(done, total as u64, &stored.record.key, origin);
                slots[i] = Some(stored);
            }
            JobOut::Aborted => aborted = true,
            JobOut::Failed(msg) => return Err(msg),
        }
    }
    if aborted {
        return Ok(None);
    }
    // Every task that ran sent an outcome; one that sent none panicked.
    if let Some(i) = slots.iter().position(Option::is_none) {
        return Err(format!("{}: job panicked on its worker (see the server log)", specs[i].key()));
    }
    let jobs: Vec<JobRecord> =
        slots.into_iter().flatten().map(|s| Arc::unwrap_or_clone(s).record).collect();
    Ok(Some(SweepReport { profile: profile.name().to_string(), jobs }))
}

/// The in-process transparency gate: serves `profile` through the
/// engine (result cache and snapshot pool), runs the *same* matrix
/// through the cold batch path ([`run_matrix`] — the library form of
/// `xsweep`'s default mode), and demands the two serialised reports be
/// byte-identical. Returns the served report on success.
///
/// # Errors
///
/// Names the first diverging job, or propagates a job failure.
pub fn transparency_gate(
    engine: &Arc<JobEngine>,
    workers: &WorkerPool,
    profile: Profile,
) -> Result<SweepReport, String> {
    let stop = Stop::new(false);
    let served = run_profile(engine, workers, profile, true, &stop, 0, |_, _, _, _| {})?
        .ok_or("served sweep aborted unexpectedly")?;
    let batch = run_matrix(profile, workers.workers());
    if served.to_json() == batch.to_json() {
        return Ok(served);
    }
    let key = served
        .jobs
        .iter()
        .zip(&batch.jobs)
        .find(|(a, b)| a != b)
        .map_or_else(|| "<report>".to_string(), |(a, _)| a.key.clone());
    Err(format!(
        "served report diverges from the cold batch report (first diverging job: {key}) — \
         serving must be transparent"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_pool_runs_submitted_tasks() {
        let pool = WorkerPool::new(4);
        let (tx, rx) = mpsc::channel();
        for i in 0..32usize {
            assert!(pool.submit(tx.clone(), move || i));
        }
        drop(tx);
        let mut got: Vec<usize> = rx.into_iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..32).collect::<Vec<_>>());
        pool.shutdown();
        let (tx, _rx) = mpsc::channel();
        assert!(!pool.submit(tx, || 0), "submit after shutdown must be refused");
    }

    #[test]
    fn a_panicking_task_does_not_kill_its_worker() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        assert!(pool.submit(tx.clone(), || -> i32 { panic!("seeded task panic") }));
        assert!(pool.submit(tx, || 7));
        assert_eq!(rx.recv(), Ok(7), "the same worker must run the next task");
        assert!(rx.recv().is_err(), "the panicked task must send nothing");
        assert_eq!(pool.alive(), 1, "the panic must not cost the pool its worker");
        pool.shutdown();
    }

    /// The result is sent only after the worker has left the busy
    /// count, so a submitter holding its answer sees an idle pool.
    #[test]
    fn a_received_result_finds_its_worker_idle() {
        let pool = WorkerPool::new(1);
        for i in 0..200u64 {
            let (tx, rx) = mpsc::channel();
            assert!(pool.submit(tx, move || i));
            assert_eq!(rx.recv(), Ok(i));
            assert_eq!(pool.busy(), 0, "round {i}: result in, worker still counted busy");
        }
        pool.shutdown();
    }

    #[test]
    fn stop_token_trips_once() {
        let stop = Stop::new(false);
        assert!(!stop.stopping());
        stop.clone().request();
        assert!(stop.stopping(), "clones share the flag");
    }
}
