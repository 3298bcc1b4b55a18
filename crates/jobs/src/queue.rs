//! [`JobQueue`]: a persistent priority+FIFO queue of training jobs.
//!
//! In memory it is a `Mutex`-guarded job table plus a ready-heap and a
//! `Condvar` for blocking workers; on disk it is the write-ahead
//! [`journal`](crate::journal). One private function, `Inner::apply`,
//! is the job state machine: it is the only code that changes a job's
//! fields, and it takes a journal record. A live operation picks the
//! record its transition needs and *commits* it — append and fsync,
//! then `apply` — so the in-memory state never runs ahead of the disk.
//! [`JobQueue::open`] replays the journal through the same `apply`, so
//! a restarted queue holds exactly the jobs the live one held, and then
//! applies these recovery rules:
//!
//! * `queued` jobs stay queued;
//! * `running` jobs were lost mid-attempt: they are re-enqueued, unless
//!   the attempt cap is exhausted (→ `failed`) or a durable cancel
//!   request was pending (→ `cancelled`);
//! * terminal jobs (`succeeded` / `failed` / `cancelled`) keep their
//!   history, so `GET /jobs/{id}` answers across restarts.
//!
//! Scheduling: higher `priority` first, FIFO (submit order) within a
//! priority.

use crate::error::{JobError, Result};
use crate::journal::{Journal, Record};
use crate::spec::JobSpec;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::path::Path;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Queue tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct QueueConfig {
    /// Maximum `Started` attempts per job (failures and crashes both
    /// consume attempts). The default allows two retries.
    pub max_attempts: u32,
}

impl Default for QueueConfig {
    fn default() -> Self {
        Self { max_attempts: 3 }
    }
}

/// Lifecycle state of a job. Transitions:
///
/// ```text
/// queued ──claim──► running ──complete──► succeeded
///   ▲                 │ fail (attempts left)
///   └─────────────────┤
///   cancel            │ fail (cap) ─► failed
/// cancelled ◄─────────┘ cancel observed
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting for a worker.
    Queued,
    /// Claimed by a worker.
    Running,
    /// Finished; the model is registered.
    Succeeded,
    /// Terminal failure.
    Failed,
    /// Terminal cancellation.
    Cancelled,
}

impl JobState {
    /// Wire name (`"queued"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Succeeded => "succeeded",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`Self::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "succeeded" => JobState::Succeeded,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            _ => return None,
        })
    }
}

/// One job's public state; the queue's table stores these, and
/// [`JobQueue::get`] returns a copy.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSnapshot {
    /// Queue-assigned id (monotonic from 1).
    pub id: u64,
    /// The validated spec as submitted.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub state: JobState,
    /// `Started` attempts so far (crashes included).
    pub attempts: u32,
    /// A cancel arrived while running. Stays set on the job it
    /// cancelled; cleared when the job completes anyway.
    pub cancel_requested: bool,
    /// Most recent failure message, if any.
    pub error: Option<String>,
    /// Registry version of the produced model (terminal successes).
    pub model_version: Option<u64>,
}

/// One window of the job listing (see [`JobQueue::list_page`]).
#[derive(Debug, Clone)]
pub struct JobPage {
    /// The jobs inside the requested window, ordered by id.
    pub jobs: Vec<JobSnapshot>,
    /// Size of the full filtered set, independent of the window.
    pub total: usize,
}

/// Per-state job counts (for health/status endpoints).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounts {
    pub queued: usize,
    pub running: usize,
    pub succeeded: usize,
    pub failed: usize,
    pub cancelled: usize,
}

/// What [`JobQueue::cancel`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued: cancelled immediately.
    CancelledQueued,
    /// The job is running: a durable cancel request was recorded; the
    /// worker observes it at its next stage boundary.
    CancelRequested,
    /// The job is already terminal; nothing to cancel.
    AlreadyTerminal(JobState),
    /// No such job id.
    NotFound,
}

/// A claimed job handed to a worker. The worker must resolve it with
/// exactly one of [`JobQueue::complete`], [`JobQueue::fail`], or (via a
/// `false` return from [`JobQueue::try_finish`]) a cancellation.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Job id.
    pub id: u64,
    /// This attempt's number (1-based).
    pub attempt: u32,
    /// The spec to execute.
    pub spec: JobSpec,
}

#[derive(Debug)]
struct Inner {
    journal: Journal,
    jobs: BTreeMap<u64, JobSnapshot>,
    /// Ready jobs keyed `(priority, Reverse(id))` under max-heap order:
    /// higher priority first, then lower id (FIFO). Entries can go stale
    /// (job cancelled or re-claimed); [`JobQueue::claim`] skips those.
    heap: BinaryHeap<(i64, Reverse<u64>)>,
    next_id: u64,
    stop: bool,
}

impl Inner {
    fn job(&self, id: u64) -> Result<&JobSnapshot> {
        self.jobs.get(&id).ok_or(JobError::UnknownJob(id))
    }

    /// The job, if it is running; otherwise `op` is an invalid
    /// transition.
    fn running(&self, id: u64, op: &'static str) -> Result<&JobSnapshot> {
        let job = self.job(id)?;
        match job.state {
            JobState::Running => Ok(job),
            state => Err(JobError::InvalidTransition { id, op, state }),
        }
    }

    /// Make `record` durable, then apply it.
    fn commit(&mut self, record: Record) -> Result<()> {
        self.journal.append(&record)?;
        self.apply(record)
    }

    /// The state machine: the only code that changes a job's fields,
    /// shared by live operations (through [`Self::commit`]) and replay.
    /// Callers check that a transition is legal before they journal it;
    /// `apply` only records its effect.
    fn apply(&mut self, record: Record) -> Result<()> {
        let id = record.id();
        if let Record::Submitted { spec_json, .. } = record {
            // The journaled JSON, not the caller's value, is the spec, so
            // a live job and its replay cannot differ.
            let spec = JobSpec::parse_str(&spec_json)?;
            self.next_id = self.next_id.max(id + 1);
            self.heap.push((spec.priority, Reverse(id)));
            let job = JobSnapshot {
                id,
                spec,
                state: JobState::Queued,
                attempts: 0,
                cancel_requested: false,
                error: None,
                model_version: None,
            };
            self.jobs.insert(id, job);
            return Ok(());
        }
        let job = self.jobs.get_mut(&id).ok_or(JobError::UnknownJob(id))?;
        match record {
            Record::Submitted { .. } => unreachable!("handled above"),
            Record::Started { attempt, .. } => {
                job.state = JobState::Running;
                job.attempts = job.attempts.max(attempt);
            }
            Record::Retried { error, .. } => {
                job.state = JobState::Queued;
                job.error = Some(error);
                self.heap.push((job.spec.priority, Reverse(id)));
            }
            Record::Completed { model_version, .. } => {
                job.state = JobState::Succeeded;
                job.model_version = Some(model_version);
                job.error = None;
                // A cancel that lost the race with completion is moot;
                // don't leave the flag dangling on a succeeded job.
                job.cancel_requested = false;
            }
            Record::Failed { error, .. } => {
                job.state = JobState::Failed;
                job.error = Some(error);
            }
            Record::Cancelled { .. } => job.state = JobState::Cancelled,
            Record::CancelRequested { .. } => job.cancel_requested = true,
        }
        Ok(())
    }
}

/// The persistent job queue. All methods are `&self` and thread-safe.
#[derive(Debug)]
pub struct JobQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
    config: QueueConfig,
}

impl JobQueue {
    /// Open (creating if absent) the queue journaled at `path`, replaying
    /// and applying the crash-recovery rules described at module level.
    pub fn open(path: impl AsRef<Path>, config: QueueConfig) -> Result<Self> {
        let (journal, records) = Journal::open(path)?;
        let mut inner = Inner {
            journal,
            jobs: BTreeMap::new(),
            heap: BinaryHeap::new(),
            next_id: 1,
            stop: false,
        };
        for record in records {
            inner.apply(record)?;
        }

        // Crash recovery: a job that is `running` in the replay was lost
        // with its process.
        let crashed: Vec<u64> = inner
            .jobs
            .values()
            .filter(|job| job.state == JobState::Running)
            .map(|job| job.id)
            .collect();
        for id in crashed {
            let job = inner.job(id)?;
            if job.cancel_requested {
                inner.commit(Record::Cancelled { id })?;
            } else if job.attempts >= config.max_attempts {
                let error = format!(
                    "process died during attempt {} and the {}-attempt cap is reached",
                    job.attempts, config.max_attempts
                );
                inner.commit(Record::Failed { id, error })?;
            } else {
                // Not journaled: the replayed `Started` already counts
                // the lost attempt, and the next claim journals its own.
                inner
                    .jobs
                    .get_mut(&id)
                    .expect("crashed job is in the table")
                    .state = JobState::Queued;
            }
        }

        // Replay pushed an entry per `Submitted` and `Retried`; keep one
        // per job that is queued now.
        inner.heap = inner
            .jobs
            .values()
            .filter(|job| job.state == JobState::Queued)
            .map(|job| (job.spec.priority, Reverse(job.id)))
            .collect();
        Ok(Self {
            inner: Mutex::new(inner),
            ready: Condvar::new(),
            config,
        })
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("queue lock poisoned")
    }

    /// Durably enqueue a (pre-validated) spec. Returns the job id.
    pub fn submit(&self, spec: JobSpec) -> Result<u64> {
        let mut inner = self.lock();
        let id = inner.next_id;
        inner.commit(Record::Submitted {
            id,
            spec_json: spec.to_json().render(),
        })?;
        drop(inner);
        self.ready.notify_one();
        Ok(id)
    }

    /// Block until a job is ready (returning a durable [`Claim`]) or
    /// [`Self::stop_workers`] is called (returning `Ok(None)`).
    pub fn claim(&self) -> Result<Option<Claim>> {
        let mut inner = self.lock();
        loop {
            if inner.stop {
                return Ok(None);
            }
            // Pop until a live queued entry surfaces (stale heap entries
            // — cancelled or already-claimed ids — are skipped).
            while let Some(entry) = inner.heap.pop() {
                let Reverse(id) = entry.1;
                let Some(job) = inner.jobs.get(&id).filter(|j| j.state == JobState::Queued) else {
                    continue;
                };
                let attempt = job.attempts + 1;
                if let Err(e) = inner.commit(Record::Started { id, attempt }) {
                    // The claim never became durable: put the popped
                    // entry back so the job stays claimable once the
                    // journal recovers, instead of stranding it queued
                    // with no heap reference until a restart.
                    inner.heap.push(entry);
                    return Err(e);
                }
                let spec = inner.job(id)?.spec.clone();
                return Ok(Some(Claim { id, attempt, spec }));
            }
            inner = self.ready.wait(inner).expect("queue lock poisoned");
        }
    }

    /// The cancel gate for a running job. Returns `false` — after
    /// durably cancelling the job — if a cancel request is pending;
    /// then the worker must stop and must *not* register a model.
    /// Workers pass it at every stage boundary and last before
    /// publishing.
    pub fn try_finish(&self, id: u64) -> Result<bool> {
        let mut inner = self.lock();
        if inner.running(id, "finish")?.cancel_requested {
            inner.commit(Record::Cancelled { id })?;
            return Ok(false);
        }
        Ok(true)
    }

    /// Mark a running job succeeded with its registered model version.
    /// A cancel may have arrived in the publication window after the
    /// [`Self::try_finish`] gate; it lost the race (the model is live),
    /// and completion clears it.
    pub fn complete(&self, id: u64, model_version: u64) -> Result<()> {
        let mut inner = self.lock();
        inner.running(id, "complete")?;
        inner.commit(Record::Completed { id, model_version })
    }

    /// Record a failed attempt. Re-enqueues while attempts remain (unless
    /// a cancel is pending, which wins and drops `error`: the
    /// `Cancelled` record has no error field); otherwise the job is
    /// terminally failed. Returns the state the job ended up in.
    pub fn fail(&self, id: u64, error: impl Into<String>) -> Result<JobState> {
        let error = error.into();
        let mut inner = self.lock();
        let job = inner.running(id, "fail")?;
        let record = if job.cancel_requested {
            Record::Cancelled { id }
        } else if job.attempts < self.config.max_attempts {
            Record::Retried { id, error }
        } else {
            let error = format!(
                "{error} (attempt {} of {}; giving up)",
                job.attempts, self.config.max_attempts
            );
            Record::Failed { id, error }
        };
        inner.commit(record)?;
        let state = inner.job(id)?.state;
        drop(inner);
        if state == JobState::Queued {
            self.ready.notify_one();
        }
        Ok(state)
    }

    /// Cancel a job; see [`CancelOutcome`] for the queued/running split.
    pub fn cancel(&self, id: u64) -> Result<CancelOutcome> {
        let mut inner = self.lock();
        let Some(job) = inner.jobs.get(&id) else {
            return Ok(CancelOutcome::NotFound);
        };
        let (record, outcome) = match job.state {
            JobState::Queued => (Record::Cancelled { id }, CancelOutcome::CancelledQueued),
            JobState::Running if job.cancel_requested => return Ok(CancelOutcome::CancelRequested),
            JobState::Running => (
                Record::CancelRequested { id },
                CancelOutcome::CancelRequested,
            ),
            terminal => return Ok(CancelOutcome::AlreadyTerminal(terminal)),
        };
        inner.commit(record)?;
        Ok(outcome)
    }

    /// Snapshot one job.
    pub fn get(&self, id: u64) -> Option<JobSnapshot> {
        self.lock().jobs.get(&id).cloned()
    }

    /// Snapshot all jobs (optionally filtered by state), ordered by id.
    pub fn list(&self, state: Option<JobState>) -> Vec<JobSnapshot> {
        self.list_page(state, least_serve::Pagination::default())
            .jobs
    }

    /// One `offset`/`limit` window of the (optionally state-filtered)
    /// job listing, ordered by id, plus the **stable total**: the size
    /// of the full filtered set, independent of the window — what a
    /// paging client needs to know when to stop. Snapshotting only the
    /// window keeps `GET /jobs` O(window) in clones even when the
    /// terminal history has grown unbounded (journal compaction is the
    /// other half of that story; see DESIGN.md §10.3).
    pub fn list_page(&self, state: Option<JobState>, page: least_serve::Pagination) -> JobPage {
        let inner = self.lock();
        let mut total = 0usize;
        let limit = page.limit.unwrap_or(usize::MAX);
        let mut jobs = Vec::new();
        for job in inner.jobs.values() {
            if !state.is_none_or(|s| job.state == s) {
                continue;
            }
            if total >= page.offset && jobs.len() < limit {
                jobs.push(job.clone());
            }
            total += 1;
        }
        JobPage { jobs, total }
    }

    /// Per-state counts.
    pub fn counts(&self) -> QueueCounts {
        let mut c = QueueCounts::default();
        for job in self.lock().jobs.values() {
            match job.state {
                JobState::Queued => c.queued += 1,
                JobState::Running => c.running += 1,
                JobState::Succeeded => c.succeeded += 1,
                JobState::Failed => c.failed += 1,
                JobState::Cancelled => c.cancelled += 1,
            }
        }
        c
    }

    /// Ask blocked and future [`Self::claim`] calls to return `None`.
    /// Workers finish their in-flight job first — that is the graceful
    /// half of shutdown; the journal covers the ungraceful half.
    pub fn stop_workers(&self) {
        self.lock().stop = true;
        self.ready.notify_all();
    }

    /// The configured attempt cap.
    pub fn max_attempts(&self) -> u32 {
        self.config.max_attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_journal(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "least_jobs_queue_{name}_{}.journal",
            std::process::id()
        ));
        std::fs::remove_file(&p).ok();
        p
    }

    fn spec(model: &str, priority: i64) -> JobSpec {
        JobSpec::parse_str(&format!(
            r#"{{"model":"{model}","source":{{"kind":"csv","path":"/tmp/x.csv"}},"priority":{priority}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn priority_then_fifo_ordering() {
        let path = temp_journal("order");
        let q = JobQueue::open(&path, QueueConfig::default()).unwrap();
        let low1 = q.submit(spec("low1", 0)).unwrap();
        let low2 = q.submit(spec("low2", 0)).unwrap();
        let high = q.submit(spec("high", 5)).unwrap();
        let ids: Vec<u64> = (0..3).map(|_| q.claim().unwrap().unwrap().id).collect();
        assert_eq!(ids, vec![high, low1, low2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lifecycle_submit_claim_complete() {
        let path = temp_journal("lifecycle");
        let q = JobQueue::open(&path, QueueConfig::default()).unwrap();
        let id = q.submit(spec("m", 0)).unwrap();
        assert_eq!(q.get(id).unwrap().state, JobState::Queued);
        let claim = q.claim().unwrap().unwrap();
        assert_eq!((claim.id, claim.attempt), (id, 1));
        assert_eq!(q.get(id).unwrap().state, JobState::Running);
        assert!(q.try_finish(id).unwrap());
        q.complete(id, 7).unwrap();
        let snap = q.get(id).unwrap();
        assert_eq!(snap.state, JobState::Succeeded);
        assert_eq!(snap.model_version, Some(7));
        // Double-complete is an invalid transition.
        assert!(matches!(
            q.complete(id, 8),
            Err(JobError::InvalidTransition { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fail_retries_until_cap_then_fails() {
        let path = temp_journal("retries");
        let q = JobQueue::open(&path, QueueConfig { max_attempts: 2 }).unwrap();
        let id = q.submit(spec("m", 0)).unwrap();
        assert_eq!(q.claim().unwrap().unwrap().attempt, 1);
        assert_eq!(q.fail(id, "boom").unwrap(), JobState::Queued);
        assert_eq!(q.claim().unwrap().unwrap().attempt, 2);
        assert_eq!(q.fail(id, "boom again").unwrap(), JobState::Failed);
        let snap = q.get(id).unwrap();
        assert_eq!(snap.attempts, 2);
        assert!(snap.error.unwrap().contains("giving up"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cancel_queued_vs_running_vs_terminal() {
        let path = temp_journal("cancel");
        let q = JobQueue::open(&path, QueueConfig::default()).unwrap();
        let a = q.submit(spec("a", 0)).unwrap();
        let b = q.submit(spec("b", -1)).unwrap();
        // Queued: immediate.
        assert_eq!(q.cancel(b).unwrap(), CancelOutcome::CancelledQueued);
        assert_eq!(q.get(b).unwrap().state, JobState::Cancelled);
        // Running: request + worker observation via try_finish.
        let claim = q.claim().unwrap().unwrap();
        assert_eq!(claim.id, a);
        assert_eq!(q.cancel(a).unwrap(), CancelOutcome::CancelRequested);
        assert!(q.get(a).unwrap().cancel_requested);
        assert!(!q.try_finish(a).unwrap(), "worker must drop the result");
        assert_eq!(q.get(a).unwrap().state, JobState::Cancelled);
        // Terminal: conflict.
        assert_eq!(
            q.cancel(a).unwrap(),
            CancelOutcome::AlreadyTerminal(JobState::Cancelled)
        );
        assert_eq!(q.cancel(999).unwrap(), CancelOutcome::NotFound);
        // The cancelled-when-queued job never reaches a worker.
        q.stop_workers();
        assert!(q.claim().unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }

    /// Reopen a copy of `path` (recovery appends to the journal it
    /// opens) and assert it holds the same jobs as `live`, each equal to
    /// the live snapshot unless it is running — replay requeues those.
    fn assert_replay_matches(live: &JobQueue, path: &Path, step: &str) {
        let copy = path.with_extension("replayed");
        std::fs::copy(path, &copy).unwrap();
        let replayed = JobQueue::open(&copy, live.config).unwrap();
        std::fs::remove_file(&copy).ok();
        let ids = |q: &JobQueue| q.list(None).iter().map(|j| j.id).collect::<Vec<_>>();
        assert_eq!(ids(&replayed), ids(live), "after {step}");
        for job in live.list(None) {
            if job.state != JobState::Running {
                assert_eq!(replayed.get(job.id).as_ref(), Some(&job), "after {step}");
            }
        }
    }

    #[test]
    fn replay_rebuilds_every_live_snapshot() {
        let path = temp_journal("replay");
        let q = JobQueue::open(&path, QueueConfig { max_attempts: 2 }).unwrap();
        let check = |step: &str| assert_replay_matches(&q, &path, step);

        let a = q.submit(spec("a", 0)).unwrap();
        check("submit");
        assert_eq!(q.claim().unwrap().unwrap().id, a);
        check("claim");
        assert_eq!(q.fail(a, "boom").unwrap(), JobState::Queued);
        check("fail with retry");
        q.claim().unwrap().unwrap();
        assert_eq!(q.fail(a, "boom again").unwrap(), JobState::Failed);
        check("fail at the cap");

        let b = q.submit(spec("b", 0)).unwrap();
        assert_eq!(q.cancel(b).unwrap(), CancelOutcome::CancelledQueued);
        check("cancel queued");

        let c = q.submit(spec("c", 0)).unwrap();
        q.claim().unwrap().unwrap();
        assert_eq!(q.cancel(c).unwrap(), CancelOutcome::CancelRequested);
        check("cancel running");
        assert_eq!(q.fail(c, "boom").unwrap(), JobState::Cancelled);
        check("fail with a cancel pending");

        let d = q.submit(spec("d", 0)).unwrap();
        q.claim().unwrap().unwrap();
        assert_eq!(q.cancel(d).unwrap(), CancelOutcome::CancelRequested);
        assert!(!q.try_finish(d).unwrap());
        check("try_finish with a cancel pending");

        let e = q.submit(spec("e", 0)).unwrap();
        q.claim().unwrap().unwrap();
        assert!(q.try_finish(e).unwrap());
        q.complete(e, 7).unwrap();
        check("complete");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn list_page_windows_with_stable_total() {
        let path = temp_journal("page");
        let q = JobQueue::open(&path, QueueConfig::default()).unwrap();
        for i in 0..5 {
            q.submit(spec(&format!("m{i}"), 0)).unwrap();
        }
        // Put job 1 in a different state so filtering has something to do.
        let claim = q.claim().unwrap().unwrap();
        assert_eq!(claim.id, 1);

        let page = q.list_page(
            None,
            least_serve::Pagination {
                offset: 1,
                limit: Some(2),
            },
        );
        assert_eq!(page.total, 5, "total is the full set, not the window");
        let ids: Vec<u64> = page.jobs.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![2, 3]);

        let filtered = q.list_page(
            Some(JobState::Queued),
            least_serve::Pagination {
                offset: 0,
                limit: Some(10),
            },
        );
        assert_eq!(filtered.total, 4, "the running job is filtered out");
        assert_eq!(filtered.jobs.len(), 4);

        // Windows past the end are empty but keep the stable total.
        let past = q.list_page(
            None,
            least_serve::Pagination {
                offset: 99,
                limit: Some(3),
            },
        );
        assert_eq!((past.jobs.len(), past.total), (0, 5));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restart_requeues_crashed_job_and_respects_cap() {
        let path = temp_journal("restart");
        {
            let q = JobQueue::open(&path, QueueConfig { max_attempts: 2 }).unwrap();
            let id = q.submit(spec("m", 0)).unwrap();
            let claim = q.claim().unwrap().unwrap();
            assert_eq!((claim.id, claim.attempt), (id, 1));
            // Process dies here: no terminal record.
        }
        {
            let q = JobQueue::open(&path, QueueConfig { max_attempts: 2 }).unwrap();
            let snap = &q.list(None)[0];
            assert_eq!(snap.state, JobState::Queued, "crashed job re-enqueued");
            assert_eq!(snap.attempts, 1);
            let claim = q.claim().unwrap().unwrap();
            assert_eq!(claim.attempt, 2, "exactly one more attempt");
            // Dies again, now at the cap.
        }
        {
            let q = JobQueue::open(&path, QueueConfig { max_attempts: 2 }).unwrap();
            let snap = &q.list(None)[0];
            assert_eq!(snap.state, JobState::Failed);
            assert!(snap.error.as_ref().unwrap().contains("cap"));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restart_honors_pending_cancel_on_crashed_job() {
        let path = temp_journal("restart_cancel");
        {
            let q = JobQueue::open(&path, QueueConfig::default()).unwrap();
            let id = q.submit(spec("m", 0)).unwrap();
            q.claim().unwrap().unwrap();
            assert_eq!(q.cancel(id).unwrap(), CancelOutcome::CancelRequested);
            // Crash before the worker observes the cancel.
        }
        let q = JobQueue::open(&path, QueueConfig::default()).unwrap();
        assert_eq!(q.list(None)[0].state, JobState::Cancelled);
        assert_eq!(q.counts().cancelled, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn terminal_history_survives_restart() {
        let path = temp_journal("history");
        {
            let q = JobQueue::open(&path, QueueConfig::default()).unwrap();
            let id = q.submit(spec("m", 0)).unwrap();
            q.claim().unwrap().unwrap();
            q.complete(id, 42).unwrap();
        }
        let q = JobQueue::open(&path, QueueConfig::default()).unwrap();
        let snap = q.get(1).unwrap();
        assert_eq!(snap.state, JobState::Succeeded);
        assert_eq!(snap.model_version, Some(42));
        assert_eq!(snap.spec.model, "m");
        // And new submissions keep ids monotonic.
        let id2 = q.submit(spec("m2", 0)).unwrap();
        assert_eq!(id2, 2);
        std::fs::remove_file(&path).ok();
    }
}
