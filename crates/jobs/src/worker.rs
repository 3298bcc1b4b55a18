//! [`JobRunner`]: the worker pool that turns claimed jobs into registered
//! models.
//!
//! Each worker executes a job end-to-end through the existing layers:
//!
//! ```text
//! source file ──ingest──► SufficientStats ──fit_stats──► structure
//!      └─(stats artifact loads directly)       │ graph(τ)
//!                                              ▼
//!                       FittedSem::fit_from_stats (per-node OLS)
//!                                              │
//!                   ModelArtifact ──► registry.insert  (hot, versioned)
//!                        └──► artifact_dir/{model}.v{version}.model
//! ```
//!
//! Workers are scoped OS threads sized by `least_linalg::par` (the same
//! `LEAST_NUM_THREADS` knob as every other pool in the workspace).
//! Cancellation is cooperative: the cancel flag is checked at stage
//! boundaries and once more — atomically with the state transition — in
//! [`JobQueue::try_finish`] before the model is registered, so a
//! cancelled job never publishes a model.

use crate::error::Result;
use crate::queue::{Claim, JobQueue, JobState};
use crate::spec::{JobBackend, JobSource, JobSpec};
use least_core::{FittedSem, LeastDense, LeastSparse};
use least_data::SufficientStats;
use least_ingest::{ingest_binary, ingest_csv, IngestConfig};
use least_linalg::serialize::write_file_atomic;
use least_serve::{ModelArtifact, ModelRegistry};
use std::path::PathBuf;
use std::sync::Arc;

/// Worker-pool tuning knobs.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Concurrent workers. Defaults to the `least_linalg::par` pool
    /// width; each job is itself internally parallel, so more workers
    /// than cores buys queueing fairness, not throughput.
    pub workers: usize,
    /// When set, every produced artifact is also persisted here as
    /// `{model}.v{version}.model` (the registry holds it in memory
    /// either way).
    pub artifact_dir: Option<PathBuf>,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            workers: least_linalg::par::max_threads(),
            artifact_dir: None,
        }
    }
}

/// The worker pool: claims jobs from a [`JobQueue`], executes them, and
/// hot-registers the results into a live [`ModelRegistry`].
#[derive(Debug)]
pub struct JobRunner {
    queue: Arc<JobQueue>,
    registry: Arc<ModelRegistry>,
    config: RunnerConfig,
}

/// How one claimed attempt ended (returned by [`JobRunner::run_one`],
/// mostly for tests and benchmarks; [`JobRunner::run`] just loops).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Model registered under this version; job succeeded.
    Registered(u64),
    /// A pending cancel was observed; no model was registered.
    Cancelled,
    /// The attempt failed; the job is now in the returned state
    /// (`Queued` = re-enqueued for retry, `Failed` = attempt cap hit,
    /// `Cancelled` = cancel arrived before the failure was recorded).
    Errored(JobState),
}

impl JobRunner {
    /// Build a runner over a queue and the (typically live-serving)
    /// registry its models are published into.
    pub fn new(queue: Arc<JobQueue>, registry: Arc<ModelRegistry>, config: RunnerConfig) -> Self {
        Self {
            queue,
            registry,
            config,
        }
    }

    /// Run `config.workers` scoped worker threads until the queue's
    /// [`JobQueue::stop_workers`] is observed. In-flight jobs finish
    /// first; every worker has joined when this returns.
    pub fn run(&self) {
        let workers = self.config.workers.max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    match self.queue.claim() {
                        Ok(None) => return,
                        Ok(Some(claim)) => {
                            let id = claim.id;
                            // Job errors are absorbed into job state; an
                            // Err here means the *journal* failed, which
                            // is fatal to this worker (remaining workers
                            // keep draining, the queue heals on restart).
                            if let Err(e) = self.resolve(claim) {
                                eprintln!("worker: journal failure on job {id}, stopping: {e}");
                                return;
                            }
                        }
                        Err(e) => {
                            eprintln!("worker: journal failure while claiming, stopping: {e}");
                            return;
                        }
                    }
                });
            }
        });
    }

    /// Claim and execute exactly one job if one is ready; `None` when the
    /// queue is stopped. (The serial building block `run` parallelizes.)
    pub fn run_one(&self) -> Result<Option<(u64, Outcome)>> {
        match self.queue.claim()? {
            None => Ok(None),
            Some(claim) => {
                let id = claim.id;
                let outcome = self.resolve(claim)?;
                Ok(Some((id, outcome)))
            }
        }
    }

    /// Execute a claim and record its outcome on the queue. `Err` here
    /// means the *queue* (journal I/O) failed, not the job.
    fn resolve(&self, claim: Claim) -> Result<Outcome> {
        let id = claim.id;
        match self.execute(&claim) {
            // execute() already journaled the completion (before
            // persisting the artifact — see the ordering note there).
            Ok(Some(version)) => Ok(Outcome::Registered(version)),
            Ok(None) => Ok(Outcome::Cancelled),
            Err(message) => {
                // fail() resolves the retry-vs-cancel race under the
                // queue lock: a pending cancel outranks re-enqueueing.
                let state = self.queue.fail(id, message)?;
                Ok(Outcome::Errored(state))
            }
        }
    }

    /// The job pipeline. `Ok(Some(version))` = registered and completed;
    /// `Ok(None)` = cancelled before publication; `Err` = attempt failed.
    fn execute(&self, claim: &Claim) -> std::result::Result<Option<u64>, String> {
        let spec = &claim.spec;
        let stats = load_stats(&claim.spec)
            .map_err(|e| format!("loading {}: {e}", spec.source.path().display()))?;

        if self.queue.cancel_requested(claim.id) {
            return self.observe_cancel(claim.id);
        }

        let structure = learn_structure(spec, &stats).map_err(|e| format!("structure: {e}"))?;

        if self.queue.cancel_requested(claim.id) {
            return self.observe_cancel(claim.id);
        }

        let sem = FittedSem::fit_from_stats(&structure, &stats)
            .map_err(|e| format!("parameter fit: {e}"))?;
        let fingerprint = format!(
            "job {} attempt {}: model '{}' from {} {} (n={}, d={})",
            claim.id,
            claim.attempt,
            spec.model,
            spec.source.kind(),
            spec.source.path().display(),
            stats.n,
            stats.dim(),
        );
        let artifact = ModelArtifact::from_fitted(&sem, spec.threshold, &fingerprint)
            .map_err(|e| format!("artifact: {e}"))?;

        // Last gate: atomically either commit to publishing or honor a
        // pending cancel. After this returns true the job will succeed
        // (a cancel arriving in the short insert→complete window below
        // gets a 202 but loses the race; the job's final state is the
        // truth and `cancel_requested` is cleared on completion).
        match self.queue.try_finish(claim.id) {
            Ok(true) => {}
            Ok(false) => return Ok(None),
            Err(e) => return Err(format!("queue: {e}")),
        }
        // Serialize before the insert consumes the artifact — but only
        // when the bytes will actually be persisted.
        let bytes = self
            .config
            .artifact_dir
            .is_some()
            .then(|| artifact.to_bytes());
        let version = self
            .registry
            .insert(&spec.model, artifact)
            .map_err(|e| format!("registration: {e}"))?;
        self.queue
            .complete(claim.id, version)
            .map_err(|e| format!("queue: {e}"))?;
        // Persist only *after* the success is durable: an artifact file
        // must never outlive a job that recovery will decide was
        // cancelled or crashed, or a restart would re-serve a model the
        // journal says was never produced. (The in-memory registration
        // above dies with the process, so it cannot leak that way.)
        // The write itself is best-effort: the model is already live and
        // the success already journaled; failing the job now would
        // re-run it.
        if let (Some(dir), Some(bytes)) = (&self.config.artifact_dir, bytes) {
            let path = dir.join(format!("{}.v{version}.model", spec.model));
            if let Err(e) = write_file_atomic(&path, &bytes) {
                eprintln!("warning: persisting {} failed: {e}", path.display());
            }
        }
        Ok(Some(version))
    }

    /// A stage boundary saw a pending cancel: make it durable through
    /// the same gate the success path uses. (Cancel requests are never
    /// withdrawn, so the gate always confirms; the `true` arm only
    /// exists to keep the state machine honest if that ever changes —
    /// it re-queues the job rather than losing it.)
    fn observe_cancel(&self, id: u64) -> std::result::Result<Option<u64>, String> {
        match self.queue.try_finish(id) {
            Ok(true) => Err("cancel observed mid-pipeline but gate disagreed".into()),
            Ok(false) => Ok(None),
            Err(e) => Err(format!("queue: {e}")),
        }
    }
}

/// Load sufficient statistics from whichever source the spec names.
fn load_stats(spec: &JobSpec) -> least_linalg::Result<SufficientStats> {
    let config = IngestConfig::default();
    match &spec.source {
        JobSource::Csv(path) => ingest_csv(path, &config),
        JobSource::Binary(path) => ingest_binary(path, &config),
        JobSource::Stats(path) => SufficientStats::load(path),
    }
}

/// Structure learning on the chosen backend, thresholded at `τ`.
fn learn_structure(
    spec: &JobSpec,
    stats: &SufficientStats,
) -> least_linalg::Result<least_graph::DiGraph> {
    match spec.backend {
        JobBackend::Dense => {
            let learned = LeastDense::new(spec.config)?.fit_stats(stats)?;
            Ok(learned.graph(spec.threshold))
        }
        JobBackend::Sparse => {
            let learned = LeastSparse::new(spec.config)?.fit_stats(stats)?;
            Ok(learned.graph(spec.threshold))
        }
    }
}
