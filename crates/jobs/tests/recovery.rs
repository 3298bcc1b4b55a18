//! Crash recovery: the acceptance test for the write-ahead journal.
//!
//! The headline test spawns the real `job_server` binary, submits a CSV
//! job over TCP, `kill -9`s the process mid-job, restarts it on the same
//! state directory, and asserts the job re-runs (exactly one more
//! attempt) to completion — with the produced model queryable on the
//! restarted server.

mod common;

use common::*;
use least_jobs::{JobQueue, JobRunner, JobState, QueueConfig, RunnerConfig};
use least_linalg::DenseMatrix;
use least_serve::json::JsonValue;
use least_serve::{ModelArtifact, ModelMeta, ModelRegistry, WeightMatrix};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Boot the real `job_server` on an ephemeral port over `dir`; returns
/// the child and its bound address.
fn spawn_job_server(dir: &Path, workers: usize) -> (Child, SocketAddr) {
    let addr_file = dir.join("addr.txt");
    std::fs::remove_file(&addr_file).ok();
    let child = Command::new(env!("CARGO_BIN_EXE_job_server"))
        .env("LEAST_JOBS_ADDR", "127.0.0.1:0")
        .env("LEAST_JOBS_DIR", dir)
        .env("LEAST_JOBS_ADDR_FILE", &addr_file)
        .env("LEAST_JOBS_WORKERS", workers.to_string())
        .spawn()
        .expect("spawn job_server");
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            if let Ok(addr) = text.trim().parse() {
                break addr;
            }
        }
        assert!(
            Instant::now() < deadline,
            "job_server never published its address"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    (child, addr)
}

#[test]
fn kill_dash_nine_mid_job_then_restart_completes_it() {
    let dir = temp_path("kill9", ".dir");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let csv = chain_csv("kill9", 20, 1_500, 12);

    // A job long enough that SIGKILL reliably lands mid-fit (inner_tol=0
    // disables early exit → deterministic iteration count, a few hundred
    // ms even in release builds), yet cheap enough for the restarted
    // server to finish in test time.
    let spec = format!(
        r#"{{"model":"phoenix","source":{{"kind":"csv","path":{:?}}},
            "threshold":0.3,
            "config":{{"max_outer":12,"max_inner":1500,"epsilon":1e-12,
                       "inner_tol":0,"theta":0,"seed":2,"lambda":0.05,
                       "learning_rate":0.02}}}}"#,
        csv.display().to_string()
    );

    // Phase 1: submit, wait until the job is running, kill -9.
    let (mut child, addr) = spawn_job_server(&dir, 1);
    let (status, body) = request_once(addr, "POST", "/jobs", spec.as_bytes());
    assert_eq!(status, 201, "{}", body.render());
    let id = body.get("id").and_then(JsonValue::as_usize).unwrap() as u64;
    poll_job(addr, id, &["running"], Duration::from_secs(60));
    child.kill().expect("SIGKILL");
    child.wait().expect("reap");

    // Phase 2: restart on the same directory. The journal shows a
    // Submitted + Started with no terminal record → the job is
    // re-enqueued and re-runs exactly once more (attempt 2).
    let (mut child, addr) = spawn_job_server(&dir, 1);
    let snapshot = poll_job(addr, id, &["succeeded"], Duration::from_secs(120));
    assert_eq!(
        snapshot.get("attempts").and_then(JsonValue::as_usize),
        Some(2),
        "crashed attempt 1 + recovery attempt 2: {}",
        snapshot.render()
    );
    let version = snapshot
        .get("model_version")
        .and_then(JsonValue::as_usize)
        .expect("model version");

    // The model is live on the restarted server.
    let (status, listing) = request_once(addr, "GET", "/models", b"");
    assert_eq!(status, 200);
    let models = listing.get("models").and_then(JsonValue::as_array).unwrap();
    assert_eq!(
        models[0].get("id").and_then(JsonValue::as_str),
        Some("phoenix")
    );
    assert_eq!(
        models[0].get("version").and_then(JsonValue::as_usize),
        Some(version)
    );
    let (status, answer) = request_once(
        addr,
        "POST",
        "/models/phoenix/query",
        br#"{"kind":"markov_blanket","node":1}"#,
    );
    assert_eq!(status, 200, "{}", answer.render());

    // The artifact was persisted under the job's version.
    let persisted = dir.join("models").join(format!("phoenix.v{version}.model"));
    assert!(persisted.exists(), "missing {}", persisted.display());

    // Clean shutdown of the restarted server.
    let (status, _) = request_once(addr, "POST", "/shutdown", b"");
    assert_eq!(status, 200);
    let code = child.wait().expect("wait");
    assert!(code.success(), "job_server exited {code:?}");

    // Phase 3: a third boot replays the full history — the job is still
    // exactly-once-succeeded, not re-run.
    let queue = JobQueue::open(dir.join("jobs.journal"), QueueConfig::default()).unwrap();
    let snap = queue.get(id).unwrap();
    assert_eq!(snap.state, JobState::Succeeded);
    assert_eq!(snap.attempts, 2, "no third attempt after success");
    queue.stop_workers();
    assert!(queue.claim().unwrap().is_none(), "nothing left to run");

    std::fs::remove_file(&csv).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn leftover_temp_artifact_neither_breaks_boot_nor_loads() {
    let dir = temp_path("leftover_tmp", ".dir");
    std::fs::remove_dir_all(&dir).ok();
    let models = dir.join("models");
    std::fs::create_dir_all(&models).unwrap();
    let artifact = ModelArtifact::new(
        WeightMatrix::Dense(DenseMatrix::zeros(2, 2)),
        vec![0.0; 2],
        vec![1.0; 2],
        ModelMeta {
            threshold: 0.1,
            fingerprint: "kept".into(),
        },
    )
    .unwrap();
    artifact.save_to_path(models.join("kept.v1.model")).unwrap();
    // What a crash mid-save leaves behind: a torn temp file of a newer
    // version, and a whole one that never got renamed into place.
    let bytes = artifact.to_bytes();
    std::fs::write(models.join("kept.v2.model.tmp"), &bytes[..bytes.len() / 2]).unwrap();
    std::fs::write(models.join("ghost.v3.model.tmp"), &bytes).unwrap();

    let (mut child, addr) = spawn_job_server(&dir, 1);
    let (status, listing) = request_once(addr, "GET", "/models", b"");
    assert_eq!(status, 200, "{}", listing.render());
    let models = listing.get("models").and_then(JsonValue::as_array).unwrap();
    let ids: Vec<_> = models
        .iter()
        .filter_map(|m| m.get("id").and_then(JsonValue::as_str))
        .collect();
    assert_eq!(ids, ["kept"], "{}", listing.render());
    let (status, _) = request_once(addr, "POST", "/shutdown", b"");
    assert_eq!(status, 200);
    assert!(child.wait().expect("wait").success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_loop_exhausts_attempt_cap() {
    // A job whose source vanishes after submit fails on every attempt;
    // with max_attempts = 2 the second failure is terminal.
    let csv = chain_csv("cap", 4, 200, 13);
    let journal = temp_path("cap", ".journal");
    std::fs::remove_file(&journal).ok();
    let queue = Arc::new(JobQueue::open(&journal, QueueConfig { max_attempts: 2 }).unwrap());
    let registry = Arc::new(ModelRegistry::new());
    let runner = JobRunner::new(
        Arc::clone(&queue),
        Arc::clone(&registry),
        RunnerConfig {
            workers: 1,
            artifact_dir: None,
        },
    );
    let spec = least_jobs::JobSpec::parse_str(&quick_spec("ghost", &csv)).unwrap();
    std::fs::remove_file(&csv).unwrap(); // the source is gone before any attempt
    let id = queue.submit(spec).unwrap();

    // Attempt 1 fails → re-enqueued; attempt 2 fails → terminal.
    let (rid, outcome) = runner.run_one().unwrap().unwrap();
    assert_eq!(rid, id);
    assert_eq!(outcome, least_jobs::Outcome::Errored(JobState::Queued));
    let (_, outcome) = runner.run_one().unwrap().unwrap();
    assert_eq!(outcome, least_jobs::Outcome::Errored(JobState::Failed));
    let snap = queue.get(id).unwrap();
    assert_eq!(snap.attempts, 2);
    assert!(snap.error.as_ref().unwrap().contains("giving up"));

    // Restart: the terminal failure is stable, nothing re-enqueues.
    drop(runner);
    drop(queue);
    let queue = JobQueue::open(&journal, QueueConfig { max_attempts: 2 }).unwrap();
    assert_eq!(queue.get(id).unwrap().state, JobState::Failed);
    std::fs::remove_file(&journal).ok();
}

#[test]
fn simulated_crash_at_attempt_cap_fails_on_recovery() {
    // Crash (claim with no terminal record) while already at the cap:
    // recovery must mark the job failed, not loop it forever.
    let journal = temp_path("cap_crash", ".journal");
    std::fs::remove_file(&journal).ok();
    let spec = least_jobs::JobSpec::parse_str(
        r#"{"model":"m","source":{"kind":"csv","path":"/nope.csv"}}"#,
    )
    .unwrap();
    {
        let queue = JobQueue::open(&journal, QueueConfig { max_attempts: 1 }).unwrap();
        queue.submit(spec).unwrap();
        queue.claim().unwrap().unwrap(); // attempt 1 claimed... and the process dies
    }
    let queue = JobQueue::open(&journal, QueueConfig { max_attempts: 1 }).unwrap();
    let snap = &queue.list(Some(JobState::Failed))[0];
    assert!(snap.error.as_ref().unwrap().contains("cap"));
    std::fs::remove_file(&journal).ok();
}
