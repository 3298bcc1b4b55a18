//! The program under test, booted in-process: job journal, model server
//! with the job routes mounted, and the job workers, all with the
//! program's default sizing. Plus the client side: HTTP helpers, the
//! closed-loop query load, and the submit-and-poll job client.

use crate::inputs::{Query, WorkDir};
use crate::stats::{Latencies, Tail, Tally};
use least_jobs::{JobQueue, JobRunner, JobService, QueueConfig, RunnerConfig};
use least_serve::json::{parse as parse_json, JsonValue};
use least_serve::{HttpClient, ModelRegistry, Server, ServerConfig};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shortest interval between two status polls of one job.
pub const POLL: f64 = 0.002;

/// Poll interval for a job submitted `age` seconds ago: [`POLL`], or 1%
/// of its age once that is longer, so the resolution stays within 1% of
/// the latency without a multi-second job drawing hundreds of polls.
pub fn poll_gap(age: f64) -> f64 {
    POLL.max(age / 100.0)
}

/// Every `SAMPLE_EVERY`-th query answer is kept for the byte-for-byte
/// comparison against the in-process engine.
const SAMPLE_EVERY: usize = 61;

/// Handles on a booted program.
pub struct Stack {
    pub addr: SocketAddr,
    pub registry: Arc<ModelRegistry>,
    pub queue: Arc<JobQueue>,
    pub journal: PathBuf,
}

/// Boot the program on a fresh journal, optionally upload `resident` as
/// model `resident`, run `work` against it, and shut it down. Returns
/// `work`'s result and the boot time in seconds (journal open through
/// the first answered health check and the resident upload).
pub fn with_stack<R>(
    dir: &WorkDir,
    resident: Option<&[u8]>,
    work: impl FnOnce(&Stack) -> R,
) -> (R, f64) {
    let journal = dir.join("jobs.journal");
    std::fs::remove_file(&journal).ok();
    let start = Instant::now();
    let queue = Arc::new(JobQueue::open(&journal, QueueConfig::default()).expect("open journal"));
    let registry = Arc::new(ModelRegistry::new());
    let mut server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServerConfig::default(),
    )
    .expect("bind server");
    JobService::new(Arc::clone(&queue)).mount(server.router_mut());
    let runner = JobRunner::new(
        Arc::clone(&queue),
        Arc::clone(&registry),
        RunnerConfig::default(),
    );
    let stack = Stack {
        addr: server.local_addr(),
        registry,
        queue,
        journal,
    };
    let shutdown = server.shutdown_handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(move || server.serve());
        let workers = scope.spawn(|| runner.run());
        // Stop the program before propagating a panic, or the scope
        // would wait forever on threads nobody told to stop.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            wait_healthy(stack.addr);
            if let Some(bytes) = resident {
                let (status, body) = request(stack.addr, "PUT", "/models/resident", bytes);
                assert_eq!(status, 201, "resident upload: {}", lossy(&body));
            }
            let boot = start.elapsed().as_secs_f64();
            (work(&stack), boot)
        }));
        shutdown.shutdown();
        stack.queue.stop_workers();
        serving
            .join()
            .expect("server thread")
            .expect("server accept loop");
        workers.join().expect("job workers");
        match outcome {
            Ok(done) => done,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

fn wait_healthy(addr: SocketAddr) {
    let (status, body) = request(addr, "GET", "/healthz", b"");
    assert_eq!(status, 200, "health check: {}", lossy(&body));
}

/// One request on a short-lived connection (closed before returning, so
/// it does not hold a server worker).
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    HttpClient::connect(addr)
        .and_then(|mut c| c.request(method, path, body))
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"))
}

pub fn lossy(body: &[u8]) -> String {
    String::from_utf8_lossy(body).into_owned()
}

fn json(body: &[u8]) -> Option<JsonValue> {
    parse_json(std::str::from_utf8(body).ok()?).ok()
}

/// A job spec for the job routes.
pub fn job_spec(model: &str, csv: &std::path::Path, config: &str) -> String {
    format!(
        r#"{{"model":"{model}","source":{{"kind":"csv","path":{:?}}},"config":{config}}}"#,
        csv.display().to_string()
    )
}

/// Submit a job; returns its id, or `None` if the server refused it.
pub fn submit(client: &mut HttpClient, spec: &str) -> Option<u64> {
    let (status, body) = client.request("POST", "/jobs", spec.as_bytes()).ok()?;
    if status != 201 {
        eprintln!("job refused ({status}): {}", lossy(&body));
        return None;
    }
    json(&body)?.get("id")?.as_usize().map(|id| id as u64)
}

/// A job's state and attempt count, as `GET /jobs/{id}` reports them.
pub fn poll(client: &mut HttpClient, id: u64) -> Option<(String, u64)> {
    let (status, body) = client.request("GET", &format!("/jobs/{id}"), b"").ok()?;
    let snap = json(&body).filter(|_| status == 200)?;
    let state = snap.get("state")?.as_str()?.to_string();
    let attempts = snap.get("attempts")?.as_usize()? as u64;
    Some((state, attempts))
}

/// One job followed from submission to the first answered query on the
/// model it published.
#[derive(Debug, Clone, Default)]
pub struct JobTrip {
    /// When the job was due, seconds into its phase.
    pub due: f64,
    /// Due time (for a closed-loop client, the submission) → success
    /// observed, seconds.
    pub latency: f64,
    /// First poll seeing `running` → success observed.
    pub service: Option<f64>,
    /// Submission → first poll seeing `running`.
    pub queue_wait: Option<f64>,
    /// Submission → first answered query on the published model.
    pub first_query: f64,
    pub submit_rtt: f64,
    pub polls: u64,
    pub attempts: u64,
}

/// Submit `spec` on a fresh connection, poll it (see [`poll_gap`]) until it
/// ends, close that connection, and send `first` to the published model
/// on a new one. `None` if the job failed or a request did.
pub fn job_trip(addr: SocketAddr, spec: &str, model: &str, first: &Query) -> Option<JobTrip> {
    let mut client = HttpClient::connect(addr).ok()?;
    let due = Instant::now();
    let id = submit(&mut client, spec)?;
    let mut trip = JobTrip {
        submit_rtt: due.elapsed().as_secs_f64(),
        ..JobTrip::default()
    };
    let mut running_at = None;
    loop {
        let age = due.elapsed().as_secs_f64();
        std::thread::sleep(Duration::from_secs_f64(poll_gap(age)));
        let (state, attempts) = poll(&mut client, id)?;
        trip.polls += 1;
        let now = due.elapsed().as_secs_f64();
        match state.as_str() {
            "queued" => {}
            "running" => {
                running_at.get_or_insert(now);
            }
            "succeeded" => {
                trip.latency = now;
                trip.attempts = attempts;
                trip.queue_wait = running_at;
                trip.service = running_at.map(|r| now - r);
                break;
            }
            other => {
                eprintln!("job {id} ended {other} after {attempts} attempt(s)");
                return None;
            }
        }
    }
    drop(client);
    let (status, _) = HttpClient::connect(addr)
        .and_then(|mut c| {
            c.request(
                "POST",
                &format!("/models/{model}/query"),
                first.body().as_bytes(),
            )
        })
        .ok()?;
    trip.first_query = due.elapsed().as_secs_f64();
    (status == 200).then_some(trip)
}

/// Length of the windows a query phase is cut into, seconds.
pub const WINDOW: f64 = 1.0;

/// Answers kept per connection for the byte-for-byte comparison.
const SAMPLES_PER_CONN: usize = 256;

/// Throughput and latency of one [`WINDOW`] of a query phase.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub answered: usize,
    pub p50: f64,
    pub p99: f64,
    /// Highest percentile with 10 samples beyond it, if any.
    pub tail: Option<Tail>,
}

/// What a closed-loop query phase measured.
#[derive(Debug, Default)]
pub struct QueryRun {
    /// Every complete window, in order. Reporting the median over windows
    /// keeps a burst of interference to the windows it hit.
    pub windows: Vec<Window>,
    pub tally: Tally,
    /// (mix index, answer body) of the sampled answers.
    pub samples: Vec<(usize, Vec<u8>)>,
}

impl QueryRun {
    /// Sampled answers that differ from the in-process engine's.
    pub fn mismatches(&self, mix: &[Query], engine: &least_serve::QueryEngine) -> usize {
        self.samples
            .iter()
            .filter(|(i, body)| mix[*i].answer(engine).as_bytes() != body.as_slice())
            .count()
    }
}

/// Collects each window's latencies from every connection and summarises
/// (and frees) the window once all connections have moved past it, so the
/// load generator's own memory stays small and out of `peak_rss_mb`.
struct WindowSink {
    conns: usize,
    open: Mutex<BTreeMap<usize, OpenWindow>>,
    closed: Mutex<Vec<(usize, Window)>>,
}

/// A window some connection is still sending in.
#[derive(Default)]
struct OpenWindow {
    latencies: Vec<f64>,
    failed: usize,
    /// Connections done with the window.
    done: usize,
}

impl WindowSink {
    fn flush(&self, window: usize, latencies: &mut Vec<f64>, failed: usize) {
        let mut open = self.open.lock().expect("window lock poisoned");
        let entry = open.entry(window).or_default();
        entry.latencies.append(latencies);
        entry.failed += failed;
        entry.done += 1;
        if entry.done < self.conns {
            return;
        }
        let OpenWindow {
            latencies, failed, ..
        } = open.remove(&window).expect("entry exists");
        drop(open);
        let answered = latencies.len();
        let lat = Latencies::new(latencies, failed);
        let summary = Window {
            answered,
            p50: lat.p50().unwrap_or(f64::NAN),
            p99: lat.percentile(99.0).unwrap_or(f64::NAN),
            tail: lat.tail(),
        };
        self.closed
            .lock()
            .expect("window lock poisoned")
            .push((window, summary));
    }
}

/// Closed loop: each of `conns` keep-alive connections sends its next
/// query body as soon as the previous answer arrives, for `seconds`.
/// Connection `c` starts at offset `c · len / conns` of `bodies`.
pub fn closed_loop(
    addr: SocketAddr,
    model: &str,
    bodies: &[String],
    conns: usize,
    seconds: f64,
) -> QueryRun {
    let path = format!("/models/{model}/query");
    let complete = (seconds / WINDOW).floor() as usize;
    let last = (seconds / WINDOW).ceil() as usize;
    let sink = WindowSink {
        conns,
        open: Mutex::new(BTreeMap::new()),
        closed: Mutex::new(Vec::new()),
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let parts: Vec<QueryRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (path, sink) = (&path, &sink);
                scope.spawn(move || {
                    let mut part = QueryRun::default();
                    let (mut window, mut latencies, mut failed) = (0, Vec::new(), 0);
                    let mut client = HttpClient::connect(addr).expect("connect");
                    let mut i = c * bodies.len() / conns;
                    while Instant::now() < deadline {
                        let at = i % bodies.len();
                        let sent = Instant::now();
                        let now_in = ((sent - start).as_secs_f64() / WINDOW) as usize;
                        while window < now_in {
                            sink.flush(window, &mut latencies, failed);
                            (window, failed) = (window + 1, 0);
                        }
                        let ok = match client.request("POST", path, bodies[at].as_bytes()) {
                            Ok((200, body)) => {
                                latencies.push(sent.elapsed().as_secs_f64());
                                if i.is_multiple_of(SAMPLE_EVERY)
                                    && part.samples.len() < SAMPLES_PER_CONN
                                {
                                    part.samples.push((at, body));
                                }
                                true
                            }
                            Ok((status, body)) => {
                                eprintln!("query {status}: {}", lossy(&body));
                                false
                            }
                            Err(e) => {
                                eprintln!("query transport error: {e}");
                                client = HttpClient::connect(addr).expect("reconnect");
                                false
                            }
                        };
                        failed += usize::from(!ok);
                        part.tally.record(ok);
                        i += 1;
                    }
                    // Every connection closes the same windows, so each
                    // one's summary sees all connections.
                    while window <= last {
                        sink.flush(window, &mut latencies, failed);
                        (window, failed) = (window + 1, 0);
                    }
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query connection"))
            .collect()
    });
    let mut windows = sink.closed.into_inner().expect("window lock poisoned");
    windows.sort_by_key(|(w, _)| *w);
    let mut run = QueryRun {
        windows: windows
            .into_iter()
            .filter(|(w, _)| *w < complete)
            .map(|(_, s)| s)
            .collect(),
        ..QueryRun::default()
    };
    for part in parts {
        run.tally.merge(part.tally);
        run.samples.extend(part.samples);
    }
    run
}

/// Per-route counters from `GET /stats`: (method, path) → (requests,
/// 4xx, 5xx, max latency µs).
pub fn route_stats(addr: SocketAddr) -> Vec<(String, String, [f64; 4])> {
    let (status, body) = request(addr, "GET", "/stats", b"");
    assert_eq!(status, 200, "stats: {}", lossy(&body));
    let stats = json(&body).expect("stats JSON");
    let num = |v: Option<&JsonValue>| v.and_then(JsonValue::as_f64).unwrap_or(0.0);
    stats
        .get("routes")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|r| {
            let text = |k: &str| {
                r.get(k)
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string()
            };
            let class = |k: &str| num(r.get("status").and_then(|s| s.get(k)));
            (
                text("method"),
                text("path"),
                [
                    num(r.get("requests")),
                    class("4xx"),
                    class("5xx"),
                    num(r.get("max_latency_us")),
                ],
            )
        })
        .collect()
}
