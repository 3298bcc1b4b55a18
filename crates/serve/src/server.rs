//! The serving layer: a TCP model server on a scoped-thread worker pool.
//!
//! Threading model (DESIGN.md §8, §11): one acceptor (the thread that
//! called [`Server::serve`]) plus `workers` handler threads inside a
//! single `std::thread::scope`. Accepted connections go through a
//! `Mutex<VecDeque>` + `Condvar` hand-off; each worker owns a connection
//! for its keep-alive lifetime, one reusable
//! [`ConnBuffers`] per connection. Each worker
//! holds a [`RegistryReader`] — the lock-free snapshot cache — so a
//! query's registry access is one atomic load; model inserts and
//! evictions publish new snapshots without ever blocking a reader.
//!
//! Built-in routes (all further routes — e.g. `least-jobs`' `/jobs`
//! endpoints — register through the same [`Router`] via
//! [`Server::router_mut`]):
//!
//! | method | path                  | body              | response            |
//! |--------|-----------------------|-------------------|---------------------|
//! | GET    | `/healthz`            | —                 | liveness + counts   |
//! | GET    | `/stats`              | —                 | per-route telemetry |
//! | GET    | `/models?offset=&limit=` | —              | paginated listing   |
//! | PUT    | `/models/{id}`        | artifact bytes    | registration report |
//! | DELETE | `/models/{id}`        | —                 | eviction report     |
//! | POST   | `/models/{id}/query`  | JSON query        | JSON answer         |
//! | POST   | `/shutdown`           | —                 | ack, then drain     |

use crate::error::ServeError;
use crate::http::{read_request, write_response, ConnBuffers, ReadOutcome};
use crate::json::{parse as parse_json, JsonValue};
use crate::query::{Gaussian, QueryEngine};
use crate::registry::{ModelRegistry, RegistryReader, ServedModel};
use crate::router::{RequestCtx, Router};
use crate::telemetry::Telemetry;
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Handler threads. Defaults to the `least_linalg::par` pool width, so
    /// `LEAST_NUM_THREADS` governs the server like every other parallel
    /// path in the workspace.
    pub workers: usize,
    /// Upload/body size cap in bytes.
    pub max_body_bytes: usize,
    /// Per-connection read timeout; an idle keep-alive connection is
    /// dropped after this long so it cannot pin a worker forever.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: least_linalg::par::max_threads(),
            max_body_bytes: 256 << 20,
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// Shared mutable server state: the connection queue and shutdown flag.
#[derive(Debug, Default)]
struct ServerState {
    shutdown: AtomicBool,
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

/// Handle for stopping a running server from another thread (or from a
/// worker handling `POST /shutdown`).
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    state: Arc<ServerState>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Request a graceful stop: the acceptor exits, queued connections
    /// are answered with 503, in-flight requests complete.
    pub fn shutdown(&self) {
        if self.state.shutdown.swap(true, Ordering::SeqCst) {
            return; // already shutting down
        }
        // Wake the blocking accept with a no-op connection, and any
        // workers parked on the queue condvar.
        TcpStream::connect(self.addr).ok();
        self.state.ready.notify_all();
    }

    /// True once a shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }
}

/// A bound-but-not-yet-serving model server. The route table is open
/// for registration ([`Self::router_mut`]) until [`Self::serve`] runs.
pub struct Server {
    listener: TcpListener,
    registry: Arc<ModelRegistry>,
    config: ServerConfig,
    state: Arc<ServerState>,
    router: Router,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("listener", &self.listener)
            .field("config", &self.config)
            .field("router", &self.router)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port) and install the
    /// built-in routes. Mount additional subsystems onto
    /// [`Self::router_mut`] before calling [`Self::serve`].
    pub fn bind(
        addr: impl std::net::ToSocketAddrs,
        registry: Arc<ModelRegistry>,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(ServerState::default());
        let shutdown = ShutdownHandle {
            state: Arc::clone(&state),
            addr: listener.local_addr()?,
        };
        let telemetry = Arc::new(Telemetry::new());
        let mut router = Router::new(Arc::clone(&telemetry));
        install_builtin_routes(&mut router, &registry, &telemetry, &shutdown);
        Ok(Self {
            listener,
            registry,
            config,
            state,
            router,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// Handle for stopping the server from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            state: Arc::clone(&self.state),
            addr: self.local_addr(),
        }
    }

    /// The route table, for mounting subsystem endpoints (this is how
    /// `least-jobs` adds its `/jobs` routes onto the same server — and
    /// the same telemetry — that answers model queries).
    pub fn router_mut(&mut self) -> &mut Router {
        &mut self.router
    }

    /// The telemetry table behind `GET /stats`.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        self.router.telemetry()
    }

    /// Run until shutdown. Blocks the calling thread, which doubles as
    /// the acceptor; handler threads live in a `std::thread::scope`, so
    /// every worker has joined by the time this returns.
    pub fn serve(self) -> std::io::Result<()> {
        let workers = self.config.workers.max(1);
        let state = &self.state;
        let registry = &self.registry;
        let config = &self.config;
        let router = &self.router;
        let shutdown = ShutdownHandle {
            state: Arc::clone(&self.state),
            addr: self.local_addr(),
        };
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let shutdown = shutdown.clone();
                let reader = registry.reader();
                scope.spawn(move || worker_loop(state, router, reader, config, &shutdown));
            }
            for conn in self.listener.incoming() {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match conn {
                    Ok(stream) => {
                        let mut queue = state.queue.lock().expect("queue lock poisoned");
                        queue.push_back(stream);
                        drop(queue);
                        state.ready.notify_one();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => continue,
                    Err(e) => {
                        // Fatal accept error: stop the pool before bailing.
                        shutdown.shutdown();
                        return Err(e);
                    }
                }
            }
            state.ready.notify_all();
            Ok(())
        })
    }
}

/// Worker: pull connections off the queue until shutdown drains it. Owns
/// the worker-local registry snapshot cache for its lifetime.
fn worker_loop(
    state: &ServerState,
    router: &Router,
    mut reader: RegistryReader,
    config: &ServerConfig,
    shutdown: &ShutdownHandle,
) {
    loop {
        let stream = {
            let mut queue = state.queue.lock().expect("queue lock poisoned");
            loop {
                if let Some(stream) = queue.pop_front() {
                    break Some(stream);
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = state.ready.wait(queue).expect("queue lock poisoned");
            }
        };
        let Some(stream) = stream else { return };
        if state.shutdown.load(Ordering::SeqCst) {
            // Drain politely: the server is stopping.
            let mut stream = stream;
            let body = error_body("server is shutting down");
            router
                .telemetry()
                .unmatched()
                .record(503, 0, body.len(), Duration::ZERO);
            write_response(&mut stream, 503, "application/json", body.as_bytes(), false).ok();
            continue;
        }
        handle_connection(stream, router, &mut reader, config, shutdown);
    }
}

/// Serve one keep-alive connection to completion, reusing one set of
/// read/write buffers for its whole lifetime.
fn handle_connection(
    stream: TcpStream,
    router: &Router,
    registry_reader: &mut RegistryReader,
    config: &ServerConfig,
    shutdown: &ShutdownHandle,
) {
    stream.set_read_timeout(Some(config.read_timeout)).ok();
    stream.set_nodelay(true).ok();
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    let mut buffers = ConnBuffers::new();
    loop {
        let request = match read_request(&mut reader, config.max_body_bytes, &mut buffers) {
            Ok(ReadOutcome::Ready(req)) => req,
            Ok(ReadOutcome::Closed) => return,
            Ok(ReadOutcome::Malformed(msg)) => {
                protocol_error(
                    router,
                    &mut buffers,
                    &mut write_half,
                    400,
                    &error_body(&msg),
                );
                return;
            }
            Ok(ReadOutcome::TooLarge(declared)) => {
                let body = error_body(&format!(
                    "body of {declared} bytes exceeds the {}-byte limit",
                    config.max_body_bytes
                ));
                protocol_error(router, &mut buffers, &mut write_half, 413, &body);
                return;
            }
            // Timeouts (idle keep-alive) and resets: just drop the line.
            Err(_) => return,
        };
        let close_after = request.wants_close() || shutdown.is_shutdown();
        // One atomic load; the snapshot Arc is reused until a writer
        // publishes, so queries never contend with registrations.
        let snapshot = Arc::clone(registry_reader.current());
        let response = router.dispatch(&request, &snapshot);
        let sent = buffers.send_response(
            &mut write_half,
            response.status,
            "application/json",
            response.body.as_bytes(),
            !close_after,
        );
        buffers.recycle(request.body);
        if sent.is_err() || close_after {
            return;
        }
    }
}

fn error_body(msg: &str) -> String {
    JsonValue::obj(vec![("error", JsonValue::Str(msg.into()))]).render()
}

/// Answer a request that never reached dispatch (unparseable or
/// oversized), and record it against the telemetry's `(unmatched)`
/// block so hostile/protocol-error traffic stays visible in `/stats`.
fn protocol_error(
    router: &Router,
    buffers: &mut ConnBuffers,
    stream: &mut TcpStream,
    status: u16,
    body: &str,
) {
    router
        .telemetry()
        .unmatched()
        .record(status, 0, body.len(), Duration::ZERO);
    buffers
        .send_response(stream, status, "application/json", body.as_bytes(), false)
        .ok();
}

fn error_json(status: u16, msg: &str) -> (u16, JsonValue) {
    (
        status,
        JsonValue::obj(vec![("error", JsonValue::Str(msg.into()))]),
    )
}

fn bad_request(msg: &str) -> (u16, JsonValue) {
    error_json(400, msg)
}

/// One row of the `GET /models` listing.
fn model_json(id: &str, model: &ServedModel) -> JsonValue {
    JsonValue::obj(vec![
        ("id", JsonValue::Str(id.to_string())),
        ("version", JsonValue::Num(model.version as f64)),
        ("d", JsonValue::Num(model.artifact.dim() as f64)),
        (
            "backend",
            JsonValue::Str(model.artifact.weights.backend().into()),
        ),
        ("nnz", JsonValue::Num(model.artifact.weights.nnz() as f64)),
        (
            "fingerprint",
            JsonValue::Str(model.artifact.meta.fingerprint.clone()),
        ),
    ])
}

/// Register the serve-layer routes onto `router`. Read paths run on the
/// request's registry snapshot (no locks); write paths capture the
/// registry itself.
fn install_builtin_routes(
    router: &mut Router,
    registry: &Arc<ModelRegistry>,
    telemetry: &Arc<Telemetry>,
    shutdown: &ShutdownHandle,
) {
    router.route("GET", "/healthz", |ctx| {
        (
            200,
            JsonValue::obj(vec![
                ("status", JsonValue::Str("ok".into())),
                ("models", JsonValue::Num(ctx.snapshot.len() as f64)),
            ]),
        )
    });

    let stats = Arc::clone(telemetry);
    router.route("GET", "/stats", move |_ctx| (200, stats.to_json()));

    router.route("GET", "/models", |ctx| {
        let page = match ctx.pagination() {
            Ok(page) => page,
            Err(msg) => return bad_request(&msg),
        };
        let snapshot = ctx.snapshot;
        let listing: Vec<JsonValue> = page
            .window(snapshot.iter())
            .map(|(id, model)| model_json(id, model))
            .collect();
        (
            200,
            JsonValue::obj(vec![
                ("models", JsonValue::Arr(listing)),
                ("total", JsonValue::Num(snapshot.len() as f64)),
                ("offset", JsonValue::Num(page.offset as f64)),
            ]),
        )
    });

    let upload = {
        let registry = Arc::clone(registry);
        Arc::new(move |ctx: &RequestCtx<'_>| {
            let id = ctx.param("id");
            match crate::artifact::ModelArtifact::from_bytes(&ctx.request.body) {
                Ok(artifact) => {
                    let d = artifact.dim();
                    let nnz = artifact.weights.nnz();
                    match registry.insert(id, artifact) {
                        Ok(version) => (
                            201,
                            JsonValue::obj(vec![
                                ("id", JsonValue::Str(id.to_string())),
                                ("version", JsonValue::Num(version as f64)),
                                ("d", JsonValue::Num(d as f64)),
                                ("nnz", JsonValue::Num(nnz as f64)),
                            ]),
                        ),
                        Err(e) => bad_request(&e.to_string()),
                    }
                }
                Err(e) => bad_request(&e.to_string()),
            }
        })
    };
    let put_upload = Arc::clone(&upload);
    router.route("PUT", "/models/{id}", move |ctx| put_upload(ctx));
    router.route("POST", "/models/{id}", move |ctx| upload(ctx));

    let evict_registry = Arc::clone(registry);
    router.route("DELETE", "/models/{id}", move |ctx| {
        let id = ctx.param("id");
        match evict_registry.remove(id) {
            Some(model) => (
                200,
                JsonValue::obj(vec![
                    ("id", JsonValue::Str(id.to_string())),
                    ("version", JsonValue::Num(model.version as f64)),
                    ("evicted", JsonValue::Bool(true)),
                ]),
            ),
            None => error_json(404, &format!("no model '{id}'")),
        }
    });

    router.route("POST", "/models/{id}/query", |ctx| {
        let id = ctx.param("id");
        match ctx.snapshot.get(id) {
            None => error_json(404, &format!("no model '{id}'")),
            Some(model) => match answer_query(&model.engine, &ctx.request.body) {
                Ok(answer) => (200, answer),
                Err(msg) => bad_request(&msg),
            },
        }
    });

    let shutdown = shutdown.clone();
    router.route("POST", "/shutdown", move |_ctx| {
        shutdown.shutdown();
        (
            200,
            JsonValue::obj(vec![("status", JsonValue::Str("shutting down".into()))]),
        )
    });
}

/// Decode and evaluate one JSON query against an engine.
///
/// Body shape:
/// `{"kind": "...", "node": n}` for structural queries
/// (`parents`, `children`, `ancestors`, `descendants`, `markov_blanket`,
/// `topological_order`), and
/// `{"kind": "marginal"|"posterior", "target": t,
///   "evidence": [[node, value], ...], "do": [[node, value], ...]}`
/// for inference.
fn answer_query(engine: &QueryEngine, body: &[u8]) -> Result<JsonValue, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    let query = parse_json(text)?;
    let kind = query
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or("missing 'kind'")?;

    let node_of = |value: &JsonValue| -> Result<usize, String> {
        value
            .as_usize()
            .ok_or_else(|| "node must be a non-negative integer".to_string())
    };
    let node = || -> Result<usize, String> {
        node_of(
            query
                .get("node")
                .or_else(|| query.get("target"))
                .ok_or("missing 'node'")?,
        )
    };
    let pairs = |key: &str| -> Result<Vec<(usize, f64)>, String> {
        match query.get(key) {
            None => Ok(Vec::new()),
            Some(value) => value
                .as_array()
                .ok_or_else(|| format!("'{key}' must be an array of [node, value] pairs"))?
                .iter()
                .map(|pair| {
                    let items = pair
                        .as_array()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| format!("'{key}' entries must be [node, value]"))?;
                    let v = items[1]
                        .as_f64()
                        .ok_or_else(|| format!("'{key}' value must be a number"))?;
                    Ok((node_of(&items[0])?, v))
                })
                .collect(),
        }
    };

    let err = |e: ServeError| e.to_string();
    let nodes_answer = |label: &str, nodes: Vec<usize>| {
        JsonValue::obj(vec![
            ("kind", JsonValue::Str(label.into())),
            ("nodes", JsonValue::num_array(nodes)),
        ])
    };
    match kind {
        "parents" => Ok(nodes_answer(kind, engine.parents(node()?).map_err(err)?)),
        "children" => Ok(nodes_answer(kind, engine.children(node()?).map_err(err)?)),
        "ancestors" => Ok(nodes_answer(kind, engine.ancestors(node()?).map_err(err)?)),
        "descendants" => Ok(nodes_answer(
            kind,
            engine.descendants(node()?).map_err(err)?,
        )),
        "markov_blanket" => Ok(nodes_answer(
            kind,
            engine.markov_blanket(node()?).map_err(err)?,
        )),
        "topological_order" => Ok(nodes_answer(kind, engine.topological_order().to_vec())),
        "marginal" | "posterior" => {
            let target = node()?;
            let evidence = pairs("evidence")?;
            let interventions = pairs("do")?;
            let Gaussian { mean, variance } = engine
                .posterior(target, &evidence, &interventions)
                .map_err(err)?;
            Ok(JsonValue::obj(vec![
                ("kind", JsonValue::Str(kind.into())),
                ("target", JsonValue::Num(target as f64)),
                ("mean", JsonValue::Num(mean)),
                ("variance", JsonValue::Num(variance)),
            ]))
        }
        other => Err(format!("unknown query kind '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{ModelArtifact, ModelMeta, WeightMatrix};
    use least_linalg::DenseMatrix;

    fn demo_artifact() -> ModelArtifact {
        let mut w = DenseMatrix::zeros(3, 3);
        w[(0, 1)] = 2.0;
        w[(1, 2)] = 3.0;
        ModelArtifact::new(
            WeightMatrix::Dense(w),
            vec![0.0; 3],
            vec![1.0; 3],
            ModelMeta {
                threshold: 0.0,
                fingerprint: "unit-test".into(),
            },
        )
        .unwrap()
    }

    fn engine() -> QueryEngine {
        QueryEngine::from_artifact(&demo_artifact()).unwrap()
    }

    #[test]
    fn answer_query_structural() {
        let out = answer_query(&engine(), br#"{"kind":"markov_blanket","node":1}"#).unwrap();
        assert_eq!(out.get("nodes").unwrap(), &JsonValue::num_array(vec![0, 2]));
    }

    #[test]
    fn answer_query_posterior() {
        let out = answer_query(
            &engine(),
            br#"{"kind":"posterior","target":2,"evidence":[[0,1.5]]}"#,
        )
        .unwrap();
        let mean = out.get("mean").and_then(JsonValue::as_f64).unwrap();
        let var = out.get("variance").and_then(JsonValue::as_f64).unwrap();
        assert!((mean - 9.0).abs() < 1e-10 && (var - 10.0).abs() < 1e-10);
    }

    #[test]
    fn answer_query_do() {
        let out = answer_query(
            &engine(),
            br#"{"kind":"posterior","target":2,"do":[[1,2.0]]}"#,
        )
        .unwrap();
        assert_eq!(out.get("mean").and_then(JsonValue::as_f64), Some(6.0));
        assert_eq!(out.get("variance").and_then(JsonValue::as_f64), Some(1.0));
    }

    #[test]
    fn answer_query_rejects_garbage() {
        let e = engine();
        assert!(answer_query(&e, b"not json").is_err());
        assert!(answer_query(&e, br#"{"kind":"nope","node":0}"#).is_err());
        assert!(answer_query(&e, br#"{"kind":"parents"}"#).is_err());
        assert!(answer_query(&e, br#"{"kind":"parents","node":-1}"#).is_err());
        assert!(answer_query(&e, br#"{"kind":"parents","node":99}"#).is_err());
        assert!(answer_query(&e, br#"{"kind":"posterior","target":0,"evidence":[[1]]}"#).is_err());
    }
}
