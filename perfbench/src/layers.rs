//! The traced run: one layer suite, the same for every workload, that
//! times the benchmark's own calls into each crate's public functions
//! (no spans inside the program). It covers every layer on the inputs of
//! all three workloads:
//!
//! 1. dense — the train_then_query pipeline once through HTTP untraced,
//!    then re-enacted stage by stage with a span around each call
//!    (`trace.coverage`, `trace.overhead`), then per-call kernel replays
//!    at the learned `W`;
//! 2. sparse — the sparse_scale fit, kernel replays at its learned `W`,
//!    and the fit again, which must reproduce the weights bit for bit;
//! 3. jobs — the jobs_and_queries phase, read back through `GET /stats`,
//!    the registry generation and the job polls.
//!
//! `_1t` metrics repeat a replay with the kernel pool pinned to one thread.

use crate::inputs::{query_mix, resident_model, sparse_input, WorkDir};
use crate::stack::{closed_loop, job_spec, job_trip, route_stats, with_stack};
use crate::stats::median;
use crate::workloads::{
    dense_csv, digest, job_csvs, open_loop_jobs, round_trips, serving_tau, sparse_config, DENSE_D,
    DENSE_JOB, MAX_LAG, QUERY_MIX_LEN, RESIDENT_D, SPARSE_D, SPARSE_N,
};
use crate::{peak_rss_mb, Args, Env, Report};
use least_core::grad::{backward_dense, backward_sparse};
use least_core::loss::sparse_value_and_grad;
use least_core::{Acyclicity, FittedSem, GramLoss, LeastDense, LeastSparse, SpectralBound};
use least_data::SufficientStats;
use least_ingest::{ChunkSource, CsvReader, GramAccumulator, IngestConfig};
use least_jobs::{JobQueue, JobSpec, QueueConfig};
use least_linalg::{par, Xoshiro256pp};
use least_notears::ExpAcyclicity;
use least_optim::AdamState;
use least_serve::{ModelArtifact, ModelRegistry, QueryEngine};
use std::hint::black_box;
use std::time::Instant;

/// Calls per replay of a millisecond-scale kernel; the median is kept.
const REPS: usize = 21;
/// Calls per replay of the d = 10⁴ sparse kernels.
const SPARSE_REPS: usize = 5;
/// Queries of the mix replayed against the in-process engine.
const ENGINE_REPLAYS: usize = 4096;
/// Uncontended HTTP phase that gives the client round trip, seconds.
const RTT_SECONDS: f64 = 1.0;

pub fn run(args: &Args, env: &Env, dir: &WorkDir) -> Report {
    let mut report = Report::default();
    report.metric("bench.threads", env.threads as f64, "count");
    report.metric("bench.nproc", env.nproc as f64, "count");
    report.metric(
        "bench.parallel_feature",
        f64::from(u8::from(env.parallel_feature)),
        "count",
    );
    dense(args, env, dir, &mut report);
    sparse(args, &mut report);
    jobs(args, env, dir, &mut report);
    report.metric("bench.peak_rss_mb", peak_rss_mb(), "MB");
    report
}

/// Median wall time of `reps` calls of `f`, in milliseconds.
fn replay_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times).expect("reps > 0")
}

/// Replay at the configured pool width and with one thread, reporting
/// `name` and `name_1t`.
fn replay_both<R>(report: &mut Report, name: &str, reps: usize, mut f: impl FnMut() -> R) {
    report.metric(name, replay_ms(reps, &mut f), "ms");
    par::set_thread_override(Some(1));
    let one = replay_ms(reps, &mut f);
    par::set_thread_override(None);
    report.metric(&format!("{name}_1t"), one, "ms");
}

/// Spans recorded around the benchmark's calls into the layers.
#[derive(Default)]
struct Spans(Vec<(&'static str, f64)>);

impl Spans {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.0.push((name, start.elapsed().as_secs_f64()));
        out
    }

    fn total(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, s)| s)
            .sum()
    }

    fn all(&self) -> f64 {
        self.0.iter().map(|(_, s)| s).sum()
    }
}

fn dense(args: &Args, env: &Env, dir: &WorkDir, report: &mut Report) {
    env.check_load(1);
    let csv = dense_csv(dir, args.seed, 0);
    let mix = query_mix(DENSE_D, 64, args.seed);
    let spec_text = job_spec("learned", &csv.path, DENSE_JOB);
    let spec = JobSpec::parse_str(&spec_text).expect("valid job spec");

    // Untraced: the same job through the HTTP job routes.
    let (trip, _) = with_stack(dir, None, |stack| {
        job_trip(stack.addr, &spec_text, "learned", &mix.queries[0])
    });
    report.tally.record(trip.is_some());
    let untraced = trip.map_or(f64::NAN, |t| t.first_query);

    // Traced: the job's stages re-enacted call by call.
    let journal = dir.join("trace.journal");
    std::fs::remove_file(&journal).ok();
    let queue = JobQueue::open(&journal, QueueConfig::default()).expect("open journal");
    let registry = ModelRegistry::new();
    let mut spans = Spans::default();
    let start = Instant::now();
    let id = spans.time("jobs.journal", || {
        queue.submit(spec.clone()).expect("submit")
    });
    spans.time("jobs.journal", || {
        queue.claim().expect("claim").expect("a job")
    });
    let mut reader = spans.time("ingest.parse", || CsvReader::open(&csv.path).expect("csv"));
    let mut acc = GramAccumulator::new(reader.num_vars());
    let chunk_rows = IngestConfig::default().chunk_rows;
    while let Some(chunk) = spans.time("ingest.parse", || {
        reader.next_chunk(chunk_rows).expect("parse")
    }) {
        spans.time("ingest.accumulate", || {
            acc.update(&chunk).expect("accumulate")
        });
    }
    let stats = spans.time("ingest.accumulate", || {
        acc.finalize(IngestConfig::default().preprocess)
            .expect("finalize")
    });
    let learned = spans.time("core.fit_stats", || {
        LeastDense::new(spec.config)
            .expect("config")
            .fit_stats(&stats)
            .expect("fit")
    });
    let structure = spans.time("graph.threshold", || learned.graph(spec.threshold));
    let sem = spans.time("core.sem.refit", || {
        FittedSem::fit_from_stats(&structure, &stats).expect("refit")
    });
    let artifact = spans.time("serve.artifact.build", || {
        ModelArtifact::from_fitted(&sem, spec.threshold, "perfbench trace").expect("artifact")
    });
    let version = spans.time("serve.registry.insert", || {
        registry.insert("learned", artifact).expect("insert")
    });
    spans.time("jobs.journal", || {
        queue.complete(id, version).expect("complete")
    });
    let served = spans.time("serve.query.first", || {
        let served = registry.get("learned").expect("registered");
        mix.queries[0].answer(&served.engine);
        served
    });
    let wall = start.elapsed().as_secs_f64();
    let artifact = &served.artifact;
    report.metric("trace.coverage", spans.all() / wall, "ratio");
    report.metric("trace.overhead", wall / untraced, "ratio");
    report.gate(
        "trace_coverage",
        spans.all() / wall >= 0.95,
        format!("{:.4}", spans.all() / wall),
    );

    let (parse, accumulate) = (
        spans.total("ingest.parse"),
        spans.total("ingest.accumulate"),
    );
    report.metric("ingest.parse_s", parse, "s");
    report.metric("ingest.accumulate_s", accumulate, "s");
    report.metric("ingest.rows", stats.n as f64, "count");
    report.metric("ingest.bytes", csv.bytes as f64, "bytes");
    report.metric(
        "ingest.mb_per_s",
        csv.bytes as f64 / 1e6 / (parse + accumulate),
        "MB/s",
    );
    report.metric("core.fit_stats_s", spans.total("core.fit_stats"), "s");
    report.metric("core.rounds", learned.rounds as f64, "count");
    report.metric(
        "jobs.journal.fsync_ms",
        spans.total("jobs.journal") / 3.0 * 1e3,
        "ms",
    );
    report.gate("learned_graphs_are_dags", structure.is_dag(), "dense trace");
    report.gate("artifact_round_trip", round_trips(artifact), "dense trace");

    dense_replays(report, &spec, &stats, &learned.weights);

    // The pipeline tail, replayed call by call.
    report.metric(
        "graph.threshold_ms",
        replay_ms(REPS, || learned.graph(spec.threshold)),
        "ms",
    );
    report.metric(
        "core.sem.refit_ms",
        replay_ms(REPS, || FittedSem::fit_from_stats(&structure, &stats)),
        "ms",
    );
    report.metric(
        "serve.artifact.build_ms",
        replay_ms(REPS, || {
            ModelArtifact::from_fitted(&sem, spec.threshold, "perfbench")
        }),
        "ms",
    );
    report.metric(
        "serve.artifact.encode_ms",
        replay_ms(REPS, || artifact.to_bytes()),
        "ms",
    );
    report.metric(
        "serve.artifact.bytes",
        artifact.to_bytes().len() as f64,
        "bytes",
    );
    report.metric(
        "serve.query.compile_ms",
        replay_ms(REPS, || QueryEngine::from_artifact(artifact)),
        "ms",
    );
    // Copies made up front: only the insert itself is timed.
    let mut copies = vec![artifact.clone(); REPS];
    report.metric(
        "serve.registry.insert_ms",
        replay_ms(REPS, || {
            registry.insert("learned", copies.pop().expect("one copy per call"))
        }),
        "ms",
    );
}

/// Per-call replays of the dense solver's kernels at the learned `W`.
fn dense_replays(
    report: &mut Report,
    spec: &JobSpec,
    stats: &SufficientStats,
    w: &least_linalg::DenseMatrix,
) {
    let cfg = spec.config;
    let loss = GramLoss::from_stats(stats, cfg.lambda).expect("gram loss");
    replay_both(report, "core.loss.gram_ms", REPS, || loss.value_and_grad(w));
    let bound = SpectralBound::new(cfg.k, cfg.alpha).expect("bound");
    replay_both(report, "core.bound.forward_dense_ms", REPS, || {
        bound.forward_dense(w)
    });
    let fwd = bound.forward_dense(w).expect("forward");
    replay_both(report, "core.grad.backward_dense_ms", REPS, || {
        backward_dense(&fwd, w)
    });
    let (_, grad) = loss.value_and_grad(w).expect("gradient");
    let mut adam = AdamState::new(w.as_slice().len(), cfg.adam);
    let mut params = w.clone();
    replay_both(report, "optim.adam.step_dense_ms", REPS, || {
        adam.step(params.as_mut_slice(), grad.as_slice())
    });
    // The NOTEARS constraint at the same W: the paper's reference cost.
    report.metric(
        "notears.expm_ms",
        replay_ms(7, || ExpAcyclicity.value_and_gradient(w)),
        "ms",
    );
}

fn sparse(args: &Args, report: &mut Report) {
    let cfg = sparse_config();
    let input = sparse_input(&cfg, SPARSE_D, SPARSE_N, args.seed);
    let fit = || {
        LeastSparse::new(cfg)
            .expect("valid config")
            .fit(&input.data)
            .expect("sparse fit")
    };
    let learned = fit();
    let w = &learned.weights;
    report.metric("core.nnz_initial", input.support as f64, "count");
    report.metric("core.nnz_final", w.nnz() as f64, "count");

    let batch_size = cfg.batch_size.expect("mini-batch config");
    let mut rng = Xoshiro256pp::new(args.seed);
    replay_both(report, "data.sample_batch_ms", SPARSE_REPS, || {
        input.data.sample_batch(batch_size, &mut rng)
    });
    let batch = input.data.sample_batch(batch_size, &mut rng);
    replay_both(report, "core.loss.sparse_ms", SPARSE_REPS, || {
        sparse_value_and_grad(&batch, w, cfg.lambda)
    });
    let bound = SpectralBound::new(cfg.k, cfg.alpha).expect("bound");
    replay_both(report, "core.bound.forward_sparse_ms", SPARSE_REPS, || {
        bound.forward_sparse(w)
    });
    let fwd = bound.forward_sparse(w).expect("forward");
    replay_both(report, "core.grad.backward_sparse_ms", SPARSE_REPS, || {
        backward_sparse(&fwd, w)
    });
    let grad = backward_sparse(&fwd, w);
    let mut adam = AdamState::new(w.nnz(), cfg.adam);
    let mut params = w.values().to_vec();
    replay_both(report, "optim.adam.step_sparse_ms", SPARSE_REPS, || {
        adam.step(&mut params, &grad)
    });
    for (name, threads) in [
        ("linalg.csr.threshold_ms", None),
        ("linalg.csr.threshold_ms_1t", Some(1)),
    ] {
        par::set_thread_override(threads);
        let times: Vec<f64> = (0..SPARSE_REPS)
            .map(|_| {
                let mut copy = w.clone();
                let start = Instant::now();
                black_box(copy.threshold(cfg.theta));
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        par::set_thread_override(None);
        report.metric(name, median(&times).expect("reps"), "ms");
    }
    // Computed, not measured: the operation count and bytes streamed by
    // one call, from the shapes (B × d batch, nnz slots, k levels).
    let (b, d, nnz, k) = (
        batch_size as f64,
        SPARSE_D as f64,
        w.nnz() as f64,
        cfg.k as f64,
    );
    report.metric(
        "core.loss.sparse_flops_computed",
        b * (4.0 * nnz + 3.0 * d),
        "flops",
    );
    report.metric(
        "core.loss.sparse_bytes_computed",
        b * (16.0 * d + 12.0 * nnz),
        "bytes",
    );
    report.metric(
        "core.bound.sparse_flops_computed",
        (k + 1.0) * 6.0 * nnz,
        "flops",
    );
    report.metric(
        "core.bound.sparse_bytes_computed",
        (k + 1.0) * 36.0 * nnz,
        "bytes",
    );

    // After the replays have pinned and released the pool, the fit must
    // reproduce the untraced weights exactly.
    let again = fit();
    report.gate(
        "sparse_digest_traced_equals_untraced",
        digest(&again.weights) == digest(w),
        format!("{:016x} vs {:016x}", digest(&again.weights), digest(w)),
    );
    report.gate(
        "sparse_weights_finite",
        w.values().iter().all(|v| v.is_finite()),
        "",
    );
    report.gate(
        "sparse_structure_servable",
        serving_tau(&learned).is_some(),
        "a DAG at some tau of the paper's grid",
    );
}

fn jobs(args: &Args, env: &Env, dir: &WorkDir, report: &mut Report) {
    // One generator connection plus one query connection.
    env.check_load(2);
    let csvs = job_csvs(dir, args.seed);
    let resident = resident_model(RESIDENT_D, args.seed);
    let resident_bytes = resident.to_bytes();
    let mix = query_mix(RESIDENT_D, QUERY_MIX_LEN, args.seed);

    // In-process engine on the same mix: the serve layer without HTTP.
    let engine = QueryEngine::from_artifact(&resident).expect("resident engine");
    let engine_us: Vec<f64> = mix
        .queries
        .iter()
        .take(ENGINE_REPLAYS)
        .map(|q| {
            let start = Instant::now();
            q.evaluate(&engine);
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let engine_p50 = median(&engine_us).expect("mix");
    report.metric("serve.query.engine_us", engine_p50, "us");

    with_stack(dir, Some(&resident_bytes), |stack| {
        let rtt = closed_loop(stack.addr, "resident", &mix.bodies, 1, RTT_SECONDS);
        report.tally.merge(rtt.tally);
        let rtt_p50 =
            median(&rtt.windows.iter().map(|w| w.p50).collect::<Vec<_>>()).unwrap_or(f64::NAN);
        report.metric("serve.http.overhead_us", rtt_p50 * 1e6 - engine_p50, "us");

        let generation = stack.registry.generation();
        let (jobs, run) = std::thread::scope(|scope| {
            let queries =
                scope.spawn(|| closed_loop(stack.addr, "resident", &mix.bodies, 1, args.seconds));
            let jobs = open_loop_jobs(stack, &csvs, args.seconds);
            (jobs, queries.join().expect("query connection"))
        });
        report.tally.merge(run.tally);
        report.tally.merge(jobs.tally);
        report.metric(
            "serve.registry.publishes",
            (stack.registry.generation() - generation) as f64,
            "count",
        );
        let mismatches =
            run.mismatches(&mix.queries, &engine) + rtt.mismatches(&mix.queries, &engine);
        report.gate(
            "http_answers_match_engine",
            mismatches == 0,
            format!("{mismatches} differ"),
        );
        for (method, path, counts) in route_stats(stack.addr) {
            let name = match (method.as_str(), path.as_str()) {
                ("POST", "/models/{id}/query") => "query",
                ("POST", "/jobs") => "jobs_submit",
                ("GET", "/jobs/{id}") => "jobs_get",
                ("PUT", "/models/{id}") => "model_upload",
                _ => continue,
            };
            for (field, value, unit) in [
                ("requests", counts[0], "count"),
                ("4xx", counts[1], "count"),
                ("5xx", counts[2], "count"),
                ("max_latency_us", counts[3], "us"),
            ] {
                report.metric(&format!("serve.route.{name}.{field}"), value, unit);
            }
        }

        let trips = &jobs.trips;
        let of = |f: &dyn Fn(&crate::stack::JobTrip) -> Option<f64>| {
            median(&trips.iter().filter_map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
        };
        let n = trips.len().max(1) as f64;
        report.metric(
            "jobs.submit_rtt_ms",
            of(&|t| Some(t.submit_rtt)) * 1e3,
            "ms",
        );
        report.metric("jobs.queue_wait_p50_s", of(&|t| t.queue_wait), "s");
        report.metric("jobs.service_p50_s", of(&|t| t.service), "s");
        report.metric(
            "jobs.attempts_per_job",
            trips.iter().map(|t| t.attempts as f64).sum::<f64>() / n,
            "count",
        );
        let journal_bytes = std::fs::metadata(&stack.journal).map_or(0, |m| m.len());
        report.metric(
            "jobs.journal_bytes_per_job",
            journal_bytes as f64 / n,
            "bytes",
        );
        report.metric(
            "jobs.poll_requests",
            trips.iter().map(|t| t.polls as f64).sum(),
            "count",
        );
        report.metric("bench.generator_lag_max_ms", jobs.lag_max * 1e3, "ms");
        report.metric(
            "bench.generator_behind",
            f64::from(u8::from(jobs.lag_max > MAX_LAG)),
            "count",
        );
        report.metric(
            "bench.poll_interval_ms",
            median(&jobs.poll_gaps).unwrap_or(f64::NAN) * 1e3,
            "ms",
        );
        report.gate(
            "jobs_succeed_at_attempt_1",
            jobs.failed == 0 && trips.iter().all(|t| t.attempts == 1),
            format!("{} jobs", trips.len()),
        );
    });
}
