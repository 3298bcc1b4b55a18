//! The three end-to-end workloads (untraced runs). Every workload boots
//! the program, trains, publishes and queries, so each reports all
//! end-to-end metrics; what differs is where the work lands. See
//! `perfbench/README.md` for why each was chosen.

use crate::inputs::{
    query_mix, resident_model, sparse_artifact, sparse_input, write_csv, CsvInput, Query, WorkDir,
};
use crate::stack::{
    closed_loop, job_spec, job_trip, lossy, poll, poll_gap, request, submit, with_stack, JobTrip,
    QueryRun, Stack, Window, POLL, WINDOW,
};
use crate::stats::{median, Latencies, Tally};
use crate::{peak_rss_mb, reset_peak_rss, Args, Env, Report};
use least_core::{LearnedSparse, LeastConfig, LeastSparse};
use least_graph::DiGraph;
use least_metrics::{structural_hamming_distance, EdgeConfusion};
use least_serve::{HttpClient, ModelArtifact, WeightMatrix};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 3] = ["train_then_query", "sparse_scale", "jobs_and_queries"];

// train_then_query: CSVs of one fixed d=200 DAG (seed-drawn rows).
pub const DENSE_D: usize = 200;
const DENSE_N: usize = 20_000;
/// The generating DAG is fixed: structure difficulty varies far more
/// between random DAGs than between samples of one (SHD 54–101 over ten
/// d=300 draws), and would drown every change in seed noise.
const DENSE_GRAPH_SEED: u64 = 0x7A11;
/// A fixed inner budget per round (`inner_tol = 0`); the outer loop still
/// runs until the constraint converges.
pub const DENSE_JOB: &str =
    r#"{"lambda":0.05,"max_outer":8,"max_inner":200,"inner_tol":0,"learning_rate":0.02,"seed":7}"#;
/// Pipelines (job → first query) per run, each on its own sample of the
/// DAG; times are their median, accuracy is pooled over them.
const PIPELINES: usize = 3;

// sparse_scale: LEAST-SP on raw data at d = 10⁴.
pub const SPARSE_D: usize = 10_000;
pub const SPARSE_N: usize = 1_000;
/// Fits per run; their median is reported.
const SPARSE_FITS: usize = 2;

/// LEAST-SP with a fixed iteration budget (`inner_tol = 0`, two rounds).
pub fn sparse_config() -> LeastConfig {
    let mut cfg = LeastConfig {
        lambda: 0.1,
        init_density: Some(10.0 / SPARSE_D as f64),
        batch_size: Some(1000),
        max_outer: 2,
        max_inner: 15,
        inner_tol: 0.0,
        theta: 1e-3,
        epsilon: 1e-8,
        seed: 7,
        ..LeastConfig::default()
    };
    cfg.adam.learning_rate = 0.05;
    cfg
}

// jobs_and_queries: many small jobs, open loop, beside root-cause queries.
const JOB_D: usize = 16;
const JOB_N: usize = 4_000;
/// Distinct datasets (and model names) the jobs cycle over; accuracy is
/// pooled over all of them.
const JOB_DATASETS: usize = 64;
/// Their DAGs are fixed, like train_then_query's: the seed draws the rows.
const JOB_GRAPH_SEED: u64 = 0x10B5;
const SMALL_JOB: &str =
    r#"{"lambda":0.05,"max_outer":6,"max_inner":120,"learning_rate":0.02,"seed":9}"#;
/// Submission rate, jobs per second: about half of what two job workers
/// complete beside the query load on a 2-core machine.
const JOB_RATE: f64 = 40.0;
pub const RESIDENT_D: usize = 10_000;
/// A generator more than this late on any submission flags the run.
pub const MAX_LAG: f64 = 0.050;

/// Jobs per latency group (see `report_jobs`).
const JOB_GROUP: usize = 100;

/// Boots per run; `setup_s` is their median (the last one runs the
/// workload).
const BOOTS: usize = 15;

/// Queries in a mix: enough distinct ones that a window's p99 is a tail
/// of the query-cost distribution, not of a few dozen repeated queries.
pub const QUERY_MIX_LEN: usize = 65_536;

pub fn run(args: &Args, env: &Env, dir: &WorkDir) -> Report {
    let mut report = Report::default();
    match args.workload.as_str() {
        "train_then_query" => train_then_query(args, env, dir, &mut report),
        "sparse_scale" => sparse_scale(args, env, dir, &mut report),
        _ => jobs_and_queries(args, env, dir, &mut report),
    }
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report
}

/// The `r`-th CSV of train_then_query: rows drawn from the seed, DAG fixed.
pub fn dense_csv(dir: &WorkDir, seed: u64, r: usize) -> CsvInput {
    let rows = seed.wrapping_mul(PIPELINES as u64).wrapping_add(r as u64);
    let path = dir.join(&format!("train{r}.csv"));
    write_csv(&path, DENSE_D, DENSE_N, DENSE_GRAPH_SEED, rows)
}

/// The CSVs the small jobs cycle over: rows drawn from the seed, DAGs fixed.
pub fn job_csvs(dir: &WorkDir, seed: u64) -> Vec<CsvInput> {
    (0..JOB_DATASETS)
        .map(|k| {
            let rows = seed
                .wrapping_mul(JOB_DATASETS as u64)
                .wrapping_add(k as u64);
            let path = dir.join(&format!("job{k}.csv"));
            write_csv(&path, JOB_D, JOB_N, JOB_GRAPH_SEED + k as u64, rows)
        })
        .collect()
}

/// Boot `BOOTS - 1` times empty, then once more to run `work`.
fn booted<R>(
    dir: &WorkDir,
    resident: Option<&[u8]>,
    work: impl FnOnce(&Stack) -> R,
) -> (R, Vec<f64>) {
    let mut boots: Vec<f64> = (1..BOOTS)
        .map(|_| with_stack(dir, resident, |_| ()).1)
        .collect();
    let (out, boot) = with_stack(dir, resident, work);
    boots.push(boot);
    (out, boots)
}

/// Edge F1 and SHD of `learned` against `truth`, plus the DAG check.
struct Accuracy {
    confusion: EdgeConfusion,
    shd: usize,
    dags: bool,
}

impl Accuracy {
    fn of(pairs: &[(&DiGraph, DiGraph)]) -> Self {
        let mut acc = Self {
            confusion: EdgeConfusion {
                true_positives: 0,
                false_positives: 0,
                false_negatives: 0,
                true_negatives: 0,
            },
            shd: 0,
            dags: true,
        };
        for (truth, learned) in pairs {
            let c = EdgeConfusion::between(truth, learned);
            acc.confusion.true_positives += c.true_positives;
            acc.confusion.false_positives += c.false_positives;
            acc.confusion.false_negatives += c.false_negatives;
            acc.confusion.true_negatives += c.true_negatives;
            acc.shd += structural_hamming_distance(truth, learned);
            acc.dags &= learned.is_dag();
        }
        acc
    }

    fn f1(&self) -> f64 {
        self.confusion.metrics().f1
    }

    /// Report f1 and shd, gate DAG-ness, and gate accuracy against
    /// `floors` = (f1 floor, shd ceiling) where the workload has them.
    fn report(&self, report: &mut Report, floors: Option<(f64, usize)>) {
        let f1 = self.f1();
        report.metric("f1", f1, "ratio");
        report.metric("shd", self.shd as f64, "edges");
        report.gate("learned_graphs_are_dags", self.dags, "");
        if let Some((f1_floor, shd_ceiling)) = floors {
            report.gate("f1_floor", f1 >= f1_floor, format!("{f1:.4} >= {f1_floor}"));
            report.gate(
                "shd_ceiling",
                self.shd <= shd_ceiling,
                format!("{} <= {shd_ceiling}", self.shd),
            );
        }
    }
}

/// The structure a served artifact encodes.
fn served_graph(artifact: &ModelArtifact) -> DiGraph {
    match &artifact.weights {
        WeightMatrix::Dense(w) => DiGraph::from_dense(w, 0.0),
        WeightMatrix::Sparse(w) => DiGraph::from_csr(w, 0.0),
    }
}

pub fn round_trips(artifact: &ModelArtifact) -> bool {
    let bytes = artifact.to_bytes();
    ModelArtifact::from_bytes(&bytes).is_ok_and(|back| back.to_bytes() == bytes)
}

/// Latency metrics of a closed-loop query phase (medians over its
/// windows), plus its gates.
fn report_queries(report: &mut Report, run: &QueryRun, mix: &[Query], stack: &Stack, model: &str) {
    let of = |f: fn(&Window) -> f64| {
        median(&run.windows.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    report.metric("query_qps", of(|w| w.answered as f64 / WINDOW), "1/s");
    report.metric("query_p50_ms", of(|w| w.p50) * 1e3, "ms");
    report.metric("query_p99_ms", of(|w| w.p99) * 1e3, "ms");
    let fewest = run.windows.iter().map(|w| w.answered).min().unwrap_or(0);
    let tails: Vec<f64> = run
        .windows
        .iter()
        .filter_map(|w| w.tail)
        .map(|t| t.percentile)
        .collect();
    println!(
        "queries: {} windows of {WINDOW} s, fewest answers in one {fewest}, highest tail with 10 beyond: p{:?}",
        run.windows.len(),
        tails.iter().copied().fold(f64::INFINITY, f64::min)
    );
    report.gate(
        "query_p99_has_10_beyond",
        !run.windows.is_empty()
            && tails.len() == run.windows.len()
            && tails.iter().all(|&p| p >= 99.0),
        format!("fewest answers in a window: {fewest}"),
    );
    let served = stack.registry.get(model).expect("served model");
    let mismatches = run.mismatches(mix, &served.engine);
    report.gate(
        "http_answers_match_engine",
        mismatches == 0 && !run.samples.is_empty(),
        format!(
            "{mismatches} of {} sampled answers differ",
            run.samples.len()
        ),
    );
    report.gate("artifact_round_trip", round_trips(&served.artifact), model);
    report.tally.merge(run.tally);
}

/// Job metrics shared by the two job workloads.
///
/// Latency percentiles are medians over groups of [`JOB_GROUP`] jobs in
/// submission order (p90 of a group has 10 jobs beyond it), so one burst
/// of interference moves one group; with fewer jobs, one group holds all.
/// Failed jobs count in every group as slower than any limit.
fn report_jobs(report: &mut Report, trips: &[JobTrip], failed: usize) {
    let mut by_due = trips.to_vec();
    by_due.sort_by(|a, b| a.due.total_cmp(&b.due));
    let groups: Vec<Latencies> = by_due
        .chunks(JOB_GROUP)
        .filter(|g| g.len() == JOB_GROUP || trips.len() < JOB_GROUP)
        .map(|g| Latencies::new(g.iter().map(|t| t.latency).collect(), failed))
        .collect();
    let of = |p: f64| {
        median(
            &groups
                .iter()
                .filter_map(|g| g.percentile(p))
                .collect::<Vec<_>>(),
        )
        .unwrap_or(f64::NAN)
    };
    let service: Vec<f64> = trips.iter().filter_map(|t| t.service).collect();
    let first: Vec<f64> = trips.iter().map(|t| t.first_query).collect();
    report.metric(
        "time_to_first_query_s",
        median(&first).unwrap_or(f64::NAN),
        "s",
    );
    // A mean, not a median: service times are read off status polls a
    // few milliseconds apart, and the mean averages that quantization out.
    report.metric(
        "fit_s",
        service.iter().sum::<f64>() / service.len() as f64,
        "s",
    );
    report.metric("job_latency_p50_s", of(50.0), "s");
    report.metric("job_latency_p90_s", of(90.0), "s");
    let first_attempt = trips.iter().filter(|t| t.attempts == 1).count();
    report.gate(
        "jobs_succeed_at_attempt_1",
        failed == 0 && first_attempt == trips.len() && !trips.is_empty(),
        format!("{first_attempt} of {} jobs", trips.len() + failed),
    );
    for _ in 0..trips.len() {
        report.tally.record(true);
    }
    for _ in 0..failed {
        report.tally.record(false);
    }
}

fn train_then_query(args: &Args, env: &Env, dir: &WorkDir, report: &mut Report) {
    env.check_load(env.nproc);
    let csvs: Vec<CsvInput> = (0..PIPELINES)
        .map(|r| dense_csv(dir, args.seed, r))
        .collect();
    let mix = query_mix(DENSE_D, QUERY_MIX_LEN, args.seed);
    reset_peak_rss();
    let (trips, boots) = booted(dir, None, |stack| {
        let trips: Vec<Option<JobTrip>> = csvs
            .iter()
            .enumerate()
            .map(|(r, csv)| {
                let model = format!("learned{r}");
                let spec = job_spec(&model, &csv.path, DENSE_JOB);
                job_trip(stack.addr, &spec, &model, &mix.queries[0])
            })
            .collect();
        if trips.iter().all(Option::is_some) {
            let run = closed_loop(stack.addr, "learned0", &mix.bodies, env.nproc, args.seconds);
            report_queries(report, &run, &mix.queries, stack, "learned0");
            let learned: Vec<(&DiGraph, DiGraph)> = csvs
                .iter()
                .enumerate()
                .map(|(r, csv)| {
                    let served = stack.registry.get(&format!("learned{r}")).expect("served");
                    (&csv.truth, served_graph(&served.artifact))
                })
                .collect();
            Accuracy::of(&learned).report(report, Some(DENSE_FLOORS));
        }
        trips
    });
    report.metric("setup_s", median(&boots).expect("boots"), "s");
    let ok: Vec<JobTrip> = trips.iter().flatten().cloned().collect();
    report_jobs(report, &ok, PIPELINES - ok.len());
}

/// Accuracy gates (f1 floor, shd ceiling), set below what the benchmark
/// measured when it was introduced: f1 0.82–0.85 and shd 147–175 pooled
/// over the three d=200 pipelines; f1 0.92–0.93 and shd 119–143 pooled
/// over the 64 small jobs. sparse_scale has none: its fixed budget stops
/// far short of convergence.
const DENSE_FLOORS: (f64, usize) = (0.75, 220);
const JOBS_FLOORS: (f64, usize) = (0.85, 220);

/// Weight digest: pattern and exact values.
pub fn digest(w: &least_linalg::CsrMatrix) -> u64 {
    let mut bytes = Vec::with_capacity(w.nnz() * 12);
    for &p in w.row_pointers() {
        bytes.extend_from_slice(&p.to_le_bytes());
    }
    for &c in w.col_indices() {
        bytes.extend_from_slice(&c.to_le_bytes());
    }
    for v in w.values() {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    least_serve::artifact::fnv1a64(&bytes)
}

/// The smallest τ of the paper's grid at which the learned structure is a
/// DAG (thresholding until acyclic, the usual post-processing).
pub fn serving_tau(learned: &LearnedSparse) -> Option<f64> {
    least_metrics::grid::paper_tau_grid()
        .into_iter()
        .find(|&tau| learned.graph(tau).is_dag())
}

fn sparse_scale(args: &Args, env: &Env, dir: &WorkDir, report: &mut Report) {
    env.check_load(env.nproc);
    let cfg = sparse_config();
    let input = sparse_input(&cfg, SPARSE_D, SPARSE_N, args.seed);
    let mix = query_mix(SPARSE_D, QUERY_MIX_LEN, args.seed);
    reset_peak_rss();
    let ((fits, trips), boots) = booted(dir, None, |stack| {
        let mut fits = Vec::new();
        let mut trips = Vec::new();
        for r in 0..SPARSE_FITS {
            let start = Instant::now();
            let learned = LeastSparse::new(cfg)
                .expect("valid config")
                .fit(&input.data)
                .expect("sparse fit");
            let fit = start.elapsed().as_secs_f64();
            let Some(tau) = serving_tau(&learned) else {
                fits.push((learned, fit, None));
                break;
            };
            let model = format!("learned{r}");
            let bytes = sparse_artifact(&learned.weights, tau).to_bytes();
            let (status, body) = request(stack.addr, "PUT", &format!("/models/{model}"), &bytes);
            assert_eq!(status, 201, "upload: {}", lossy(&body));
            let published = start.elapsed().as_secs_f64();
            let path = format!("/models/{model}/query");
            let (status, _) = request(stack.addr, "POST", &path, mix.bodies[0].as_bytes());
            report.tally.record(status == 200);
            trips.push(JobTrip {
                latency: published,
                service: Some(fit),
                first_query: start.elapsed().as_secs_f64(),
                attempts: 1,
                ..JobTrip::default()
            });
            fits.push((learned, fit, Some(tau)));
        }
        if let [(first, _, Some(tau)), ..] = fits.as_slice() {
            let run = closed_loop(stack.addr, "learned0", &mix.bodies, env.nproc, args.seconds);
            report_queries(report, &run, &mix.queries, stack, "learned0");
            println!(
                "sparse: support {} slots, nnz after fit {}, served at tau {tau}",
                input.support,
                first.weights.nnz()
            );
            Accuracy::of(&[(&input.truth, first.graph(*tau))]).report(report, None);
        }
        (fits, trips)
    });
    // Solver construction is part of set-up; it is microseconds next to
    // the boot, but it is what LEAST-SP users pay before fitting.
    let construct = Instant::now();
    std::hint::black_box(LeastSparse::new(cfg).expect("valid config"));
    let construct = construct.elapsed().as_secs_f64();
    report.metric("setup_s", median(&boots).expect("boots") + construct, "s");
    report_jobs(report, &trips, SPARSE_FITS - trips.len());
    let finite = fits
        .iter()
        .all(|(l, _, _)| l.weights.values().iter().all(|v| v.is_finite()));
    let digests: Vec<u64> = fits.iter().map(|(l, _, _)| digest(&l.weights)).collect();
    report.gate("sparse_weights_finite", finite, "");
    report.gate(
        "sparse_fits_digest_identical",
        digests.len() == SPARSE_FITS && digests.windows(2).all(|w| w[0] == w[1]),
        format!("{digests:016x?}"),
    );
    report.gate(
        "sparse_structure_servable",
        fits.iter().all(|(_, _, tau)| tau.is_some()),
        "a DAG at some tau of the paper's grid",
    );
}

/// One submitted small job being followed.
struct Pending {
    id: u64,
    dataset: usize,
    due: f64,
    running_at: Option<f64>,
    next_poll: f64,
    submit_rtt: f64,
    polls: u64,
    last_poll: Option<f64>,
}

/// What the open-loop job generator saw.
#[derive(Default)]
pub struct JobsRun {
    pub trips: Vec<JobTrip>,
    pub failed: usize,
    pub tally: Tally,
    pub lag_max: f64,
    /// Gaps between successive polls of one job: the poll resolution.
    pub poll_gaps: Vec<f64>,
}

/// Open loop on one keep-alive connection: submit a job every
/// `1 / JOB_RATE` seconds for `seconds`, polling outstanding jobs (see
/// [`poll_gap`]) in between; each job's latency runs from its due time. Then
/// stop submitting and drain.
pub fn open_loop_jobs(stack: &Stack, csvs: &[CsvInput], seconds: f64) -> JobsRun {
    let mut client = HttpClient::connect(stack.addr).expect("connect");
    let mut out = JobsRun::default();
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let first_query = Query::MarkovBlanket(0).body();
    let start = Instant::now();
    let drain_deadline = seconds + 60.0;
    let mut next = 0usize;
    loop {
        let now = start.elapsed().as_secs_f64();
        let due = next as f64 / JOB_RATE;
        if due < seconds && due <= now {
            out.lag_max = out.lag_max.max(now - due);
            let dataset = next % csvs.len();
            let spec = job_spec(&format!("job{dataset}"), &csvs[dataset].path, SMALL_JOB);
            let sent = Instant::now();
            let id = submit(&mut client, &spec);
            out.tally.record(id.is_some());
            match id {
                Some(id) => pending.push_back(Pending {
                    id,
                    dataset,
                    due,
                    running_at: None,
                    next_poll: now + POLL,
                    submit_rtt: sent.elapsed().as_secs_f64(),
                    polls: 0,
                    last_poll: None,
                }),
                None => out.failed += 1,
            }
            next += 1;
            continue;
        }
        if pending.is_empty() && due >= seconds {
            break;
        }
        if now > drain_deadline {
            out.failed += pending.len();
            break;
        }
        // Poll the job whose turn has come, if any.
        if let Some(pos) = pending.iter().position(|p| p.next_poll <= now) {
            let mut job = pending.remove(pos).expect("position is in range");
            let polled = poll(&mut client, job.id);
            out.tally.record(polled.is_some());
            job.polls += 1;
            let at = start.elapsed().as_secs_f64();
            if let Some(last) = job.last_poll.replace(at) {
                out.poll_gaps.push(at - last);
            }
            match polled {
                Some((state, _)) if state == "queued" || state == "running" => {
                    if state == "running" {
                        job.running_at.get_or_insert(at);
                    }
                    job.next_poll = at + poll_gap(at - job.due);
                    pending.push_back(job);
                }
                Some((state, attempts)) if state == "succeeded" => {
                    let path = format!("/models/job{}/query", job.dataset);
                    let answered = client.request("POST", &path, first_query.as_bytes());
                    let ok = matches!(answered, Ok((200, _)));
                    out.tally.record(ok);
                    out.trips.push(JobTrip {
                        due: job.due,
                        latency: at - job.due,
                        service: job.running_at.map(|r| at - r),
                        queue_wait: job.running_at.map(|r| r - job.due),
                        first_query: start.elapsed().as_secs_f64() - job.due,
                        attempts,
                        polls: job.polls,
                        submit_rtt: job.submit_rtt,
                    });
                }
                other => {
                    eprintln!("job {} ended badly: {other:?}", job.id);
                    out.failed += 1;
                }
            }
            continue;
        }
        let next_poll = pending
            .iter()
            .map(|p| p.next_poll)
            .fold(f64::INFINITY, f64::min);
        let wake = if due < seconds {
            next_poll.min(due)
        } else {
            next_poll
        };
        let wait = wake - start.elapsed().as_secs_f64();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
    }
    out
}

fn jobs_and_queries(args: &Args, env: &Env, dir: &WorkDir, report: &mut Report) {
    // One generator connection plus one query connection.
    env.check_load(2);
    let csvs = job_csvs(dir, args.seed);
    let resident = resident_model(RESIDENT_D, args.seed).to_bytes();
    let mix = query_mix(RESIDENT_D, QUERY_MIX_LEN, args.seed);
    reset_peak_rss();
    let (jobs, boots) = booted(dir, Some(&resident), |stack| {
        let (jobs, run) = std::thread::scope(|scope| {
            let queries =
                scope.spawn(|| closed_loop(stack.addr, "resident", &mix.bodies, 1, args.seconds));
            let jobs = open_loop_jobs(stack, &csvs, args.seconds);
            (jobs, queries.join().expect("query connection"))
        });
        report_queries(report, &run, &mix.queries, stack, "resident");
        let learned: Vec<(&DiGraph, DiGraph)> = csvs
            .iter()
            .enumerate()
            .filter_map(|(k, csv)| {
                let served = stack.registry.get(&format!("job{k}"))?;
                Some((&csv.truth, served_graph(&served.artifact)))
            })
            .collect();
        report.gate(
            "every_dataset_learned",
            learned.len() == JOB_DATASETS,
            format!("{} of {JOB_DATASETS}", learned.len()),
        );
        Accuracy::of(&learned).report(report, Some(JOBS_FLOORS));
        jobs
    });
    report.metric("setup_s", median(&boots).expect("boots"), "s");
    report_jobs(report, &jobs.trips, jobs.failed);
    report.tally.merge(jobs.tally);
    println!(
        "jobs: {} done, generator lag max {:.3} ms, median poll gap {:.3} ms",
        jobs.trips.len(),
        jobs.lag_max * 1e3,
        median(&jobs.poll_gaps).unwrap_or(f64::NAN) * 1e3
    );
    if jobs.lag_max > MAX_LAG {
        println!("warning: job generator fell behind schedule");
    }
}
