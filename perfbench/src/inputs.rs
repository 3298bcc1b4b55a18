//! Input synthesis. Everything here runs before any timed region, and
//! everything is a function of the workload seed: the program under test
//! only ever sees the files, matrices and request bodies made here.

use least_core::{LeastConfig, LeastSparse};
use least_data::{export_csv, sample_lsem_dataset, sample_lsem_sparse, Dataset, NoiseModel};
use least_graph::{
    erdos_renyi_dag, weighted_adjacency_dense, weighted_adjacency_sparse, DiGraph, WeightRange,
};
use least_linalg::{CsrMatrix, DenseMatrix, Xoshiro256pp};
use least_serve::json::JsonValue;
use least_serve::{Gaussian, ModelArtifact, ModelMeta, QueryEngine, WeightMatrix};
use std::path::{Path, PathBuf};

/// Scratch directory for one run, under the current directory (the
/// checkout root); removed again when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn create() -> std::io::Result<Self> {
        let path = PathBuf::from(".perfbench_work").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
        // Leaves the parent only when no concurrent run still uses it.
        std::fs::remove_dir(".perfbench_work").ok();
    }
}

/// Weights of every generated dense ground truth; the lower end keeps
/// edges above the serving threshold once learned.
const DENSE_WEIGHTS: WeightRange = WeightRange { lo: 0.8, hi: 1.6 };

/// A CSV sampled from a linear-Gaussian SEM, and the DAG behind it.
pub struct CsvInput {
    pub path: PathBuf,
    pub truth: DiGraph,
    pub bytes: u64,
}

/// Sample `n` rows from an ER(degree 2) DAG on `d` nodes and write them
/// as CSV. The DAG is drawn from `graph_seed`, the rows from `data_seed`.
pub fn write_csv(path: &Path, d: usize, n: usize, graph_seed: u64, data_seed: u64) -> CsvInput {
    let mut rng = Xoshiro256pp::new(graph_seed);
    let truth = erdos_renyi_dag(d, 2, &mut rng);
    let w = weighted_adjacency_dense(&truth, DENSE_WEIGHTS, &mut rng);
    let mut rng = Xoshiro256pp::new(data_seed);
    let data = sample_lsem_dataset(&w, n, NoiseModel::standard_gaussian(), &mut rng)
        .expect("ER graphs are acyclic");
    export_csv(&data, path).expect("write csv");
    // Flush now: background writeback of tens of MB of inputs would
    // otherwise stall the journal's fsyncs inside the timed region.
    let file = std::fs::File::open(path).expect("csv written");
    file.sync_all().expect("sync csv");
    let bytes = file.metadata().expect("csv metadata").len();
    CsvInput {
        path: path.to_path_buf(),
        truth,
        bytes,
    }
}

/// LEAST-SP's input at scale: raw samples whose generating DAG lies
/// inside the solver's random initial support, so that recovery is
/// measurable (a DAG drawn independently of the support overlaps it in
/// about `ζ·|E|` ≈ 10 edges, and F1 is then pure counting noise).
pub struct SparseInput {
    pub data: Dataset,
    pub truth: DiGraph,
    /// Slots of the solver's initial support.
    pub support: usize,
}

/// Draw the support the solver starts from by running it for a single
/// iteration without thresholding (the support only ever shrinks), then
/// plant `d` edges of it, oriented along a random order, as the truth.
pub fn sparse_input(cfg: &LeastConfig, d: usize, n: usize, seed: u64) -> SparseInput {
    let probe = LeastConfig {
        max_outer: 1,
        max_inner: 1,
        theta: 0.0,
        ..*cfg
    };
    let support = LeastSparse::new(probe)
        .expect("valid config")
        .fit(&Dataset::new(DenseMatrix::zeros(2, d)))
        .expect("support probe")
        .weights;
    let mut rng = Xoshiro256pp::new(seed);
    let mut rank: Vec<usize> = (0..d).collect();
    rng.shuffle(&mut rank);
    let mut forward: Vec<(usize, usize)> = support
        .iter()
        .filter(|&(i, j, _)| rank[i] < rank[j])
        .map(|(i, j, _)| (i, j))
        .collect();
    rng.shuffle(&mut forward);
    forward.truncate(d);
    let truth = DiGraph::from_edges(d, &forward);
    let w = weighted_adjacency_sparse(&truth, WeightRange::default(), &mut rng);
    let x = sample_lsem_sparse(&w, n, NoiseModel::standard_gaussian(), &mut rng)
        .expect("planted graph is acyclic");
    SparseInput {
        data: Dataset::new(x),
        truth,
        support: support.nnz(),
    }
}

/// A d-node sparse ground-truth model (ER degree 2, unit noise, small
/// intercepts), encoded as an artifact: the resident model queried
/// beside the jobs.
pub fn resident_model(d: usize, seed: u64) -> ModelArtifact {
    let mut rng = Xoshiro256pp::new(seed);
    let g = erdos_renyi_dag(d, 2, &mut rng);
    let w = weighted_adjacency_sparse(&g, WeightRange::default(), &mut rng);
    let intercepts = (0..d).map(|_| rng.uniform(-0.5, 0.5)).collect();
    ModelArtifact::new(
        WeightMatrix::Sparse(w),
        intercepts,
        vec![1.0; d],
        ModelMeta {
            threshold: 0.0,
            fingerprint: format!("perfbench resident ER d={d} seed={seed}"),
        },
    )
    .expect("consistent artifact")
}

/// Serve a learned sparse structure as an equal-variance linear-Gaussian
/// model: the learned weights, zero intercepts, unit noise. (The OLS
/// refit is dense `d×d`, out of reach at this scale; the data it was
/// learned from is zero-mean with unit noise.)
pub fn sparse_artifact(w: &CsrMatrix, tau: f64) -> ModelArtifact {
    let mut kept = w.clone();
    kept.threshold(tau);
    let d = kept.rows();
    ModelArtifact::new(
        WeightMatrix::Sparse(kept),
        vec![0.0; d],
        vec![1.0; d],
        ModelMeta {
            threshold: tau,
            fingerprint: format!("perfbench LEAST-SP d={d} tau={tau}"),
        },
    )
    .expect("consistent artifact")
}

/// One root-cause query of the benchmark mix.
#[derive(Debug, Clone)]
pub enum Query {
    Ancestors(usize),
    MarkovBlanket(usize),
    /// Posterior of `target` given observed `evidence` and `do` settings.
    Posterior {
        target: usize,
        evidence: Vec<(usize, f64)>,
        interventions: Vec<(usize, f64)>,
    },
}

impl Query {
    /// The JSON request body.
    pub fn body(&self) -> String {
        let pairs = |xs: &[(usize, f64)]| {
            JsonValue::Arr(
                xs.iter()
                    .map(|&(v, x)| {
                        JsonValue::Arr(vec![JsonValue::Num(v as f64), JsonValue::Num(x)])
                    })
                    .collect(),
            )
        };
        match self {
            Query::Ancestors(v) => format!(r#"{{"kind":"ancestors","node":{v}}}"#),
            Query::MarkovBlanket(v) => format!(r#"{{"kind":"markov_blanket","node":{v}}}"#),
            Query::Posterior {
                target,
                evidence,
                interventions,
            } => JsonValue::obj(vec![
                ("kind", JsonValue::Str("posterior".into())),
                ("target", JsonValue::Num(*target as f64)),
                ("evidence", pairs(evidence)),
                ("do", pairs(interventions)),
            ])
            .render(),
        }
    }

    /// The answer the server must send, computed in-process on `engine`
    /// and rendered the way the wire format renders it.
    pub fn answer(&self, engine: &QueryEngine) -> String {
        let nodes = |kind: &str, nodes: Vec<usize>| {
            JsonValue::obj(vec![
                ("kind", JsonValue::Str(kind.into())),
                ("nodes", JsonValue::num_array(nodes)),
            ])
        };
        match self {
            Query::Ancestors(v) => nodes("ancestors", engine.ancestors(*v).expect("node")),
            Query::MarkovBlanket(v) => {
                nodes("markov_blanket", engine.markov_blanket(*v).expect("node"))
            }
            Query::Posterior {
                target,
                evidence,
                interventions,
            } => {
                let Gaussian { mean, variance } = engine
                    .posterior(*target, evidence, interventions)
                    .expect("posterior");
                JsonValue::obj(vec![
                    ("kind", JsonValue::Str("posterior".into())),
                    ("target", JsonValue::Num(*target as f64)),
                    ("mean", JsonValue::Num(mean)),
                    ("variance", JsonValue::Num(variance)),
                ])
            }
        }
        .render()
    }

    /// Evaluate on `engine` without rendering (the in-process replay).
    pub fn evaluate(&self, engine: &QueryEngine) {
        match self {
            Query::Ancestors(v) => {
                std::hint::black_box(engine.ancestors(*v).expect("node"));
            }
            Query::MarkovBlanket(v) => {
                std::hint::black_box(engine.markov_blanket(*v).expect("node"));
            }
            Query::Posterior {
                target,
                evidence,
                interventions,
            } => {
                std::hint::black_box(
                    engine
                        .posterior(*target, evidence, interventions)
                        .expect("posterior"),
                );
            }
        }
    }
}

/// A query mix and its request bodies, rendered before anything is timed.
pub struct QueryMix {
    pub queries: Vec<Query>,
    pub bodies: Vec<String>,
}

/// `count` queries over `d` nodes cycling through ancestors, Markov
/// blanket, posterior given evidence, and posterior under `do`.
pub fn query_mix(d: usize, count: usize, seed: u64) -> QueryMix {
    let mut rng = Xoshiro256pp::new(seed);
    let other = |rng: &mut Xoshiro256pp, not: usize| loop {
        let v = rng.next_below(d);
        if v != not {
            break v;
        }
    };
    let value = |rng: &mut Xoshiro256pp| (rng.gaussian() * 1000.0).round() / 1000.0;
    let queries: Vec<Query> = (0..count)
        .map(|i| {
            let v = rng.next_below(d);
            match i % 4 {
                0 => Query::Ancestors(v),
                1 => Query::MarkovBlanket(v),
                2 => {
                    let (a, b) = (other(&mut rng, v), other(&mut rng, v));
                    let evidence = if a == b {
                        vec![(a, value(&mut rng))]
                    } else {
                        vec![(a, value(&mut rng)), (b, value(&mut rng))]
                    };
                    Query::Posterior {
                        target: v,
                        evidence,
                        interventions: Vec::new(),
                    }
                }
                _ => Query::Posterior {
                    target: v,
                    evidence: Vec::new(),
                    interventions: vec![(other(&mut rng, v), value(&mut rng))],
                },
            }
        })
        .collect();
    let bodies = queries.iter().map(Query::body).collect();
    QueryMix { queries, bodies }
}
