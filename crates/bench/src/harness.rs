//! Dataset/model preparation shared by every `trmma-eval` experiment.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use trmma_baselines::{Seq2SeqConfig, Seq2SeqFull};
use trmma_core::{Mma, MmaConfig, Trmma, TrmmaConfig};
use trmma_nn::TrainReport;
use trmma_node2vec::{train_embeddings, Node2VecConfig};
use trmma_roadnet::{RoadNetwork, RoutePlanner};
use trmma_traj::dataset::{build_dataset, Dataset, DatasetConfig, Split};
use trmma_traj::Sample;

/// Experiment-wide configuration, read from the environment (see crate
/// docs for the variables).
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Dataset scale factor.
    pub scale: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Use paper-size model widths instead of the small profile.
    pub paper_profile: bool,
    /// Dataset names to run.
    pub datasets: Vec<String>,
}

impl ExpConfig {
    /// Reads the configuration from the environment. Unset variables take
    /// their defaults.
    ///
    /// # Panics
    /// On a malformed or unknown value, naming the variable, the value and
    /// what is accepted — a mistyped knob must not run a different
    /// experiment (or none) under the intended name.
    #[must_use]
    pub fn from_env() -> Self {
        let var = |name: &str| match std::env::var(name) {
            Ok(v) => Some(v),
            Err(std::env::VarError::NotPresent) => None,
            Err(std::env::VarError::NotUnicode(v)) => panic!("{name}={v:?} is not UTF-8"),
        };
        Self::parse(
            var("TRMMA_SCALE"),
            var("TRMMA_EPOCHS"),
            var("TRMMA_PROFILE"),
            var("TRMMA_DATASETS"),
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ExpConfig::from_env`] on the four variables' values (`None` =
    /// unset), with the rejection message as the error.
    fn parse(
        scale: Option<String>,
        epochs: Option<String>,
        profile: Option<String>,
        datasets: Option<String>,
    ) -> Result<Self, String> {
        let scale = match scale {
            None => 0.25,
            Some(v) => match v.trim().parse::<f64>() {
                Ok(x) if x.is_finite() && x > 0.0 => x,
                _ => {
                    return Err(format!("TRMMA_SCALE={v:?}: expected a positive number, e.g. 0.25"))
                }
            },
        };
        let epochs = match epochs {
            None => 5,
            Some(v) => v
                .trim()
                .parse::<usize>()
                .map_err(|_| format!("TRMMA_EPOCHS={v:?}: expected a whole number, e.g. 5"))?,
        };
        let paper_profile = match profile.as_deref() {
            None | Some("small") => false,
            Some("paper") => true,
            Some(v) => return Err(format!("TRMMA_PROFILE={v:?}: expected `small` or `paper`")),
        };
        let known: Vec<String> =
            DatasetConfig::all_four(scale).into_iter().map(|c| c.name).collect();
        let datasets = match datasets {
            None => known,
            Some(v) => {
                let picked: Vec<String> = v.split(',').map(|s| s.trim().to_uppercase()).collect();
                if let Some(bad) = picked.iter().find(|d| !known.contains(d)) {
                    return Err(format!(
                        "TRMMA_DATASETS={v:?}: unknown dataset {bad:?}, expected a comma list among {}",
                        known.join(",")
                    ));
                }
                picked
            }
        };
        Ok(Self { scale, epochs, paper_profile, datasets })
    }

    /// The dataset configs selected by `TRMMA_DATASETS`.
    #[must_use]
    pub fn dataset_configs(&self) -> Vec<DatasetConfig> {
        DatasetConfig::all_four(self.scale)
            .into_iter()
            .filter(|c| self.datasets.iter().any(|d| d == &c.name))
            .collect()
    }

    /// MMA model widths for the profile.
    #[must_use]
    pub fn mma_config(&self) -> MmaConfig {
        if self.paper_profile {
            MmaConfig::default()
        } else {
            MmaConfig::small()
        }
    }

    /// TRMMA model widths for the profile.
    #[must_use]
    pub fn trmma_config(&self) -> TrmmaConfig {
        if self.paper_profile {
            TrmmaConfig::default()
        } else {
            TrmmaConfig::small()
        }
    }

    /// Seq2Seq baseline widths for the profile.
    #[must_use]
    pub fn seq2seq_config(&self) -> Seq2SeqConfig {
        if self.paper_profile {
            Seq2SeqConfig::default()
        } else {
            Seq2SeqConfig { d_model: 24, d_emb: 12, ..Seq2SeqConfig::default() }
        }
    }
}

/// A prepared dataset: network, fitted route planner, Node2Vec embeddings
/// and train/test sparse samples at a given γ.
pub struct Bundle {
    /// The generated dataset (owns the network and the dense corpus).
    pub ds: Dataset,
    /// Shared handle to the network.
    pub net: Arc<RoadNetwork>,
    /// Route planner fitted on the training routes (the paper's shared
    /// "DA-based" routine).
    pub planner: Arc<RoutePlanner>,
    /// Node2Vec segment embeddings (`W_G` of Eq. 1) and the seconds their
    /// training took, trained on first use ([`Bundle::node2vec`]): most
    /// figures never read them.
    node2vec: OnceLock<(trmma_nn::Matrix, f64)>,
    /// Embedding width Node2Vec trains at.
    d0: usize,
    /// Training samples (sparse at γ).
    pub train: Vec<Sample>,
    /// Test samples (sparse at γ).
    pub test: Vec<Sample>,
    /// The γ the samples were produced with.
    pub gamma: f64,
}

impl Bundle {
    /// Builds a bundle for `cfg` at sparsity `gamma`.
    #[must_use]
    pub fn prepare(cfg: &DatasetConfig, gamma: f64, d0: usize) -> Self {
        let ds = build_dataset(cfg);
        let net = Arc::new(ds.net.clone());
        let train = ds.samples(Split::Train, gamma, 71);
        let test = ds.samples(Split::Test, gamma, 72);
        let mut planner = RoutePlanner::untrained(&net);
        for s in &train {
            planner.observe(&s.route.segs);
        }
        let planner = Arc::new(planner);
        Self { ds, net, planner, node2vec: OnceLock::new(), d0, train, test, gamma }
    }

    /// Pre-trained Node2Vec segment embeddings (`W_G` of Eq. 1), trained
    /// once, on the first call.
    #[must_use]
    pub fn node2vec(&self) -> &trmma_nn::Matrix {
        &self.node2vec_run().0
    }

    /// Wall-clock seconds the bundle's one Node2Vec training took
    /// (training it now if nothing has asked for the embeddings yet).
    #[must_use]
    pub fn node2vec_s(&self) -> f64 {
        self.node2vec_run().1
    }

    fn node2vec_run(&self) -> &(trmma_nn::Matrix, f64) {
        self.node2vec.get_or_init(|| {
            let n2v_cfg = Node2VecConfig { dim: self.d0, ..Node2VecConfig::default() };
            timed(|| train_embeddings(&self.net, &n2v_cfg))
        })
    }

    /// Re-samples train/test at each of `gammas`, concatenated in that
    /// order: the sparsity sweeps test at one γ at a time and train on a mix.
    #[must_use]
    pub fn resample(&self, gammas: &[f64]) -> (Vec<Sample>, Vec<Sample>) {
        let at =
            |split, seed| gammas.iter().flat_map(|&g| self.ds.samples(split, g, seed)).collect();
        (at(Split::Train, 71), at(Split::Test, 72))
    }
}

/// Trains MMA on the bundle; returns the model and its training report.
#[must_use]
pub fn trained_mma(bundle: &Bundle, cfg: MmaConfig, epochs: usize) -> (Mma, TrainReport) {
    let cfg = MmaConfig { d0: bundle.node2vec().cols(), ..cfg };
    let mut mma =
        Mma::new(bundle.net.clone(), bundle.planner.clone(), Some(bundle.node2vec().clone()), cfg);
    let report = mma.train(&bundle.train, epochs);
    (mma, report)
}

/// Trains TRMMA on the bundle.
#[must_use]
pub fn trained_trmma(bundle: &Bundle, cfg: TrmmaConfig, epochs: usize) -> (Trmma, TrainReport) {
    let mut model = Trmma::new(bundle.net.clone(), cfg);
    let report = model.train(&bundle.train, epochs);
    (model, report)
}

/// Trains the full-network seq2seq baseline on the bundle.
#[must_use]
pub fn trained_seq2seq(
    bundle: &Bundle,
    cfg: Seq2SeqConfig,
    epochs: usize,
) -> (Seq2SeqFull, TrainReport) {
    let mut model = Seq2SeqFull::new(bundle.net.clone(), cfg);
    let report = model.train(&bundle.train, epochs);
    (model, report)
}

/// Evaluates a recovery method over the test set: mean per-trajectory
/// metrics plus total inference seconds (metric computation excluded from
/// the timing).
#[must_use]
pub fn eval_recovery(
    net: &RoadNetwork,
    method: &dyn trmma_traj::TrajectoryRecovery,
    test: &[Sample],
    epsilon_s: f64,
) -> (trmma_traj::RecoveryMetrics, f64) {
    let cache = trmma_roadnet::shortest::DistCache::new();
    let mut avg = trmma_traj::metrics::MetricAverager::new();
    let mut infer_s = 0.0;
    for s in test {
        let (rec, dt) = timed(|| method.recover(&s.sparse, epsilon_s));
        infer_s += dt;
        avg.add_recovery(trmma_traj::recovery_metrics(net, &rec, &s.dense_truth, Some(&cache)));
    }
    (avg.mean_recovery(), infer_s)
}

/// Mean per-trajectory route metrics of `results` against their samples'
/// true routes — the one aggregation all matching evaluators share, so the
/// sequential, engine and pooled paths cannot drift apart.
fn mean_matching_metrics(
    results: &[trmma_traj::MatchResult],
    test: &[Sample],
) -> trmma_traj::MatchingMetrics {
    let mut avg = trmma_traj::metrics::MetricAverager::new();
    for (res, s) in results.iter().zip(test) {
        avg.add_matching(trmma_traj::matching_metrics(&res.route, &s.route));
    }
    avg.mean_matching()
}

/// Evaluates a map matcher over the test set: mean per-trajectory route
/// metrics plus total inference seconds.
#[must_use]
pub fn eval_matching(
    matcher: &dyn trmma_traj::MapMatcher,
    test: &[Sample],
) -> (trmma_traj::MatchingMetrics, f64) {
    let mut results = Vec::with_capacity(test.len());
    let mut infer_s = 0.0;
    for s in test {
        let (res, dt) = timed(|| matcher.match_trajectory(&s.sparse));
        infer_s += dt;
        results.push(res);
    }
    (mean_matching_metrics(&results, test), infer_s)
}

/// Evaluates a scratch-capable matcher through the pooled batch fan-out
/// (`par_match_pooled`: one warm `SsspPool`/kNN scratch per worker): mean
/// route metrics plus the batch wall-clock seconds. The pooled analogue of
/// [`eval_matching`] for the baseline rows of fig. 9 / Table V — output is
/// identical to the sequential loop (property-tested in
/// `tests/props_baselines.rs`), only the wall-clock parallelises.
#[must_use]
pub fn eval_matching_pooled<M: trmma_traj::OnlineMatcher>(
    matcher: &M,
    test: &[Sample],
    opts: trmma_core::BatchOptions,
) -> (trmma_traj::MatchingMetrics, f64) {
    let batch: Vec<_> = test.iter().map(|s| s.sparse.clone()).collect();
    let (results, timing) = trmma_core::par_match_pooled(matcher, &batch, opts);
    (mean_matching_metrics(&results, test), timing.wall_s)
}

/// Evaluates the batched recovery engine over the test set: mean
/// per-trajectory metrics plus the batch wall-clock seconds (metric
/// computation excluded). The parallel analogue of [`eval_recovery`].
#[must_use]
pub fn eval_recovery_batch<M: trmma_traj::OnlineMatcher>(
    net: &RoadNetwork,
    engine: &trmma_core::BatchRecovery<M>,
    test: &[Sample],
    epsilon_s: f64,
) -> (trmma_traj::RecoveryMetrics, f64) {
    let batch: Vec<_> = test.iter().map(|s| s.sparse.clone()).collect();
    let (recovered, timing) = engine.recover_batch_timed(&batch, epsilon_s);
    let cache = trmma_roadnet::shortest::DistCache::new();
    let mut avg = trmma_traj::metrics::MetricAverager::new();
    for (rec, s) in recovered.iter().zip(test) {
        avg.add_recovery(trmma_traj::recovery_metrics(net, rec, &s.dense_truth, Some(&cache)));
    }
    (avg.mean_recovery(), timing.wall_s)
}

/// Wall-clock seconds for `f`, returned alongside its output.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Seconds per 1000 items given `elapsed` seconds over `n` items (the
/// paper's Figs. 5 and 9 unit).
#[must_use]
pub fn per_1000(elapsed_s: f64, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    elapsed_s / n as f64 * 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_1000_scales() {
        assert_eq!(per_1000(2.0, 100), 20.0);
        assert_eq!(per_1000(1.0, 0), 0.0);
    }

    #[test]
    fn env_defaults() {
        let cfg = ExpConfig::parse(None, None, None, None).unwrap();
        assert_eq!((cfg.scale, cfg.epochs, cfg.paper_profile), (0.25, 5, false));
        assert_eq!(cfg.datasets, ["PT", "XA", "BJ", "CD"]);
        assert_eq!(cfg.dataset_configs().len(), 4);

        let s = |v: &str| Some(v.to_string());
        let cfg = ExpConfig::parse(s("0.1"), s("1"), s("paper"), s("pt, CD")).unwrap();
        assert_eq!((cfg.scale, cfg.epochs, cfg.paper_profile), (0.1, 1, true));
        let names: Vec<String> = cfg.dataset_configs().into_iter().map(|c| c.name).collect();
        assert_eq!(names, ["PT", "CD"]);
    }

    #[test]
    fn malformed_env_values_are_rejected_by_name() {
        let s = |v: &str| Some(v.to_string());
        let err = |scale, epochs, profile, datasets| {
            ExpConfig::parse(scale, epochs, profile, datasets).unwrap_err()
        };
        for bad in ["0,5", "0", "-1", "nan", ""] {
            let e = err(s(bad), None, None, None);
            assert!(e.contains("TRMMA_SCALE") && e.contains(&format!("{bad:?}")), "{e}");
        }
        for bad in ["ten", "-1", "1.5"] {
            let e = err(None, s(bad), None, None);
            assert!(e.contains("TRMMA_EPOCHS") && e.contains(&format!("{bad:?}")), "{e}");
        }
        let e = err(None, None, s("Paper"), None);
        assert!(e.contains("TRMMA_PROFILE") && e.contains("\"Paper\"") && e.contains("paper`"));
        for bad in ["PX", "PT,PX", "", "PT,"] {
            let e = err(None, None, None, s(bad));
            assert!(e.contains("TRMMA_DATASETS") && e.contains("PT,XA,BJ,CD"), "{e}");
        }
    }

    #[test]
    fn bundle_prepares_consistent_views() {
        let cfg = DatasetConfig::tiny();
        let bundle = Bundle::prepare(&cfg, 0.2, 16);
        assert!(!bundle.train.is_empty());
        assert!(!bundle.test.is_empty());
        assert_eq!(bundle.node2vec().shape().0, bundle.net.num_segments());
        let (tr2, te2) = bundle.resample(&[0.5]);
        assert_eq!(tr2.len(), bundle.train.len());
        assert_eq!(te2.len(), bundle.test.len());
        assert_eq!(bundle.resample(&[0.2, 0.5]).0.len(), 2 * tr2.len());
        // Higher γ keeps more points.
        let before: usize = bundle.train.iter().map(|s| s.sparse.len()).sum();
        let after: usize = tr2.iter().map(|s| s.sparse.len()).sum();
        assert!(after > before);
    }
}
