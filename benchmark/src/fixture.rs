//! The fixture every workload shares: one city, trained weights, the
//! distance table and the shards, packed into one artifact image — and the
//! evaluation corpus drawn from `--seed`.
//!
//! Everything here runs before set-up and is not part of `setup_s`; it is
//! reported as `fixture.build_s`. The image depends on no seed, so it is
//! built once (in a child process, which keeps training out of this
//! process's peak RSS) and cached next to the build outputs.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use trmma_baselines::HmmConfig;
use trmma_core::{Artifact, ArtifactBuilder, Mma, MmaConfig, Trmma, TrmmaConfig};
use trmma_node2vec::{train_embeddings, Node2VecConfig};
use trmma_roadnet::{
    generate_city, DistTable, GridCut, NetworkConfig, RoadNetwork, RoutePlanner, SegmentId,
    ShardPlan, ShardedNetwork,
};
use trmma_traj::gen::{generate_corpus, sparsify, TrajConfig};
use trmma_traj::snapshot::{put_u32, Reader};
use trmma_traj::{Sample, Trajectory};

use crate::host;
use crate::json::{self, Value};

/// Sizes of one benchmark profile. Two exist: the measured one and the
/// `--smoke` one CI can afford.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    pub name: &'static str,
    /// City grid and seed (`NetworkConfig::with_size`).
    pub city: (usize, usize, u64),
    /// Training trajectories (fixed seed).
    pub train_n: usize,
    /// Evaluation trajectories drawn from `--seed`.
    pub eval_n: usize,
    /// Prefix of the evaluation corpus the sharded workload matches: its
    /// oracle is ~60× slower per point than the table's.
    pub sharded_n: usize,
    /// Prefix the single-threaded traced passes run over.
    pub trace_n: usize,
    /// The same for the sharded workload.
    pub sharded_trace_n: usize,
    /// Grid tiles of the sharded network.
    pub shards: usize,
    /// Route-distance bound of every HMM-family oracle, metres.
    pub delta_m: f64,
    /// Lower bound asserted on the packed distance table, bytes: the
    /// working set must provably exceed L2.
    pub min_table_bytes: usize,
    /// Offered rate of `socket_paced`, points per second.
    pub paced_rate: f64,
    /// Most passes a timed phase runs regardless of `--seconds` (0 = no
    /// cap): the smoke profile runs exactly one.
    pub max_passes: usize,
}

/// The measured profile: a 64 × 64 city (4 091 nodes, 14 276 segments)
/// whose distance table (0.9 M records, 14 MB) and MMA embedding table do
/// not fit in L2.
pub const FULL: Profile = Profile {
    name: "full",
    city: (64, 64, 7),
    train_n: 600,
    eval_n: 2000,
    sharded_n: 120,
    trace_n: 400,
    sharded_trace_n: 40,
    shards: 16,
    delta_m: 2000.0,
    min_table_bytes: 8 << 20,
    paced_rate: 8000.0,
    max_passes: 0,
};

/// The CI profile: an 8 × 8 city, one pass per workload.
pub const SMOKE: Profile = Profile {
    name: "smoke",
    city: (8, 8, 7),
    train_n: 40,
    eval_n: 120,
    sharded_n: 120,
    trace_n: 120,
    sharded_trace_n: 40,
    shards: 4,
    delta_m: 2000.0,
    min_table_bytes: 0,
    paced_rate: 2000.0,
    max_passes: 1,
};

/// Sparsity of every corpus: one GPS point in ten survives.
pub const GAMMA: f64 = 0.1;
/// Target sampling interval of recovery, seconds (`TrajConfig::default`).
pub const EPSILON_S: f64 = 15.0;
const TRAIN_SEED: u64 = 0x7121;
const CUT_SEED: u64 = 17;
/// Name of the params blob holding the training routes the planner is
/// fitted on at set-up.
pub const ROUTES_BLOB: &str = "planner_routes";

impl Profile {
    pub fn hmm_config(&self) -> HmmConfig {
        HmmConfig { max_route_m: self.delta_m, ..HmmConfig::default() }
    }

    fn image_path(&self) -> PathBuf {
        host::out_dir().join(format!("fixture-{}.img", self.name))
    }

    fn meta_path(&self) -> PathBuf {
        host::out_dir().join(format!("fixture-{}.json", self.name))
    }
}

/// How long the cached image took to build, by part.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildTimes {
    pub total_s: f64,
    pub table_s: f64,
    pub shards_s: f64,
}

/// The fixture as a workload process sees it.
pub struct Fixture {
    pub profile: Profile,
    /// The packed image on disk; set-up starts from these bytes.
    pub image_path: PathBuf,
    pub times: BuildTimes,
    /// The city, decoded once here so the corpus can be generated on it.
    pub net: Arc<RoadNetwork>,
}

fn encode_routes(train: &[Sample]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, u32::try_from(train.len()).expect("route count fits u32"));
    for s in train {
        put_u32(&mut out, u32::try_from(s.route.len()).expect("route length fits u32"));
        for seg in &s.route.segs {
            put_u32(&mut out, seg.0);
        }
    }
    out
}

/// Fits the route planner on the training routes packed under
/// [`ROUTES_BLOB`]; segment ids are range-checked against `net`.
pub fn planner_from_blob(net: &RoadNetwork, blob: &[u8]) -> Result<RoutePlanner, String> {
    let mut r = Reader::new(blob);
    let bad = |e| format!("planner routes blob: {e:?}");
    let mut planner = RoutePlanner::untrained(net);
    let mut route = Vec::new();
    for _ in 0..r.u32().map_err(bad)? {
        route.clear();
        for _ in 0..r.u32().map_err(bad)? {
            let seg = r.u32().map_err(bad)?;
            if seg as usize >= net.num_segments() {
                return Err(format!("planner routes blob: segment {seg} is not in the graph"));
            }
            route.push(SegmentId(seg));
        }
        planner.observe(&route);
    }
    r.expect_end().map_err(bad)?;
    Ok(planner)
}

/// Builds the image for `profile` and writes it, with its build times, to
/// the cache. Runs in the `fixture` child process.
pub fn build(profile: &Profile) {
    let started = Instant::now();
    let (nx, ny, seed) = profile.city;
    let net = Arc::new(generate_city(&NetworkConfig::with_size(nx, ny, seed)));
    let raws = generate_corpus(&net, &TrajConfig::default(), profile.train_n, TRAIN_SEED);
    let mut rng = StdRng::seed_from_u64(TRAIN_SEED ^ 1);
    let train: Vec<Sample> = raws.iter().map(|r| sparsify(r, GAMMA, &mut rng)).collect();
    let planner = Arc::new(RoutePlanner::fit(&net, train.iter().map(|s| s.route.segs.as_slice())));

    let mma_cfg = MmaConfig::small();
    let n2v = Node2VecConfig {
        dim: mma_cfg.d0,
        walks_per_node: 1,
        walk_len: 10,
        epochs: 1,
        ..Node2VecConfig::default()
    };
    let embeddings = train_embeddings(&net, &n2v);
    let mut mma = Mma::new(net.clone(), planner, Some(embeddings.clone()), mma_cfg);
    let _ = mma.train(&train, 1);
    let mut trmma = Trmma::new(net.clone(), TrmmaConfig::small());
    let _ = trmma.train(&train, 1);

    let t = Instant::now();
    let table = DistTable::build(&net, profile.delta_m);
    let table_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let plan = ShardPlan::new(&net, &GridCut::square(profile.shards, CUT_SEED));
    let sharded = ShardedNetwork::build(net.clone(), plan, profile.delta_m);
    let shards_s = t.elapsed().as_secs_f64();

    let mut b = ArtifactBuilder::new();
    b.graph(&net);
    b.dist_table(&table);
    b.params("mma", &mma.save_weights());
    b.params("trmma", &trmma.save_weights());
    b.params(ROUTES_BLOB, &encode_routes(&train));
    b.embeddings(&embeddings);
    b.shards(&sharded);
    let image = b.finish();

    let meta = Value::obj([
        ("total_s", Value::Num(started.elapsed().as_secs_f64())),
        ("table_s", Value::Num(table_s)),
        ("shards_s", Value::Num(shards_s)),
    ]);
    // Meta first, image last and by rename: a reader that finds the image
    // finds both, whole.
    std::fs::write(profile.meta_path(), meta.encode()).expect("write fixture meta");
    let tmp = profile.image_path().with_extension(format!("tmp{}", std::process::id()));
    std::fs::write(&tmp, image).expect("write fixture image");
    std::fs::rename(&tmp, profile.image_path()).expect("publish fixture image");
}

fn load_cached(profile: &Profile) -> Option<Fixture> {
    let image_path = profile.image_path();
    let art = Artifact::decode(std::fs::read(&image_path).ok()?).ok()?;
    let net = Arc::new(art.graph().ok()?);
    // An image from an older harness lacks a section this one serves.
    art.params_blob(ROUTES_BLOB).ok()?;
    art.shards_meta().ok()?;
    let meta = json::parse(&std::fs::read_to_string(profile.meta_path()).ok()?).ok()?;
    let num = |k: &str| meta.get(k).and_then(Value::as_f64);
    let times = BuildTimes {
        total_s: num("total_s")?,
        table_s: num("table_s")?,
        shards_s: num("shards_s")?,
    };
    Some(Fixture { profile: *profile, image_path, times, net })
}

/// The cached fixture, building it first (in a child process) when the
/// cache has none that loads.
pub fn ensure(profile: &Profile) -> Fixture {
    if let Some(f) = load_cached(profile) {
        return f;
    }
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("fixture").stdout(std::process::Stdio::null());
    if profile.name == SMOKE.name {
        cmd.arg("--smoke");
    }
    let status = cmd.status().expect("spawn the fixture builder");
    assert!(status.success(), "the fixture builder failed: {status}");
    load_cached(profile).expect("a freshly built fixture loads")
}

/// The evaluation corpus of one run: ground truth and the sparse inputs
/// the program sees.
pub struct Eval {
    /// The `--seed` the corpus was drawn from; the socket schedule
    /// interleaves with it too.
    pub seed: u64,
    pub samples: Vec<Sample>,
    /// `samples[i].sparse`, as the batch entry points take them.
    pub batch: Vec<Trajectory>,
}

impl Eval {
    /// Sparse GPS points in `batch[..n]`.
    pub fn points(&self, n: usize) -> usize {
        self.batch[..n].iter().map(Trajectory::len).sum()
    }
}

/// Draws the evaluation corpus from `seed`: equal seeds give equal corpora.
pub fn eval_corpus(net: &RoadNetwork, profile: &Profile, seed: u64) -> Eval {
    let raws = generate_corpus(net, &TrajConfig::default(), profile.eval_n, seed);
    assert_eq!(raws.len(), profile.eval_n, "the generator fell short of the corpus size");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_CAFE);
    let samples: Vec<Sample> = raws.iter().map(|r| sparsify(r, GAMMA, &mut rng)).collect();
    let batch = samples.iter().map(|s| s.sparse.clone()).collect();
    Eval { seed, samples, batch }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_routes_round_trip_and_bad_blobs_are_refused() {
        let net = generate_city(&NetworkConfig::with_size(6, 6, 3));
        let raws = generate_corpus(&net, &TrajConfig::default(), 4, 9);
        let mut rng = StdRng::seed_from_u64(9);
        let train: Vec<Sample> = raws.iter().map(|r| sparsify(r, 0.5, &mut rng)).collect();
        let blob = encode_routes(&train);

        let fitted = planner_from_blob(&net, &blob).expect("own blob decodes");
        let direct = RoutePlanner::fit(&net, train.iter().map(|s| s.route.segs.as_slice()));
        let (a, b) = (train[0].route.segs[0], train[0].route.segs[1]);
        assert_eq!(fitted.transition_prob(&net, a, b), direct.transition_prob(&net, a, b));

        assert!(planner_from_blob(&net, &blob[..blob.len() - 1]).is_err(), "truncated");
        let mut extra = blob.clone();
        extra.push(0);
        assert!(planner_from_blob(&net, &extra).is_err(), "trailing byte");
        // One route of one segment whose id is past the end of the graph.
        let mut bad = Vec::new();
        put_u32(&mut bad, 1);
        put_u32(&mut bad, 1);
        put_u32(&mut bad, u32::try_from(net.num_segments()).unwrap());
        assert!(planner_from_blob(&net, &bad).is_err(), "segment out of range");
    }

    #[test]
    fn equal_seeds_give_equal_corpora() {
        let net = generate_city(&NetworkConfig::with_size(8, 8, 7));
        let small = Profile { eval_n: 12, ..SMOKE };
        let (a, b, c) = (
            eval_corpus(&net, &small, 4),
            eval_corpus(&net, &small, 4),
            eval_corpus(&net, &small, 5),
        );
        assert_eq!(a.batch, b.batch);
        assert_ne!(a.batch, c.batch);
        assert_eq!(a.points(12), a.batch.iter().map(Trajectory::len).sum::<usize>());
    }
}
