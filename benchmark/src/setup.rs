//! The seven workloads by name, and the set-up phase that stands each one
//! up from the image bytes — what a serving process pays at every start,
//! reported as `setup_s`.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use trmma_baselines::{FmmMatcher, HmmMatcher, NearestMatcher};
use trmma_core::{
    Artifact, Mma, MmaConfig, ServeConfig, Server, StreamOptions, Trmma, TrmmaConfig,
};
use trmma_roadnet::{RoadNetwork, RoutePlanner};

use crate::fixture::{planner_from_blob, Fixture, Profile, ROUTES_BLOB};
use crate::host;

/// A named workload; the names are the ones `BENCHMARK.json` declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MatchMma,
    RecoverTrmma,
    MatchHmmCold,
    MatchFmmTable,
    MatchHmmSharded,
    SocketPaced,
    SocketSaturated,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Self::MatchMma,
        Self::RecoverTrmma,
        Self::MatchHmmCold,
        Self::MatchFmmTable,
        Self::MatchHmmSharded,
        Self::SocketPaced,
        Self::SocketSaturated,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Self::MatchMma => "match_mma",
            Self::RecoverTrmma => "recover_trmma",
            Self::MatchHmmCold => "match_hmm_cold",
            Self::MatchFmmTable => "match_fmm_table",
            Self::MatchHmmSharded => "match_hmm_sharded",
            Self::SocketPaced => "socket_paced",
            Self::SocketSaturated => "socket_saturated",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Server-side admission bounds of the socket workloads: wide enough that
/// neither the saturated window (1 024) nor a paced burst ever meets a
/// `Busy`, so every refusal seen is a failure, not a setting.
pub const SERVER_WINDOW: usize = 4096;
/// The one tenant the load generator speaks for.
pub const TENANT: u64 = 7;

/// A loopback server with the one client connection already made.
pub struct Socket<M: trmma_traj::OnlineMatcher + 'static> {
    // Field order is drop order: the connection closes before the server
    // stops, so the server's reader thread sees EOF instead of a timeout.
    pub conn: TcpStream,
    pub server: Server<M>,
    pub matcher: Arc<M>,
}

/// What set-up hands the timed phase.
pub enum Pipeline {
    Mma(Arc<Mma>),
    /// MMA feeding TRMMA; the batch engine over them is two `Arc` clones.
    Recovery(Arc<Mma>, Arc<Trmma>),
    /// `match_hmm_cold` and `match_hmm_sharded`.
    Hmm(HmmMatcher),
    Fmm(Arc<FmmMatcher>),
    SocketFmm(Socket<FmmMatcher>),
    SocketNearest(Socket<NearestMatcher>),
}

/// Milliseconds the parts of one set-up took (`core.artifact.*`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ArtifactTimes {
    pub decode_ms: f64,
    pub graph_ms: f64,
    pub dist_table_ms: f64,
    pub weights_ms: f64,
    pub bytes: usize,
}

/// One stood-up workload.
pub struct Served {
    pub net: Arc<RoadNetwork>,
    pub planner: Arc<RoutePlanner>,
    pub pipeline: Pipeline,
    pub times: ArtifactTimes,
}

impl Served {
    /// A fresh HMM matcher — an empty `DistCache` — over the served network:
    /// what every cold pass starts from.
    pub fn cold_hmm(&self, profile: &Profile) -> HmmMatcher {
        HmmMatcher::new(self.net.clone(), self.planner.clone(), profile.hmm_config())
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn start_socket<M: trmma_traj::OnlineMatcher + 'static>(
    matcher: Arc<M>,
    sessions: usize,
) -> Socket<M> {
    let cfg = ServeConfig::default()
        .stream(StreamOptions::with_threads(host::batch_threads()).idle_timeout_s(0.0))
        .inflight_window(SERVER_WINDOW)
        .tenant_queue(SERVER_WINDOW)
        .max_sessions_per_tenant(sessions);
    let server = Server::start(matcher.clone(), cfg).expect("loopback server starts");
    let conn = TcpStream::connect(server.local_addr()).expect("loopback connect");
    conn.set_nodelay(true).expect("set TCP_NODELAY");
    Socket { conn, server, matcher }
}

/// Stands `workload` up from the image on disk: read → `Artifact::decode`
/// → the sections it serves → matcher construction (R-tree build,
/// `load_weights`) → server start and client connect for the socket ones.
///
/// # Panics
/// Panics when the image does not hold what the fixture packed: the image
/// is this harness's own output.
pub fn setup(workload: Workload, fx: &Fixture) -> Served {
    let mut times = ArtifactTimes::default();
    let t = Instant::now();
    let bytes = std::fs::read(&fx.image_path).expect("read the fixture image");
    times.bytes = bytes.len();
    let art = Artifact::decode(bytes).expect("the fixture image decodes");
    times.decode_ms = ms_since(t);

    let t = Instant::now();
    let net = Arc::new(art.graph().expect("graph section"));
    times.graph_ms = ms_since(t);
    let routes = art.params_blob(ROUTES_BLOB).expect("planner routes blob");
    let planner = Arc::new(planner_from_blob(&net, routes).expect("planner routes decode"));
    let cfg = fx.profile.hmm_config();

    let dist_table = |times: &mut ArtifactTimes| {
        let t = Instant::now();
        let table = Arc::new(art.dist_table().expect("dist_table section"));
        times.dist_table_ms = ms_since(t);
        // The working set must provably exceed L2, or the table workloads
        // measure a cache-resident toy.
        assert!(
            table.resident_bytes() > fx.profile.min_table_bytes,
            "distance table is {} bytes, not above {}",
            table.resident_bytes(),
            fx.profile.min_table_bytes
        );
        table
    };
    let load_mma = |times: &mut ArtifactTimes| {
        let embeddings = art.embeddings().expect("embeddings section");
        let mut mma = Mma::new(net.clone(), planner.clone(), Some(embeddings), MmaConfig::small());
        let t = Instant::now();
        mma.load_weights(art.params_blob("mma").expect("mma weights")).expect("mma weights load");
        times.weights_ms += ms_since(t);
        Arc::new(mma)
    };
    // Every session of a paced round is open at once; the saturated
    // rounds after the first keep a second set open.
    let sessions = fx.profile.eval_n;

    let pipeline = match workload {
        Workload::MatchMma => Pipeline::Mma(load_mma(&mut times)),
        Workload::RecoverTrmma => {
            let mma = load_mma(&mut times);
            let mut trmma = Trmma::new(net.clone(), TrmmaConfig::small());
            let t = Instant::now();
            trmma
                .load_weights(art.params_blob("trmma").expect("trmma weights"))
                .expect("trmma weights load");
            times.weights_ms += ms_since(t);
            Pipeline::Recovery(mma, Arc::new(trmma))
        }
        Workload::MatchHmmCold => Pipeline::Hmm(HmmMatcher::new(net.clone(), planner.clone(), cfg)),
        Workload::MatchFmmTable => {
            let table = dist_table(&mut times);
            Pipeline::Fmm(Arc::new(FmmMatcher::with_table(
                net.clone(),
                planner.clone(),
                cfg,
                table,
            )))
        }
        Workload::MatchHmmSharded => {
            let sharded = art.sharded_network(net.clone()).expect("shards section");
            Pipeline::Hmm(HmmMatcher::sharded(Arc::new(sharded), planner.clone(), cfg))
        }
        Workload::SocketPaced => {
            let table = dist_table(&mut times);
            let fmm = FmmMatcher::with_table(net.clone(), planner.clone(), cfg, table);
            Pipeline::SocketFmm(start_socket(Arc::new(fmm), sessions))
        }
        Workload::SocketSaturated => Pipeline::SocketNearest(start_socket(
            Arc::new(NearestMatcher::new(net.clone(), planner.clone())),
            2 * sessions,
        )),
    };
    Served { net, planner, pipeline, times }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct_and_parse_back() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("match_lhmm"), None);
    }
}
