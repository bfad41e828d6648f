//! Packing a prepared [`Bundle`] into one `trmma_core::artifact` image —
//! the road graph, the FMM distance table, trained weight blobs, node2vec
//! embeddings and (optionally) a sharded network — for `trmma-artifacts
//! build`.

use std::sync::Arc;

use trmma_core::ArtifactBuilder;
use trmma_roadnet::{DistTable, GridCut, RoadNetwork, ShardPlan, ShardedNetwork};

use crate::harness::Bundle;

/// The grid-cut seed used whenever the harness shards a network, so every
/// `trmma-artifacts build --shards N` of one network produces the same
/// [`ShardPlan`] (and therefore interchangeable shard payloads).
pub const SHARD_CUT_SEED: u64 = 17;

/// Partitions `net` into `n` grid tiles with [`SHARD_CUT_SEED`] and
/// builds the sharded network at `delta` (the route-distance bound the
/// HMM-family transitions run under).
#[must_use]
pub fn build_sharded(net: &Arc<RoadNetwork>, n: usize, delta: f64) -> ShardedNetwork {
    let plan = ShardPlan::new(net, &GridCut::square(n, SHARD_CUT_SEED));
    ShardedNetwork::build(Arc::clone(net), plan, delta)
}

/// Packs a prepared bundle into an artifact image: graph, distance table
/// (built at `delta`, FMM's UBODT bound), the given named weight blobs
/// (`Mma::save_weights` / `Trmma::save_weights` output) and the bundle's
/// node2vec embeddings. With `shards: Some(n)` the image also carries a
/// `shards` section — the grid-cut plan, every per-shard intra table and
/// the boundary overlay — so a serving process can stand up a
/// [`ShardedNetwork`] zero-copy via `Artifact::sharded_network`.
#[must_use]
pub fn build_image(
    bundle: &Bundle,
    weights: &[(&str, Vec<u8>)],
    delta: f64,
    shards: Option<usize>,
) -> Vec<u8> {
    let table = DistTable::build(&bundle.net, delta);
    let mut b = ArtifactBuilder::new();
    b.graph(&bundle.net);
    b.dist_table(&table);
    for (name, blob) in weights {
        b.params(name, blob);
    }
    b.embeddings(&bundle.node2vec);
    if let Some(n) = shards {
        b.shards(&build_sharded(&bundle.net, n, delta));
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trmma_core::{Artifact, SectionKind};
    use trmma_roadnet::NodeId;
    use trmma_traj::dataset::DatasetConfig;

    #[test]
    fn sharded_image_serves_an_equivalent_network() {
        let bundle = Bundle::prepare(&DatasetConfig::tiny(), 0.2, 8);
        let image = build_image(&bundle, &[], 400.0, Some(4));
        let art = Artifact::decode(image).unwrap();
        assert!(art.sections().iter().any(|s| s.kind == SectionKind::Shards as u16));

        let built = build_sharded(&bundle.net, 4, 400.0);
        let served = art.sharded_network(bundle.net.clone()).unwrap();
        assert_eq!(served.num_shards(), built.num_shards());
        assert_eq!(served.plan().assignment(), built.plan().assignment());
        for i in 0..bundle.net.num_nodes().min(24) {
            for j in 0..bundle.net.num_nodes().min(24) {
                let (a, b) = (NodeId(i as u32), NodeId(j as u32));
                assert_eq!(
                    served.node_dist(a, b).map(f64::to_bits),
                    built.node_dist(a, b).map(f64::to_bits),
                    "served shard distance diverged for {a:?}→{b:?}"
                );
            }
        }
    }
}
