//! The per-layer metrics by name. A layer is a module of the repository;
//! every number is taken in the traced run by timing calls into that
//! module's public functions, or by reading counters it already exports.
//!
//! Every traced run prints every name. A metric whose layer the workload
//! never calls reads 0 there — which is the truth for a count or a share,
//! and the convention for a per-call time with no calls.

use std::collections::BTreeMap;

use crate::measure::Metric;

/// `(name, unit)` of every per-layer metric, as `BENCHMARK.json` declares
/// them (directions live there).
pub const PER_LAYER: [(&str, &str); 65] = [
    ("rtree.knn_ns", "ns"),
    ("rtree.knn_calls", "count"),
    ("rtree.build_ms", "ms"),
    ("roadnet.transition.route_dist_ns", "ns"),
    ("roadnet.transition.calls_per_point", "count"),
    ("roadnet.transition.busy_share", "ratio"),
    ("roadnet.transition.table_probe_ns", "ns"),
    ("roadnet.transition.table_hit_ratio", "ratio"),
    ("roadnet.transition.table_records", "count"),
    ("roadnet.transition.table_bytes", "bytes"),
    ("roadnet.transition.table_build_s", "s"),
    ("roadnet.shortest.cache_hit_ratio", "ratio"),
    ("roadnet.shortest.warm_hit_ratio", "ratio"),
    ("roadnet.shortest.nodes_expanded_per_miss", "count"),
    ("roadnet.shortest.heap_pushes_per_miss", "count"),
    ("roadnet.shortest.evictions", "count"),
    ("roadnet.shortest.cache_entries", "count"),
    ("roadnet.shortest.cold_node_dist_ns", "ns"),
    ("roadnet.shard.node_dist_ns", "ns"),
    ("roadnet.shard.knn_ns", "ns"),
    ("roadnet.shard.resident_bytes", "bytes"),
    ("roadnet.shard.build_s", "s"),
    ("roadnet.shard.vs_table", "ratio"),
    ("roadnet.planner.stitch_ns", "ns"),
    ("nn.kernels.emission_ns", "ns"),
    ("baselines.decoder.advance_self_ns", "ns"),
    ("baselines.decoder.decode_ns", "ns"),
    ("core.mma.forward_self_ns", "ns"),
    ("core.mma.allocs_avoided", "count"),
    ("core.trmma.recover_ns_per_out_point", "ns"),
    ("core.trmma.out_points", "count"),
    ("core.trmma.busy_share", "ratio"),
    ("core.trmma.mae_m", "m"),
    ("core.batch.seq_points_per_s", "points/s"),
    ("core.batch.parallel_efficiency", "ratio"),
    ("core.stream.engine_points_per_s", "points/s"),
    ("core.stream.push_ns", "ns"),
    ("core.stream.queue_wait_p50_ms", "ms"),
    ("core.stream.queue_wait_p99_ms", "ms"),
    ("core.stream.decode_p50_ms", "ms"),
    ("core.stream.queue_depth_hwm", "count"),
    ("core.stream.migrations", "count"),
    ("core.stream.late_dropped", "count"),
    ("core.stream.stable_lag_points", "count"),
    ("core.stream.drain_ms", "ms"),
    ("core.snapshot.bytes_per_session", "bytes"),
    ("core.snapshot.encode_ns", "ns"),
    ("core.snapshot.decode_ns", "ns"),
    ("core.serve.rtt_floor_ms", "ms"),
    ("core.serve.frame_encode_ns", "ns"),
    ("core.serve.frame_decode_ns", "ns"),
    ("core.serve.bytes_in_per_point", "bytes"),
    ("core.serve.bytes_out_per_point", "bytes"),
    ("core.serve.busy_replies", "count"),
    ("core.serve.refused", "count"),
    ("core.serve.wire_share", "ratio"),
    ("core.artifact.decode_ms", "ms"),
    ("core.artifact.graph_ms", "ms"),
    ("core.artifact.dist_table_ms", "ms"),
    ("core.artifact.weights_ms", "ms"),
    ("core.artifact.bytes", "bytes"),
    ("loadgen.max_lag_ms", "ms"),
    ("loadgen.late_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("fixture.build_s", "s"),
];

/// The per-layer metrics of one traced run, every declared name present.
#[derive(Debug, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Every metric at 0.
    pub fn new() -> Self {
        Self(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    /// Panics on an undeclared name or a non-finite value: both are bugs in
    /// the harness, not measurements.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        *self.0.get_mut(name).unwrap_or_else(|| panic!("undeclared per-layer metric {name}")) =
            value;
    }

    /// The metrics in declaration order.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric::exact(name, unit, self.0[name], String::new()))
            .collect()
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_well_formed_and_all_reported() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in PER_LAYER {
            assert!(seen.insert(name), "{name} declared twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let mut l = Layers::new();
        l.set("rtree.knn_ns", 812.5);
        let m = l.metrics();
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!((m[0].name, m[0].value), ("rtree.knn_ns", 812.5));
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn undeclared_names_are_refused() {
        Layers::new().set("rtree.knn_us", 1.0);
    }
}
