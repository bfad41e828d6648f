//! Table II: dataset statistics.
//!
//! Prints, for each synthetic dataset, the same rows the paper reports for
//! PT / XA / BJ / CD: trajectory count, ε, average points, average length,
//! average travel time, network size and area.

use trmma_bench::harness::ExpConfig;
use trmma_bench::report::{write_json, Table};
use trmma_bench::Value;
use trmma_traj::dataset::build_dataset;

use crate::Row;

pub(crate) fn run(cfg: &ExpConfig) {
    println!("== Table II: dataset statistics (scale {:.2}) ==\n", cfg.scale);
    let mut table = Table::new(&[
        "Dataset",
        "#traj",
        "eps(s)",
        "avg#pts",
        "avgLen(m)",
        "avgTime(s)",
        "#segs",
        "#nodes",
        "area(km2)",
    ]);
    let mut json = Vec::new();
    for dcfg in cfg.dataset_configs() {
        let ds = build_dataset(&dcfg);
        let s = ds.stats();
        Row::default()
            .field("dataset", &ds.name, &ds.name)
            .field("n_trajectories", &s.n_trajectories, s.n_trajectories)
            .field("epsilon_s", &s.epsilon_s, format!("{:.0}", s.epsilon_s))
            .field("avg_points", &s.avg_points, format!("{:.2}", s.avg_points))
            .field("avg_length_m", &s.avg_length_m, format!("{:.1}", s.avg_length_m))
            .field("avg_travel_time_s", &s.avg_travel_time_s, format!("{:.1}", s.avg_travel_time_s))
            .field("n_segments", &s.n_segments, s.n_segments)
            .field("n_intersections", &s.n_intersections, s.n_intersections)
            .field("area_km2", &s.area_km2, format!("{:.2}", s.area_km2))
            .push(&mut table, &mut json);
    }
    table.print();
    write_json("table2_datasets", &Value::Array(json));
}
