//! `trmma-eval <experiment>`: one table or figure of the paper's evaluation
//! (§VI), or one of the two training probes. A table or figure prints to
//! stdout and writes `target/experiments/<experiment>.json`; the
//! `TRMMA_*` variables scale it (see the `trmma_bench` crate docs). A
//! missing or unknown name lists every experiment and exits with status 2.
//!
//! ```text
//! TRMMA_SCALE=0.1 TRMMA_EPOCHS=1 TRMMA_DATASETS=PT \
//!     cargo run --release -p trmma-bench --bin trmma-eval -- table3_recovery
//! ```

mod fig10_matching_training;
mod fig11_matching_sparsity;
mod fig2_candidates;
mod fig5_recovery_inference;
mod fig6_recovery_training;
mod fig7_sparsity;
mod fig8_training_size;
mod fig9_matching_inference;
mod probe_mma;
mod probe_trmma;
mod table2_datasets;
mod table3_recovery;
mod table4_ablation;
mod table5_matching;

use trmma_bench::harness::{Bundle, ExpConfig};
use trmma_bench::json::ToJson;
use trmma_bench::report::{write_json, Table};
use trmma_bench::Value;

/// An experiment's entry point.
type Run = fn(&ExpConfig);

/// Every experiment, by the name of its module.
const EXPERIMENTS: [(&str, Run); 14] = [
    ("table2_datasets", table2_datasets::run),
    ("table3_recovery", table3_recovery::run),
    ("table4_ablation", table4_ablation::run),
    ("table5_matching", table5_matching::run),
    ("fig2_candidates", fig2_candidates::run),
    ("fig5_recovery_inference", fig5_recovery_inference::run),
    ("fig6_recovery_training", fig6_recovery_training::run),
    ("fig7_sparsity", fig7_sparsity::run),
    ("fig8_training_size", fig8_training_size::run),
    ("fig9_matching_inference", fig9_matching_inference::run),
    ("fig10_matching_training", fig10_matching_training::run),
    ("fig11_matching_sparsity", fig11_matching_sparsity::run),
    ("probe_mma", probe_mma::run),
    ("probe_trmma", probe_trmma::run),
];

/// The experiment called `name`, or a usage message that says what was
/// asked for and lists every experiment.
fn lookup(name: Option<&str>) -> Result<Run, String> {
    if let Some(&(_, run)) = EXPERIMENTS.iter().find(|(n, _)| Some(*n) == name) {
        return Ok(run);
    }
    let asked =
        name.map_or("missing experiment name".into(), |n| format!("unknown experiment {n:?}"));
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    Err(format!("usage: trmma-eval <experiment>\n{asked}; one of:\n  {}", names.join("\n  ")))
}

fn main() {
    match lookup(std::env::args().nth(1).as_deref()) {
        Ok(run) => run(&ExpConfig::from_env()),
        Err(usage) => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    }
}

/// A table or figure: what it prints around its rows, and where its JSON
/// goes.
struct Figure {
    /// The experiment's name, which names its JSON artifact.
    name: &'static str,
    header: String,
    columns: &'static [&'static str],
    /// The paper's shape, printed below the table.
    expected: &'static str,
}

impl Figure {
    /// Prints the header, lets `rows` add table rows and JSON records for
    /// each selected dataset (prepared at the paper's default sparsity
    /// γ = 0.1), then prints the table and the expected shape and writes
    /// the JSON artifact.
    fn run(self, cfg: &ExpConfig, mut rows: impl FnMut(Bundle, &mut Table, &mut Vec<Value>)) {
        println!("{}\n", self.header);
        let mut table = Table::new(self.columns);
        let mut json = Vec::new();
        for dcfg in cfg.dataset_configs() {
            rows(Bundle::prepare(&dcfg, 0.1, cfg.mma_config().d0), &mut table, &mut json);
        }
        table.print();
        println!("\n{}", self.expected);
        write_json(self.name, &Value::Array(json));
    }
}

/// One table row and its JSON record, a field at a time: `key` and
/// `value` go to the record, `cell` to the table.
#[derive(Default)]
struct Row {
    cells: Vec<String>,
    record: Vec<(String, Value)>,
}

impl Row {
    fn field<T: ToJson + ?Sized>(mut self, key: &str, value: &T, cell: impl ToString) -> Self {
        self.cells.push(cell.to_string());
        self.record.push((key.into(), value.to_json()));
        self
    }

    fn push(self, table: &mut Table, json: &mut Vec<Value>) {
        table.row(self.cells);
        json.push(Value::Object(self.record));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_former_program_is_named_once() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        let former = "fig10_matching_training fig11_matching_sparsity fig2_candidates \
            fig5_recovery_inference fig6_recovery_training fig7_sparsity fig8_training_size \
            fig9_matching_inference probe_mma probe_trmma table2_datasets table3_recovery \
            table4_ablation table5_matching";
        assert_eq!(names, former.split_whitespace().collect::<Vec<_>>());
        assert!(names.iter().all(|n| lookup(Some(n)).is_ok()));
    }

    #[test]
    fn missing_or_unknown_names_list_every_experiment() {
        for (asked, said) in [(None, "missing experiment name"), (Some("nosuch"), "\"nosuch\"")] {
            let usage = lookup(asked).unwrap_err();
            assert!(usage.contains(said), "{usage}");
            for (name, _) in EXPERIMENTS {
                assert!(usage.contains(&format!("\n  {name}")), "{name} missing from {usage}");
            }
        }
    }
}
