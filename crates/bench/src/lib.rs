//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§VI). Each table/figure is a subcommand of the `trmma-eval`
//! binary (`trmma-eval table3_recovery`, …; `src/bin/trmma_eval/`), which
//! also runs the two training probes (`probe_mma`, `probe_trmma`); shared
//! preparation (datasets, trained models, timing, reporting) lives here.
//!
//! Scale knobs (environment variables, read once per process):
//!
//! * `TRMMA_SCALE`   — dataset scale factor (default 0.25; 1.0 ≈ a few
//!   hundred trajectories per dataset).
//! * `TRMMA_EPOCHS`  — training epochs for learned models (default 5).
//! * `TRMMA_PROFILE` — `small` (default) or `paper` model widths.
//! * `TRMMA_DATASETS`— comma list among `PT,XA,BJ,CD` (default all four).
//!
//! Every table and figure prints the paper-style rows to stdout *and*
//! writes a JSON artifact, `target/experiments/<name>.json`. Performance
//! numbers come from the standalone `benchmark/` package, not from this
//! crate.
//!
//! # Example
//!
//! The reporting building blocks are plain values — a paper-style table
//! and a dependency-free JSON tree:
//!
//! ```
//! use trmma_bench::{json, Table, Value};
//!
//! let mut t = Table::new(&["Method", "F1"]);
//! t.row(vec!["MMA".into(), "94.35".into()]);
//! assert!(t.render().contains("94.35"));
//!
//! let doc = json!({ "method": "MMA", "f1": 0.9435 });
//! assert!(matches!(doc, Value::Object(_)));
//! ```

pub mod artifacts;
pub mod harness;
pub mod json;
pub mod report;
pub mod stream_bench;

pub use harness::{trained_mma, trained_seq2seq, trained_trmma, Bundle, ExpConfig};
pub use json::Value;
pub use report::{write_json, Table};
