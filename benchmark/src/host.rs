//! What the benchmark asks of the host: where it may write, how many
//! threads it may use, and how much memory the process has touched.

use std::path::PathBuf;

/// Directory for the fixture cache, `result.json` and trace files:
/// `benchmark/` inside whichever cargo target directory holds the running
/// executable, so every output stays inside the checkout that built it.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    // <target>/<profile>/trmma-benchmark → <target>/benchmark
    let target = exe
        .parent()
        .and_then(std::path::Path::parent)
        .expect("the executable sits two levels inside a cargo target directory");
    let dir = target.join("benchmark");
    std::fs::create_dir_all(&dir).expect("create the benchmark output directory");
    dir
}

/// Threads the host offers (`nproc`).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Worker threads a batch workload fans out over: `min(2, nproc)`.
pub fn batch_threads() -> usize {
    host_threads().min(2)
}

/// Refuses a workload whose own thread use would exceed `nproc`: its
/// numbers would measure the scheduler, not the program.
pub fn assert_threads_fit(workload: &str, threads: usize) {
    let host = host_threads();
    assert!(
        threads <= host,
        "{workload} wants {threads} threads but the host offers {host}; not emitting it"
    );
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}
