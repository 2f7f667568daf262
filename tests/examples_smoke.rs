//! Smoke tests driving every example in `examples/` end to end.
//!
//! Each example exposes its body as `pub fn run()` (or `run_args` for the
//! CLI driver) precisely so this suite can include it with `#[path]` and
//! execute it inside the test process — no nested `cargo run`, no binary
//! discovery. Examples assert their own results internally;
//! reaching the end without a panic is the contract.

#[path = "../examples/bfs.rs"]
mod bfs;
#[path = "../examples/hybrid.rs"]
mod hybrid;
#[path = "../examples/image_filter.rs"]
mod image_filter;
#[path = "../examples/multitasking.rs"]
mod multitasking;
#[path = "../examples/nbody.rs"]
mod nbody;
#[path = "../examples/quickstart.rs"]
mod quickstart;
#[path = "../examples/sort.rs"]
mod sort;
#[path = "../examples/tce_run.rs"]
mod tce_run;
#[path = "../examples/variants_tour.rs"]
mod variants_tour;

#[test]
fn quickstart_runs() {
    quickstart::run();
}

#[test]
fn bfs_runs() {
    bfs::run();
}

#[test]
fn hybrid_runs() {
    hybrid::run();
}

#[test]
fn image_filter_runs() {
    image_filter::run();
}

#[test]
fn multitasking_runs() {
    multitasking::run();
}

#[test]
fn nbody_runs() {
    nbody::run();
}

#[test]
fn sort_runs() {
    sort::run();
}

#[test]
fn variants_tour_runs() {
    variants_tour::run();
}

#[test]
fn tce_run_demo_succeeds() {
    assert_eq!(tce_run::run_args(vec![]), std::process::ExitCode::SUCCESS);
}

#[test]
fn tce_run_rejects_bad_variant() {
    let args = vec!["--variant".to_string(), "nope".to_string()];
    assert_eq!(tce_run::run_args(args), std::process::ExitCode::FAILURE);
}
