//! `--scale smoke` runs of all six workloads through the real binary: the
//! oracles agree, the printed names are `BENCHMARK.json`'s, and one seed
//! gives the same counts twice.

use std::process::Command;

const SPEC: &str = include_str!("../../BENCHMARK.json");

/// The `"name"` values of one top-level array of `BENCHMARK.json`, in order.
fn spec_names(section: &str) -> Vec<String> {
    let start = SPEC
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &SPEC[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            rest.split('"')
                .nth(1)
                .expect("name is a string")
                .to_string()
        })
        .collect()
}

/// `(name, value, unit)` of every metric in a result line, in order.
fn result_metrics(line: &str) -> Vec<(String, f64, String)> {
    let body = line
        .split("\"metrics\":{")
        .nth(1)
        .expect("result has metrics");
    body.split("\":{\"value\":")
        .collect::<Vec<_>>()
        .windows(2)
        .map(|w| {
            let name = w[0].rsplit('"').next().unwrap().to_string();
            let value = w[1]
                .split(',')
                .next()
                .unwrap()
                .parse()
                .expect("value is a number");
            let unit = w[1].split("\"unit\":\"").nth(1).unwrap();
            (name, value, unit.split('"').next().unwrap().to_string())
        })
        .collect()
}

fn run(workload: &str, seed: u64, trace: bool) -> Vec<(String, f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_tcf-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.1", "--scale", "smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("output is UTF-8");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\":true,") && last.contains("\"failed\":0,"),
        "{workload} (trace {trace}): {last}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    result_metrics(last)
}

fn names(metrics: &[(String, f64, String)]) -> Vec<String> {
    metrics.iter().map(|m| m.0.clone()).collect()
}

#[test]
fn spec_names_are_well_formed() {
    let all: Vec<String> = ["workloads", "end_to_end", "per_layer"]
        .iter()
        .flat_map(|s| spec_names(s))
        .collect();
    assert!(all.len() > 100, "sections were found");
    for name in &all {
        assert!(
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad name {name}"
        );
        assert_eq!(
            all.iter().filter(|n| *n == name).count(),
            1,
            "{name} is used once"
        );
    }
    assert_eq!(spec_names("workloads").len(), 6);
}

#[test]
fn every_workload_passes_its_oracles_and_prints_the_listed_metrics() {
    for workload in spec_names("workloads") {
        let timed = run(&workload, 1, false);
        assert_eq!(names(&timed), spec_names("end_to_end"), "{workload}");
        assert!(
            timed.iter().all(|m| m.1 > 0.0),
            "{workload}: an end-to-end metric is 0"
        );

        // Exact counts (and the statistics digest) repeat for one seed.
        let exact = |metrics: &[(String, f64, String)]| -> Vec<(String, f64)> {
            metrics
                .iter()
                .filter(|m| ["count", "bytes", "cycles", "hash48"].contains(&m.2.as_str()))
                .map(|m| (m.0.clone(), m.1))
                .collect()
        };
        let traced = run(&workload, 1, true);
        assert_eq!(names(&traced), spec_names("per_layer"), "{workload}");
        assert_eq!(
            exact(&traced),
            exact(&run(&workload, 1, true)),
            "{workload}"
        );

        let cycles = |metrics: &[(String, f64, String)]| {
            metrics
                .iter()
                .find(|m| m.0 == "sim_cycles")
                .expect("sim_cycles")
                .1
        };
        assert_eq!(
            cycles(&timed),
            cycles(&run(&workload, 1, false)),
            "{workload}"
        );
    }
}
