//! Runs every workload at toy size through the built binary, untraced
//! and traced, and holds its result line to the metrics BENCHMARK.json
//! declares.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["exact_d64", "sketch_d64", "paged_d16"];

/// The `"name"` values of one section of BENCHMARK.json.
fn declared(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

/// Runs the binary and returns its last stdout line.
fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--smoke",
            "--seed",
            "3",
            "--trace",
            trace,
        ])
        .output()
        .expect("run perfbench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} --trace {trace}:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn metric(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing in {line}"))
        + key.len();
    let rest = &line[at..];
    rest[..rest.find(',').expect("value ends")]
        .parse()
        .expect("a number")
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.contains(&"setup_s".to_string()));
    for workload in WORKLOADS {
        let line = run(workload, "0");
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        for name in &end_to_end {
            assert!(
                metric(&line, name) > 0.0,
                "{workload}: {name} is not positive"
            );
        }
        assert_eq!(metric(&line, "success_rate"), 1.0, "{workload}");
        if workload != "sketch_d64" {
            assert_eq!(metric(&line, "recall_at_k"), 1.0, "{workload}");
        }

        let line = run(workload, "1");
        assert!(line.starts_with("{\"correct\": true"), "{line}");
        for name in &per_layer {
            metric(&line, name);
        }
        assert_eq!(line.matches("\"value\"").count(), per_layer.len(), "{line}");

        // The sketch tier never reaches the filters or refinement.
        let dump = format!(".bench_work/trace-{workload}.jsonl");
        let spans = std::fs::read_to_string(&dump).expect("span dump");
        let refines = spans.contains("\"name\":\"exact.") || spans.contains("\"name\":\"lb_im.");
        assert_eq!(refines, workload != "sketch_d64", "{workload}");
        assert_eq!(
            spans.contains("\"name\":\"sketch.knn\""),
            workload == "sketch_d64"
        );
    }
}
