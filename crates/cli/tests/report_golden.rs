//! Golden-output gate for `ssle report`: the `ssle` binary, run from the
//! workspace root on every case below in both formats, must print exactly
//! `tests/golden/report/<case>.txt` (text) or `<case>.jsonl` (JSON). The
//! fixture is a shuffled stream mixing all eleven record kinds and two lines
//! from a newer writer. On a mismatch the actual output is written under
//! the cargo target directory; once a change is intended, copy it over the
//! golden file.

use std::path::Path;
use std::process::Command;

/// Fixture mixing every record kind; paths are relative to the workspace
/// root, as the report headers print them.
const ALL_KINDS: &str = "crates/cli/tests/fixtures/all_kinds.jsonl";

/// `(case name, arguments after "report")`; each case runs once per format.
const CASES: &[(&str, &[&str])] = &[
    ("churn", &["results/churn.jsonl"]),
    ("crash", &["results/crash.jsonl"]),
    ("frontier", &["results/frontier.jsonl"]),
    ("h_sweep", &["results/h_sweep.jsonl"]),
    ("metrics", &["results/metrics.jsonl"]),
    ("recovery", &["results/recovery.jsonl"]),
    ("robustness", &["results/robustness.jsonl"]),
    ("service", &["results/service.jsonl"]),
    ("table1", &["results/table1.jsonl"]),
    ("compare_frontier", &["results/frontier.jsonl", "--compare", "results/frontier.jsonl"]),
    ("compare_robustness", &["results/robustness.jsonl", "--compare", "results/robustness.jsonl"]),
    ("compare_table1_h_sweep", &["results/table1.jsonl", "--compare", "results/h_sweep.jsonl"]),
    ("metrics_mode", &["--metrics", "results/metrics.jsonl"]),
    ("all_kinds", &[ALL_KINDS]),
    ("all_kinds_timeline", &["--timeline", ALL_KINDS]),
];

#[test]
fn report_output_matches_the_golden_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/report");
    let actual_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("report_golden");
    std::fs::create_dir_all(&actual_dir).unwrap();
    let mut mismatches = Vec::new();
    for (case, args) in CASES {
        for (format, extension) in [("text", "txt"), ("json", "jsonl")] {
            let output = Command::new(env!("CARGO_BIN_EXE_ssle"))
                .current_dir(&root)
                .arg("report")
                .args(*args)
                .args(["--format", format])
                .output()
                .unwrap();
            assert!(
                output.status.success(),
                "ssle report {args:?} --format {format} failed: {}",
                String::from_utf8_lossy(&output.stderr)
            );
            let file = format!("{case}.{extension}");
            let golden = std::fs::read(golden_dir.join(&file)).unwrap_or_default();
            if output.stdout != golden {
                let actual = actual_dir.join(&file);
                std::fs::write(&actual, &output.stdout).unwrap();
                mismatches.push(format!("{file} (actual output: {})", actual.display()));
            }
        }
    }
    assert!(mismatches.is_empty(), "report output differs from:\n  {}", mismatches.join("\n  "));
}
