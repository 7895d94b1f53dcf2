//! Golden-output gate for `ssle simulate --backend counts` under
//! non-uniform schedulers. Such schedulers tell agents apart, so the counts
//! backend runs these executions on agent identities and recompresses the
//! final states for its report. Every case below, run in both formats, must
//! print exactly `tests/golden/simulate/<case>.txt` (text) or
//! `<case>.jsonl` (JSON). On a mismatch the actual output is written under
//! the cargo target directory; once a change is intended, copy it over the
//! golden file.

use std::path::Path;
use std::process::Command;

/// `(case prefix, protocol, n)`: a ranking protocol, whose report counts
/// leaders, and loose leader election, whose final support is small.
const PROTOCOLS: &[(&str, &str, &str)] =
    &[("oss", "optimal-silent", "16"), ("loose", "loose", "64")];

/// `(case infix, --scheduler spec)`.
const SCHEDULERS: &[(&str, &str)] =
    &[("zipf", "zipf"), ("starve", "starve:2:64"), ("clustered", "clustered:2:0.25")];

/// `--omission` rates.
const OMISSIONS: &[&str] = &["0", "0.2"];

#[test]
fn counts_simulate_output_matches_the_golden_files() {
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/simulate");
    let actual_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("simulate_golden");
    std::fs::create_dir_all(&actual_dir).unwrap();
    let mut mismatches = Vec::new();
    for (prefix, protocol, n) in PROTOCOLS {
        for (infix, scheduler) in SCHEDULERS {
            for omission in OMISSIONS {
                for (format, extension) in [("text", "txt"), ("json", "jsonl")] {
                    let args = [
                        "simulate",
                        "--protocol",
                        protocol,
                        "--n",
                        n,
                        "--seed",
                        "7",
                        "--backend",
                        "counts",
                        "--scheduler",
                        scheduler,
                        "--omission",
                        omission,
                        "--format",
                        format,
                    ];
                    let output =
                        Command::new(env!("CARGO_BIN_EXE_ssle")).args(args).output().unwrap();
                    assert!(
                        output.status.success(),
                        "ssle {args:?} failed: {}",
                        String::from_utf8_lossy(&output.stderr)
                    );
                    let file = format!("{prefix}_{infix}_{omission}.{extension}");
                    let golden = std::fs::read(golden_dir.join(&file)).unwrap_or_default();
                    if output.stdout != golden {
                        let actual = actual_dir.join(&file);
                        std::fs::write(&actual, &output.stdout).unwrap();
                        mismatches.push(format!("{file} (actual output: {})", actual.display()));
                    }
                }
            }
        }
    }
    assert!(mismatches.is_empty(), "simulate output differs from:\n  {}", mismatches.join("\n  "));
}
