//! `ssle report` on edge-case and hostile input: every mode and format
//! returns `Ok` or `Err` and never panics, a group whose times are not
//! finite (`n = 0`) is reported without statistics, the header counts every
//! group, and the path may come anywhere on the command line.

use std::collections::BTreeMap;

use population::record::{parse_flat_json, JsonObject, JsonScalar};
use proptest::prelude::*;
use ssle_cli::commands::report;

fn workspace_file(path: &str) -> String {
    format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"))
}

fn temp_file(name: &str, contents: &[u8]) -> String {
    let path = format!("{}/{name}", env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(&path, contents).unwrap();
    path
}

fn report(args: &[&str]) -> Result<String, ssle_cli::CliError> {
    report::run(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
}

/// Runs `ssle report` on `path` in every mode and format; the result may be
/// an error, but a panic fails the calling test.
fn report_every_way(path: &str) {
    for mode in
        [&[path][..], &["--timeline", path], &["--metrics", path], &[path, "--compare", path]]
    {
        for format in ["text", "json"] {
            let _ = report(&[mode, &["--format", format]].concat());
        }
    }
}

/// The lines of the checked-in fixture mixing every record kind, by kind.
fn fixture_by_kind() -> Vec<Vec<String>> {
    let path = workspace_file("crates/cli/tests/fixtures/all_kinds.jsonl");
    let text = std::fs::read_to_string(path).unwrap();
    let mut kinds: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for line in text.lines() {
        let kind = line.split("\"kind\":\"").nth(1).and_then(|k| k.split('"').next());
        kinds.entry(kind.unwrap_or("trial")).or_default().push(line.to_string());
    }
    kinds.into_values().collect()
}

/// Values from across each type's full range; the strings include flat
/// histogram encodings that decode, that overflow, and that do not decode.
const INTEGERS: [u64; 6] = [0, 1, 2, 7, 1 << 53, u64::MAX];
const FLOATS: [f64; 7] = [0.0, -0.0, 1e-300, 0.5, 3.75, 1e300, f64::MAX];
const STRINGS: [&str; 7] =
    ["", "a b", "8:2,64:7,inf:1", "inf:0", "::", "q\"\\", "1:1,2:18446744073709551615"];

/// `line` with every field but `v` and `kind` replaced by a value of its
/// type drawn by `pick`: integers stay integers, so the record stays well
/// typed, and `null` stays `null`.
fn mutate(line: &str, mut pick: impl FnMut(usize) -> usize) -> String {
    let mut obj = JsonObject::new();
    for (key, value) in parse_flat_json(line).unwrap() {
        match value {
            JsonScalar::Str(s) if key == "kind" => obj.field_str(&key, &s),
            JsonScalar::Str(_) if key == "outcome" => {
                obj.field_str(&key, ["converged", "exhausted"][pick(2)])
            }
            JsonScalar::Str(_) => obj.field_str(&key, STRINGS[pick(STRINGS.len())]),
            JsonScalar::Num(v) if key == "v" => obj.field_f64(&key, v),
            JsonScalar::Num(x) if x.fract() == 0.0 => obj.field_u64(&key, INTEGERS[pick(6)]),
            JsonScalar::Num(_) => obj.field_f64(&key, FLOATS[pick(FLOATS.len())]),
            JsonScalar::Bool(_) => obj.field_bool(&key, pick(2) == 0),
            JsonScalar::Null => obj.field_null(&key),
        };
    }
    obj.finish()
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        report_every_way(&temp_file("report_inputs_bytes.jsonl", &bytes));
    }

    #[test]
    fn truncated_and_spliced_lines_never_panic(
        cuts in prop::collection::vec((any::<usize>(), any::<usize>(), any::<usize>()), 1..6),
    ) {
        let lines: Vec<String> = fixture_by_kind().concat();
        let mut text = Vec::new();
        for (a, b, cut) in cuts {
            let (a, b) = (lines[a % lines.len()].as_bytes(), lines[b % lines.len()].as_bytes());
            text.extend_from_slice(&a[..cut % (a.len() + 1)]);
            text.extend_from_slice(&b[cut % (b.len() + 1)..]);
            text.push(b'\n');
        }
        report_every_way(&temp_file("report_inputs_spliced.jsonl", &text));
    }

    #[test]
    fn well_typed_records_of_every_kind_never_panic(
        picks in prop::collection::vec((any::<usize>(), any::<usize>(), any::<u64>()), 1..8),
    ) {
        let kinds = fixture_by_kind();
        let mut text = String::new();
        for (kind, line, mut state) in picks {
            let lines = &kinds[kind % kinds.len()];
            // One draw per field from a small linear congruential stream.
            let pick = |n: usize| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as usize % n
            };
            text.push_str(&mutate(&lines[line % lines.len()], pick));
            text.push('\n');
        }
        report_every_way(&temp_file("report_inputs_records.jsonl", text.as_bytes()));
    }
}

/// With `n = 0`, interactions / n is not a finite parallel time.
const N_ZERO_TRIAL: &str = r#"{"v":9,"kind":"trial","experiment":"x","protocol":"ciw","n":0,"h":null,"trial":0,"seed":1,"outcome":"converged","interactions":40,"wall_s":0.5}"#;
const N_ZERO_FAULT: &str = r#"{"v":9,"kind":"fault","experiment":"x","protocol":"ciw","n":0,"h":null,"trial":0,"seed":1,"action":"corrupt_random","agents":1,"injected_at":10,"recovered_at":20}"#;

#[test]
fn n_zero_trials_report_no_finite_times_not_no_convergence() {
    let path = temp_file("report_inputs_n0_trial.jsonl", N_ZERO_TRIAL.as_bytes());
    let text = report(&[&path]).unwrap();
    assert!(text.contains("1 trial(s), 0 exhausted\n  no finite parallel times"), "{text}");
    let json = report(&[&path, "--format", "json"]).unwrap();
    assert!(json.contains("\"exhausted\":0,\"mean_time\":null}"), "{json}");
}

#[test]
fn n_zero_faults_count_the_recovery_without_statistics() {
    let path = temp_file("report_inputs_n0_fault.jsonl", N_ZERO_FAULT.as_bytes());
    let text = report(&[&path]).unwrap();
    assert!(text.contains("1 fault(s), 1 recovered"), "{text}");
    assert!(text.contains("no finite recovery times — no recovery statistics"), "{text}");
    let json = report(&[&path, "--format", "json"]).unwrap();
    assert!(json.contains("\"faults\":1,\"recovered\":1"), "{json}");
    assert!(json.ends_with("\"mean_recovery_time\":null}\n"), "{json}");
}

#[test]
fn the_path_may_come_anywhere_on_the_command_line() {
    let a = workspace_file("results/table1.jsonl");
    let b = workspace_file("results/h_sweep.jsonl");
    let expected = report(&[&a, "--format", "json"]).unwrap();
    assert_eq!(report(&["--format", "json", &a]).unwrap(), expected);
    let expected = report(&[&a, "--compare", &b, "--format", "json"]).unwrap();
    for order in [
        ["--format", "json", &a, "--compare", &b],
        ["--format", "json", "--compare", &a, &b],
        [&a, "--format", "json", "--compare", &b],
    ] {
        assert_eq!(report(&order).unwrap(), expected, "{order:?}");
    }
}

/// The text header counts every group the report renders: one per JSON
/// line other than the set-aside notes.
#[test]
fn the_header_counts_every_rendered_group() {
    for file in ["churn", "crash", "frontier", "metrics", "recovery", "service", "table1"] {
        let path = workspace_file(&format!("results/{file}.jsonl"));
        let json = report(&[&path, "--format", "json"]).unwrap();
        let groups = json.lines().filter(|l| !l.contains("\"kind\":\"skipped\"")).count();
        let text = report(&[&path]).unwrap();
        assert!(text.contains(&format!(" records, {groups} group(s)\n")), "{file}: {text}");
    }
}
