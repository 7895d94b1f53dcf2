//! The daemon's parsers on hostile input: `Request::parse` (every request
//! line), `JournalDoc::parse` (every journal at boot) and the flat-JSON
//! readers under both return `Ok` or `Err` and never panic — on arbitrary
//! bytes, on valid lines truncated and spliced together, and on
//! well-formed journals whose integers span the whole `u64` range.

use population::record::{parse_flat_json, parse_flat_json_exact};
use proptest::prelude::*;
use ssle_serve::journal::{Entry, Header, JournalDoc, Op};
use ssle_serve::wire::Request;

/// Valid request lines, one or more per command.
const REQUESTS: [&str; 12] = [
    r#"{"cmd":"ping"}"#,
    r#"{"cmd":"create","name":"a","protocol":"ciw","backend":"agents","n":64,"seed":7,"id":"c-1"}"#,
    r#"{"cmd":"step","name":"a","interactions":20000,"id":"s.2"}"#,
    r#"{"cmd":"corrupt","name":"a","k":16}"#,
    r#"{"cmd":"churn-plan","name":"a","spec":"burst:5:0.1","seed":3}"#,
    r#"{"cmd":"leader","name":"a"}"#,
    r#"{"cmd":"timeline","name":"a","last":8}"#,
    r#"{"cmd":"snapshot","name":"a"}"#,
    r#"{"cmd":"health"}"#,
    r#"{"cmd":"stats","reset":true}"#,
    r#"{"cmd":"dump-trace","last":4}"#,
    r#"{"cmd":"delete","name":"a"}"#,
];

/// Integers from across the `u64` range and just past it.
const INTEGERS: [&str; 9] = [
    "0",
    "1",
    "2",
    "9007199254740992",
    "9007199254740993",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1e400",
];

fn header(base_seq: u64) -> Header {
    Header {
        name: "a".to_string(),
        protocol: "ciw".to_string(),
        backend: "agents".to_string(),
        n: 16,
        seed: u64::MAX,
        base_seq,
        ids: vec!["c-1".to_string()],
        churn: Some(("burst:5:0.1".to_string(), 3)),
    }
}

/// A valid journal's lines: header, then one entry of every op.
fn journal_lines() -> Vec<String> {
    let ops = [
        Op::Step(500),
        Op::Join(3),
        Op::Leave(1),
        Op::Corrupt(4),
        Op::Churn("burst:5:0.1".to_string(), 9),
    ];
    let mut lines = vec![header(0).to_json()];
    for (i, op) in ops.into_iter().enumerate() {
        let id = (i % 2 == 0).then(|| format!("id-{i}"));
        lines.push(Entry { seq: i as u64 + 1, op, id }.to_json());
    }
    lines
}

/// Feeds `text` to every parser; a panic fails the calling test.
fn parse_every_way(text: &str) {
    let _ = JournalDoc::parse(text);
    for line in text.lines() {
        let _ = Request::parse(line);
        let _ = parse_flat_json(line);
        let _ = parse_flat_json_exact(line);
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        parse_every_way(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn truncated_and_spliced_lines_never_panic(
        cuts in prop::collection::vec((any::<usize>(), any::<usize>(), any::<usize>()), 1..8),
    ) {
        let lines: Vec<String> =
            REQUESTS.iter().map(|l| l.to_string()).chain(journal_lines()).collect();
        let mut text = Vec::new();
        for (a, b, cut) in cuts {
            let (a, b) = (lines[a % lines.len()].as_bytes(), lines[b % lines.len()].as_bytes());
            text.extend_from_slice(&a[..cut % (a.len() + 1)]);
            text.extend_from_slice(&b[cut % (b.len() + 1)..]);
            text.push(b'\n');
        }
        parse_every_way(&String::from_utf8_lossy(&text));
    }

    /// Every integer field of a valid journal and of every request line
    /// replaced by a value from across the range: parsing may refuse, but
    /// an accepted journal leaves room for its next entry.
    #[test]
    fn extreme_integers_never_panic(picks in prop::collection::vec(any::<usize>(), 1..32)) {
        let mut pick = picks.into_iter().cycle();
        let mut replace_integers = |line: &str| {
            let mut out = String::new();
            let mut rest = line;
            while let Some(at) = rest.find(|c: char| c.is_ascii_digit()) {
                let digits = rest[at..].find(|c: char| !c.is_ascii_digit());
                let end = digits.map_or(rest.len(), |e| at + e);
                out.push_str(&rest[..at]);
                // Digits inside strings (ids, specs) and the version stay.
                let value = rest[..at].ends_with(':') && !rest[..at].ends_with("\"v\":");
                out.push_str(if value {
                    INTEGERS[pick.next().unwrap() % INTEGERS.len()]
                } else {
                    &rest[at..end]
                });
                rest = &rest[end..];
            }
            out.push_str(rest);
            out
        };
        let journal: String =
            journal_lines().iter().map(|l| format!("{}\n", replace_integers(l))).collect();
        if let Ok(doc) = JournalDoc::parse(&journal) {
            prop_assert!(doc.last_seq() < u64::MAX);
        }
        for line in REQUESTS {
            let line = replace_integers(line);
            if let Ok(request) = Request::parse(&line) {
                for key in ["n", "seed", "interactions", "k", "last"] {
                    let _ = request.u64_arg(key);
                }
            }
            let _ = parse_flat_json(&line);
            let _ = parse_flat_json_exact(&line);
        }
    }
}

#[test]
fn a_journal_at_the_end_of_the_sequence_is_refused() {
    let at_max = format!("{}\n", header(u64::MAX).to_json());
    assert!(JournalDoc::parse(&at_max).unwrap_err().contains("exhausted"));
    let entry = Entry { seq: u64::MAX, op: Op::Step(1), id: None }.to_json();
    let to_max = format!("{}\n{entry}\n", header(u64::MAX - 1).to_json());
    assert!(JournalDoc::parse(&to_max).unwrap_err().contains("exhausted"));
    let past_max = format!("{at_max}{entry}\n");
    assert!(JournalDoc::parse(&past_max).is_err());
}
