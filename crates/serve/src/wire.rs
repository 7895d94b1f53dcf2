//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response per line — the same hand-rolled flat
//! JSON the record module uses ([`population::record::parse_flat_json`] /
//! [`population::record::JsonObject`]), so the daemon shares its codec with
//! the experiment records and needs no serde.
//!
//! Requests are `{"cmd":"...", ...}` objects; responses always carry
//! `"ok":true` or `"ok":false,"error":"..."`. Unknown keys are rejected so
//! typos fail loudly rather than silently taking defaults.
//!
//! | cmd | arguments | reply payload |
//! |-----|-----------|---------------|
//! | `ping` | — | `pong:true` |
//! | `create` | `name, protocol(ciw\|oss), backend(agents\|counts), n, [seed], [id]` | status |
//! | `step` | `name, [interactions], [id]` | performed, status |
//! | `join` / `leave` / `corrupt` | `name, [k], [id]` | applied, status |
//! | `churn-plan` | `name, spec, [seed], [id]` | status |
//! | `leader` | `name` | leaders, ranked, leader_index (`null` on counts) |
//! | `ranks` | `name` | ranked, singleton_ranks, duplicated_ranks, missing_ranks |
//! | `status` | `name` | full status |
//! | `timeline` | `name, [last]` | checkpoint array |
//! | `metrics` | `name` | embedded engine metrics record |
//! | `snapshot` | `name` | path written |
//! | `health` | — | per-population liveness + journal-lag rows (`health` records) |
//! | `stats` | `[reset]` | per-command latency/throughput rows (`server_stats` records); `reset:true` reads then zeroes the window |
//! | `dump-trace` | `[last]` | last N request traces from the flight recorder (+ dump file path when durable) |
//! | `list` | — | population names |
//! | `delete` | `name` | deleted:true |
//! | `shutdown` | — | stopping:true (daemon snapshots all and exits) |
//!
//! Every mutating command takes an optional `id` (1–128 chars of
//! `[A-Za-z0-9._-]`): a request whose id is still inside the population's
//! dedup window is acknowledged with `"replayed":true` instead of being
//! applied again, making retried mutations exactly-once.

use std::collections::BTreeMap;

use population::record::{
    parse_flat_json, parse_flat_json_exact, ExactScalar, JsonObject, JsonScalar,
};

/// A parsed request: the command name plus its argument map.
#[derive(Debug, Clone)]
pub struct Request {
    /// The `cmd` value.
    pub cmd: String,
    args: BTreeMap<String, ExactScalar>,
}

/// The keys every command accepts (beyond `cmd`), for typo rejection.
fn allowed_keys(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "ping" | "list" | "shutdown" | "health" => &[],
        "create" => &["name", "protocol", "backend", "n", "seed", "id"],
        "step" => &["name", "interactions", "id"],
        "join" | "leave" | "corrupt" => &["name", "k", "id"],
        "churn-plan" => &["name", "spec", "seed", "id"],
        "leader" | "ranks" | "status" | "metrics" | "snapshot" | "delete" => &["name"],
        "timeline" => &["name", "last"],
        "stats" => &["reset"],
        "dump-trace" => &["last"],
        _ => return None,
    })
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, a missing or
    /// unknown `cmd`, or arguments the command does not accept.
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut map = parse_flat_json_exact(line).map_err(|e| format!("bad request JSON: {e}"))?;
        let cmd = match map.remove("cmd") {
            Some(ExactScalar::Str(c)) => c,
            Some(_) => return Err("\"cmd\" must be a string".to_string()),
            None => return Err("missing \"cmd\"".to_string()),
        };
        let allowed = allowed_keys(&cmd).ok_or_else(|| format!("unknown cmd {cmd:?}"))?;
        for key in map.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(format!("cmd {cmd:?} does not take {key:?}"));
            }
        }
        Ok(Request { cmd, args: map })
    }

    /// A required string argument.
    ///
    /// # Errors
    ///
    /// Returns a message when absent or not a string.
    pub fn str_arg(&self, key: &str) -> Result<&str, String> {
        match self.args.get(key) {
            Some(ExactScalar::Str(s)) => Ok(s),
            Some(_) => Err(format!("{key:?} must be a string")),
            None => Err(format!("cmd {:?} requires {key:?}", self.cmd)),
        }
    }

    /// An optional string argument.
    ///
    /// # Errors
    ///
    /// Returns a message when present but not a string.
    pub fn opt_str_arg(&self, key: &str) -> Result<Option<&str>, String> {
        match self.args.get(key) {
            None => Ok(None),
            Some(ExactScalar::Str(s)) => Ok(Some(s)),
            Some(_) => Err(format!("{key:?} must be a string")),
        }
    }

    /// An optional non-negative integer argument (JSON numbers only), read
    /// exactly across the whole `u64` range.
    ///
    /// # Errors
    ///
    /// Returns a message when present but not a non-negative integer.
    pub fn u64_arg(&self, key: &str) -> Result<Option<u64>, String> {
        match self.args.get(key) {
            None => Ok(None),
            Some(value) => value
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("{key:?} must be a non-negative integer")),
        }
    }

    /// A required non-negative integer argument.
    ///
    /// # Errors
    ///
    /// Returns a message when absent or malformed.
    pub fn required_u64(&self, key: &str) -> Result<u64, String> {
        self.u64_arg(key)?.ok_or_else(|| format!("cmd {:?} requires {key:?}", self.cmd))
    }

    /// An optional boolean argument.
    ///
    /// # Errors
    ///
    /// Returns a message when present but not a boolean.
    pub fn bool_arg(&self, key: &str) -> Result<Option<bool>, String> {
        match self.args.get(key) {
            None => Ok(None),
            Some(ExactScalar::Bool(b)) => Ok(Some(*b)),
            Some(_) => Err(format!("{key:?} must be a boolean")),
        }
    }
}

/// Builds the `{"ok":true,...}` response envelope; callers add payload
/// fields to the returned object.
pub fn ok_response() -> JsonObject {
    let mut obj = JsonObject::new();
    obj.field_bool("ok", true);
    obj
}

/// Renders an `{"ok":false,"error":...}` response line.
pub fn error_response(message: &str) -> String {
    let mut obj = JsonObject::new();
    obj.field_bool("ok", false).field_str("error", message);
    obj.finish()
}

/// Extracts the object rows of an embedded `"key":[{...},{...}]` array
/// from a response line. The flat-JSON parser deliberately rejects nested
/// values, so array-bearing responses (`health`, `timeline`, `stats`,
/// `dump-trace`) are sliced textually: each returned string is one row,
/// itself a flat JSON object ready for [`parse_flat_json`] or a record
/// `from_json`. Returns `None` when the key is absent or the array is
/// unterminated.
pub fn embedded_rows(line: &str, key: &str) -> Option<Vec<String>> {
    let marker = format!("\"{key}\":[");
    let start = line.find(&marker)? + marker.len();
    let bytes = line.as_bytes();
    let mut rows = Vec::new();
    let mut depth = 0usize;
    let mut row_start = None;
    let mut in_str = false;
    let mut escaped = false;
    for (offset, &b) in bytes[start..].iter().enumerate() {
        let i = start + offset;
        if in_str {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_str = false;
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' => {
                if depth == 0 {
                    row_start = Some(i);
                }
                depth += 1;
            }
            b'}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    rows.push(line[row_start?..=i].to_string());
                    row_start = None;
                }
            }
            b']' if depth == 0 => return Some(rows),
            _ => {}
        }
    }
    None
}

/// Reads a response line's `ok` field and extracts `error` when false —
/// the client-side half of the envelope.
///
/// # Errors
///
/// Returns the server's `error` string (or a parse diagnostic) when the
/// response is not `ok`.
pub fn check_response(line: &str) -> Result<BTreeMap<String, JsonScalar>, String> {
    let map = parse_flat_json(line).map_err(|e| format!("bad response JSON: {e}"))?;
    match map.get("ok") {
        Some(JsonScalar::Bool(true)) => Ok(map),
        Some(JsonScalar::Bool(false)) => match map.get("error") {
            Some(JsonScalar::Str(e)) => Err(e.clone()),
            _ => Err("server reported an unspecified error".to_string()),
        },
        _ => Err("response is missing \"ok\"".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_create_request() {
        let r = Request::parse(
            r#"{"cmd":"create","name":"a","protocol":"ciw","backend":"agents","n":64}"#,
        )
        .unwrap();
        assert_eq!(r.cmd, "create");
        assert_eq!(r.str_arg("name").unwrap(), "a");
        assert_eq!(r.required_u64("n").unwrap(), 64);
        assert_eq!(r.u64_arg("seed").unwrap(), None);
    }

    #[test]
    fn rejects_unknown_cmd_and_stray_keys() {
        assert!(Request::parse(r#"{"cmd":"frobnicate"}"#).unwrap_err().contains("unknown cmd"));
        assert!(Request::parse(r#"{"cmd":"ping","name":"a"}"#)
            .unwrap_err()
            .contains("does not take"));
        assert!(Request::parse(r#"{"name":"a"}"#).unwrap_err().contains("missing"));
        assert!(Request::parse("not json").unwrap_err().contains("bad request JSON"));
    }

    #[test]
    fn parses_the_observability_commands() {
        let r = Request::parse(r#"{"cmd":"stats","reset":true}"#).unwrap();
        assert_eq!(r.bool_arg("reset").unwrap(), Some(true));
        assert!(Request::parse(r#"{"cmd":"stats","reset":1}"#).unwrap().bool_arg("reset").is_err());
        let r = Request::parse(r#"{"cmd":"dump-trace","last":8}"#).unwrap();
        assert_eq!(r.u64_arg("last").unwrap(), Some(8));
        assert!(Request::parse(r#"{"cmd":"dump-trace","name":"a"}"#)
            .unwrap_err()
            .contains("does not take"));
    }

    #[test]
    fn rejects_bad_numbers() {
        let r = Request::parse(r#"{"cmd":"step","name":"a","interactions":-3}"#).unwrap();
        assert!(r.u64_arg("interactions").is_err());
        let r = Request::parse(r#"{"cmd":"step","name":"a","interactions":1.5}"#).unwrap();
        assert!(r.u64_arg("interactions").is_err());
        let r = Request::parse(r#"{"cmd":"step","name":"a","interactions":18446744073709551616}"#)
            .unwrap();
        assert!(r.u64_arg("interactions").is_err(), "2^64 does not fit a u64");
    }

    #[test]
    fn integers_are_exact_across_the_u64_range() {
        for x in [(1u64 << 53) + 1, u64::MAX] {
            let r =
                Request::parse(&format!(r#"{{"cmd":"create","name":"a","seed":{x}}}"#)).unwrap();
            assert_eq!(r.u64_arg("seed").unwrap(), Some(x));
        }
    }

    #[test]
    fn embedded_rows_slices_nested_arrays() {
        let line = r#"{"ok":true,"count":2,"commands":[{"cmd":"ping","hist":"1:2,inf:3"},{"cmd":"step","pop":"a{b}"}],"tail":1}"#;
        let rows = embedded_rows(line, "commands").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], r#"{"cmd":"ping","hist":"1:2,inf:3"}"#);
        // Braces inside strings must not confuse the slicer.
        assert_eq!(rows[1], r#"{"cmd":"step","pop":"a{b}"}"#);
        assert_eq!(
            embedded_rows(r#"{"ok":true,"rows":[]}"#, "rows").unwrap(),
            Vec::<String>::new()
        );
        assert!(embedded_rows(line, "missing").is_none());
        assert!(embedded_rows(r#"{"rows":[{"a":1}"#, "rows").is_none(), "unterminated array");
    }

    #[test]
    fn response_envelope_round_trips() {
        let mut ok = ok_response();
        ok.field_u64("leaders", 1);
        let map = check_response(&ok.finish()).unwrap();
        assert!(matches!(map.get("leaders"), Some(JsonScalar::Num(x)) if *x == 1.0));

        let err = error_response("no such population");
        assert_eq!(check_response(&err).unwrap_err(), "no such population");
    }
}
