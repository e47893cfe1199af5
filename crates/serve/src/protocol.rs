//! The line-oriented JSON job protocol.
//!
//! Every request is **one line**: a flat JSON object with scalar values
//! only. Two fields are mandatory — `id` (any string, echoed on every
//! reply) and `kind` (which job to run) — and three are interpreted by
//! the server itself: `priority` (`"high"`/`"normal"`/`"low"`, default
//! normal), `deadline_ms` (wall-clock queue-wait budget), and `chaos`
//! (fault-injection directive for chaos testing). Everything else is
//! passed through to the [`JobRunner`](crate::server::JobRunner)
//! untouched.
//!
//! Every reply is also one line, and **every accepted job gets exactly
//! one terminal reply**:
//!
//! ```text
//! {"id":"j1","status":"ok","attempts":1,"result":"<escaped JSON report>"}
//! {"id":"j2","status":"error","code":"watchdog","message":"..."}
//! {"id":"j3","status":"shed","code":"overloaded","message":"..."}
//! {"id":"j4","status":"draining","code":"draining","message":"..."}
//! ```
//!
//! The `result` field is the *exact* byte string the equivalent CLI
//! invocation would print, JSON-escaped — which is what makes
//! served-vs-direct byte-identity checkable at all.
//!
//! Malformed input never panics and never kills the connection: each
//! bad line yields one `status:"error"` reply with a stable
//! machine-readable code from [`RequestError::code`], and the reader
//! moves on to the next line. Lines are parsed, and replies rendered,
//! by `codesign_trace::json`, the workspace's one JSON module.

use std::collections::BTreeMap;
use std::fmt;

pub use codesign_trace::json::Value;
use codesign_trace::json::{self, Object};

/// Job priority: three classes, strict precedence at dequeue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Served before everything else.
    High = 0,
    /// The default class.
    Normal = 1,
    /// Served only when nothing else waits.
    Low = 2,
}

impl Priority {
    /// All classes, highest first (dequeue order).
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// The wire label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses a wire label.
    #[must_use]
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }
}

/// One parsed job request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id, echoed verbatim on the reply.
    pub id: String,
    /// Which job to run (`"cosim"`, `"explore"`, ... — the runner's
    /// registry decides what exists).
    pub kind: String,
    /// Queue class.
    pub priority: Priority,
    /// Wall-clock budget for *queue wait*, in milliseconds. A job still
    /// queued past its deadline is failed with code `deadline`, never
    /// run. `None` = wait forever.
    pub deadline_ms: Option<u64>,
    /// Chaos directive (`"panic"`, `"stall"`, `"transient:K"`) — honored
    /// by runners built for chaos testing, rejected by none.
    pub chaos: Option<String>,
    /// Every remaining field, passed through to the runner.
    pub params: BTreeMap<String, Value>,
}

/// Why a request line was rejected. [`RequestError::code`] is the
/// stable wire identity of each case; tests pin the codes.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The line is not syntactically valid JSON.
    BadJson {
        /// What the parser choked on.
        detail: String,
    },
    /// The line parsed but is not a JSON object.
    NotObject,
    /// A value was an array or nested object (the protocol is flat).
    UnsupportedValue {
        /// The offending key.
        key: String,
    },
    /// A mandatory field (`id`, `kind`) is absent.
    MissingField {
        /// The absent field.
        field: &'static str,
    },
    /// A server-interpreted field has the wrong type or range.
    BadField {
        /// The offending field.
        field: String,
        /// What was wrong with it.
        detail: String,
    },
    /// `priority` is not `high`/`normal`/`low`.
    BadPriority {
        /// The value that was sent.
        got: String,
    },
}

impl RequestError {
    /// The stable machine-readable code sent in the error reply.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            RequestError::BadJson { .. } => "bad_json",
            RequestError::NotObject => "not_object",
            RequestError::UnsupportedValue { .. } => "unsupported_value",
            RequestError::MissingField { .. } => "missing_field",
            RequestError::BadField { .. } => "bad_field",
            RequestError::BadPriority { .. } => "bad_priority",
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::BadJson { detail } => write!(f, "malformed JSON: {detail}"),
            RequestError::NotObject => write!(f, "request must be a JSON object"),
            RequestError::UnsupportedValue { key } => {
                write!(f, "field `{key}` is an array or object; requests are flat")
            }
            RequestError::MissingField { field } => {
                write!(f, "missing required field `{field}`")
            }
            RequestError::BadField { field, detail } => {
                write!(f, "bad field `{field}`: {detail}")
            }
            RequestError::BadPriority { got } => {
                write!(f, "bad priority `{got}` (high|normal|low)")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// Parses one request line. Never panics, whatever the input.
///
/// # Errors
///
/// The first thing wrong with the line, as a [`RequestError`].
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let detail = |e: json::Error| RequestError::BadJson {
        detail: e.to_string(),
    };
    let Value::Object(members) = json::parse(line).map_err(detail)? else {
        return Err(RequestError::NotObject);
    };
    let mut map = BTreeMap::new();
    for (key, value) in members {
        if matches!(value, Value::Array(_) | Value::Object(_)) {
            return Err(RequestError::UnsupportedValue { key });
        }
        map.insert(key, value);
    }
    let take_str = |map: &mut BTreeMap<String, Value>,
                    field: &'static str|
     -> Result<Option<String>, RequestError> {
        match map.remove(field) {
            None => Ok(None),
            Some(Value::Str(s)) => Ok(Some(s)),
            Some(other) => Err(RequestError::BadField {
                field: field.to_string(),
                detail: format!("expected a string, got {other:?}"),
            }),
        }
    };
    let id = take_str(&mut map, "id")?.ok_or(RequestError::MissingField { field: "id" })?;
    let kind = take_str(&mut map, "kind")?.ok_or(RequestError::MissingField { field: "kind" })?;
    let priority = match take_str(&mut map, "priority")? {
        None => Priority::Normal,
        Some(p) => Priority::parse(&p).ok_or(RequestError::BadPriority { got: p })?,
    };
    let deadline_ms = match map.remove("deadline_ms") {
        None | Some(Value::Null) => None,
        Some(Value::Int(n)) if n >= 0 => Some(n as u64),
        Some(other) => {
            return Err(RequestError::BadField {
                field: "deadline_ms".to_string(),
                detail: format!("expected a non-negative integer, got {other:?}"),
            })
        }
    };
    let chaos = take_str(&mut map, "chaos")?;
    Ok(Request {
        id,
        kind,
        priority,
        deadline_ms,
        chaos,
        params: map,
    })
}

// ---------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------

/// Renders the terminal `ok` reply. `result` is embedded as an escaped
/// JSON string so multi-line reports survive the line protocol, and
/// `attempts` says how many runs (1 = no retries) it took.
#[must_use]
pub fn reply_ok(id: &str, attempts: u32, result: &str) -> String {
    Object::compact()
        .str("id", id)
        .str("status", "ok")
        .num("attempts", attempts)
        .str("result", result)
        .finish()
}

/// Renders a terminal `error` reply with a stable machine code.
#[must_use]
pub fn reply_error(id: Option<&str>, code: &str, message: &str) -> String {
    refusal(id, "error", code, message)
}

/// Renders the load-shed reply: the queue was full and the job was
/// **not** accepted. Explicit, never silent.
#[must_use]
pub fn reply_shed(id: &str, queued: usize, cap: usize) -> String {
    let message = format!("queue full ({queued}/{cap}); resubmit later");
    refusal(Some(id), "shed", "overloaded", &message)
}

/// Renders the drain rejection: the server is shutting down. Sent both
/// for new submissions during drain and for queued-but-unstarted jobs
/// flushed by the drain itself.
#[must_use]
pub fn reply_draining(id: &str) -> String {
    refusal(
        Some(id),
        "draining",
        "draining",
        "server is draining; job not run",
    )
}

/// The shape shared by every reply that carries no result.
fn refusal(id: Option<&str>, status: &str, code: &str, message: &str) -> String {
    let reply = match id {
        Some(id) => Object::compact().str("id", id),
        None => Object::compact().raw("id", "null"),
    };
    reply
        .str("status", status)
        .str("code", code)
        .str("message", message)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let r = parse_request(
            r#"{"id":"j1","kind":"cosim","priority":"high","deadline_ms":500,"chaos":"panic","spec":"sys demo\n","budget":3,"sharing":true}"#,
        )
        .unwrap();
        assert_eq!(r.id, "j1");
        assert_eq!(r.kind, "cosim");
        assert_eq!(r.priority, Priority::High);
        assert_eq!(r.deadline_ms, Some(500));
        assert_eq!(r.chaos.as_deref(), Some("panic"));
        assert_eq!(r.params["spec"].as_str(), Some("sys demo\n"));
        assert_eq!(r.params["budget"].as_int(), Some(3));
        assert_eq!(r.params["sharing"].as_bool(), Some(true));
    }

    #[test]
    fn defaults_are_normal_priority_no_deadline() {
        let r = parse_request(r#"{"id":"a","kind":"faults"}"#).unwrap();
        assert_eq!(r.priority, Priority::Normal);
        assert_eq!(r.deadline_ms, None);
        assert_eq!(r.chaos, None);
        assert!(r.params.is_empty());
    }

    #[test]
    fn every_malformed_shape_gets_its_own_code() {
        let cases: [(&str, &str); 11] = [
            ("not json at all", "bad_json"),
            ("{\"id\":\"x\",", "bad_json"),
            ("[1,2,3]", "not_object"),
            (
                r#"{"id":"x","kind":"k","nested":{"a":1}}"#,
                "unsupported_value",
            ),
            (r#"{"kind":"k"}"#, "missing_field"),
            (r#"{"id":"x"}"#, "missing_field"),
            (
                r#"{"id":"x","kind":"k","priority":"urgent"}"#,
                "bad_priority",
            ),
            (r#"{"id":"x","kind":"k","deadline_ms":-4}"#, "bad_field"),
            // The whole line is parsed before shapes are checked, so a
            // malformed nested value is a syntax error...
            (r#"{"id":"x","kind":"k","v":[1,}"#, "bad_json"),
            (r#"{"id":"x","kind":"k","n":01}"#, "bad_json"),
            // ...and an integer beyond i64 parses as a float.
            (
                r#"{"id":"x","kind":"k","deadline_ms":99999999999999999999}"#,
                "bad_field",
            ),
        ];
        for (line, code) in cases {
            let err = parse_request(line).expect_err(line);
            assert_eq!(err.code(), code, "line: {line}, err: {err}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line1\nline2\t\"quoted\" \\ end\u{1}";
        let wire = Object::compact()
            .str("id", original)
            .str("kind", "k")
            .finish();
        let r = parse_request(&wire).unwrap();
        assert_eq!(r.id, original);
    }

    #[test]
    fn unicode_payloads_survive() {
        let r = parse_request(r#"{"id":"jé","kind":"k","note":"héllo ☃"}"#).unwrap();
        assert_eq!(r.id, "jé");
        assert_eq!(r.params["note"].as_str(), Some("héllo ☃"));
    }

    #[test]
    fn replies_are_single_lines() {
        let replies = [
            reply_ok("a", 2, "{\n  \"x\": 1\n}\n"),
            reply_error(Some("b"), "watchdog", "stalled\nbadly"),
            reply_error(None, "bad_json", "oops"),
            reply_shed("c", 64, 64),
            reply_draining("d"),
        ];
        for r in &replies {
            assert!(!r.contains('\n'), "{r}");
        }
        assert!(replies[0].contains("\\n"));
        assert!(replies[2].contains("\"id\":null"));
    }

    #[test]
    fn numbers_parse_to_the_right_shapes() {
        let r = parse_request(r#"{"id":"x","kind":"k","a":-7,"b":2.5,"c":null}"#).unwrap();
        assert_eq!(r.params["a"].as_int(), Some(-7));
        assert_eq!(r.params["b"], Value::Float(2.5));
        assert_eq!(r.params["c"], Value::Null);
    }
}
