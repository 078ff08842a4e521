//! The fleetd control protocol: line-based requests, line-based replies.
//!
//! One request per line, one reply per request. Replies start with a
//! status word — `OK`, `BUSY`, or `ERR` — so clients never parse
//! free-form prose to learn whether they succeeded. Multi-line replies
//! (QUERY) frame themselves: the status line carries the count of payload
//! lines that follow, so a stream client knows exactly how much to read
//! without sentinels or timeouts.
//!
//! The vocabulary (a superset of the ISSUE's REGISTER / INGEST / QUERY
//! triple):
//!
//! | request | effect |
//! |---|---|
//! | `HELLO` | protocol + service identification |
//! | `REGISTER <target>` | activate a built-in spec for ingest |
//! | `INGEST <target>/<session> <record>` | validate + dedupe + enqueue a witness |
//! | `QUERY <target> [witness-id\|*] [class]` | sensitivity-matrix rows |
//! | `STATS` | one-line counter snapshot |
//! | `METRICS` | framed Prometheus-style metrics snapshot (see `achilles-obs`) |
//! | `DRAIN` | block until the work queue is empty |
//! | `RECAMPAIGN <target>` | re-enqueue every stored witness (cache-warm) |
//! | `EPOCH <target>` | bump the spec epoch: invalidate + re-derive its cells |
//! | `EVICT <target>/<session> <record>` | drop one witness and its cells |
//! | `SAVE` | persist store + cache to the state dir |
//! | `SHUTDOWN` | graceful drain, persist, stop |
//!
//! Witness *records* are the shared `achilles::export` session form the
//! corpus and sweep cache already speak (`"3,150/68,0,1"`): the wire
//! protocol introduces no new serialization of witnesses, so a record cut
//! from a corpus file or a `QUERY` reply pastes straight into `INGEST`.
//!
//! A request line is at most [`MAX_LINE_BYTES`] long, newline included.
//! The transport discards a longer line unparsed and answers `ERR`, counted
//! under the `oversize` error class.

use achilles_sweep::ScheduleClass;

/// The longest request line a transport reads, newline included.
///
/// The longest `INGEST` line the built-in registry's session witnesses
/// produce is 56 bytes (fsp's `login-command`); with every one of its 12
/// fields at `u64::MAX` it would be 277. 4 KiB leaves over 14× headroom on
/// that, and bounds what a client that never sends a newline can make a
/// connection buffer.
pub const MAX_LINE_BYTES: usize = 4096;

/// A parsed control request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Identify the service.
    Hello,
    /// Activate the named built-in spec for ingest and queries.
    Register {
        /// Registry name of the spec.
        target: String,
    },
    /// Validate, dedupe, and enqueue one witness record.
    Ingest {
        /// Registry name of the spec.
        target: String,
        /// Declared session name within the spec.
        session: String,
        /// The `achilles::export` session witness record.
        record: String,
    },
    /// Read sensitivity-matrix rows from the results store.
    Query {
        /// Registry name of the spec.
        target: String,
        /// Restrict to one witness id (`None` = every witness).
        witness: Option<usize>,
        /// Restrict cell rows to one class.
        class: Option<ScheduleClass>,
    },
    /// Counter snapshot.
    Stats,
    /// Full metrics snapshot: every registry series, deterministic and
    /// wall sections segregated, framed like a `QUERY` reply.
    Metrics,
    /// Block until the queue is fully drained.
    Drain,
    /// Re-enqueue every stored witness of the target (warm cells complete
    /// without replays — the zero-replay no-op re-campaign).
    Recampaign {
        /// Registry name of the spec.
        target: String,
    },
    /// Bump the target's spec epoch: invalidate its scopes' cells and
    /// re-derive everything.
    Epoch {
        /// Registry name of the spec.
        target: String,
    },
    /// Drop one witness and invalidate exactly its cells.
    Evict {
        /// Registry name of the spec.
        target: String,
        /// Declared session name within the spec.
        session: String,
        /// The witness record to drop.
        record: String,
    },
    /// Persist the store and cache to the state directory.
    Save,
    /// Graceful drain + persist + stop.
    Shutdown,
}

/// A control reply, rendered to text with [`Reply::render`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Success; `info` rides on the status line.
    Ok(String),
    /// Success with a framed payload: `OK <n> <info>` then `n` lines.
    Lines(String, Vec<String>),
    /// The queue is at its depth bound — retry after a drain.
    Busy(String),
    /// The request was malformed or impossible.
    Err(String),
}

impl Reply {
    /// Renders the reply as protocol text (no trailing newline; the
    /// transport appends one per line).
    pub fn render(&self) -> String {
        match self {
            Reply::Ok(info) => format!("OK {info}"),
            Reply::Lines(info, lines) => {
                let mut out = format!("OK {} {info}", lines.len());
                for line in lines {
                    out.push('\n');
                    out.push_str(line);
                }
                out
            }
            Reply::Busy(info) => format!("BUSY {info}"),
            Reply::Err(info) => format!("ERR {info}"),
        }
    }

    /// Whether the reply is a success (`OK`).
    pub fn is_ok(&self) -> bool {
        matches!(self, Reply::Ok(_) | Reply::Lines(_, _))
    }
}

/// Splits `target/session` — the scope form the sweep cache keys on.
fn split_scope(s: &str) -> Option<(&str, &str)> {
    let (target, session) = s.split_once('/')?;
    (!target.is_empty() && !session.is_empty()).then_some((target, session))
}

/// A classed parse failure. `class` is a small closed vocabulary of
/// malformation kinds (`oversize`, `empty`, `unknown-verb`, `arity`,
/// `scope`, `witness-id`, `schedule-class`) that the service counts per
/// class in its `achilles_fleetd_errors_total{class=...}` metric; `reason`
/// is the human-readable text sent back as the `ERR` reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Malformation class (stable label for the error counter).
    pub class: &'static str,
    /// Human-readable description, sent back on the `ERR` line.
    pub reason: String,
}

impl ParseError {
    fn new(class: &'static str, reason: impl Into<String>) -> ParseError {
        ParseError {
            class,
            reason: reason.into(),
        }
    }

    /// A request line longer than [`MAX_LINE_BYTES`], discarded unparsed.
    pub(crate) fn oversize() -> ParseError {
        ParseError::new(
            "oversize",
            format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        )
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a [`ParseError`] carrying both the malformation class (for the
/// per-class error counters) and a human-readable description; transports
/// send the description back as an `ERR` reply.
pub fn parse_request(line: &str) -> Result<Request, ParseError> {
    let line = line.trim();
    let mut words = line.split_whitespace();
    let verb = words
        .next()
        .ok_or_else(|| ParseError::new("empty", "empty request"))?;
    let rest: Vec<&str> = words.collect();
    let exactly = |n: usize| -> Result<(), ParseError> {
        if rest.len() == n {
            Ok(())
        } else {
            Err(ParseError::new(
                "arity",
                format!("{verb} takes {n} argument(s), got {}", rest.len()),
            ))
        }
    };
    match verb {
        "HELLO" => exactly(0).map(|()| Request::Hello),
        "STATS" => exactly(0).map(|()| Request::Stats),
        "METRICS" => exactly(0).map(|()| Request::Metrics),
        "DRAIN" => exactly(0).map(|()| Request::Drain),
        "SAVE" => exactly(0).map(|()| Request::Save),
        "SHUTDOWN" => exactly(0).map(|()| Request::Shutdown),
        "REGISTER" => exactly(1).map(|()| Request::Register {
            target: rest[0].to_string(),
        }),
        "RECAMPAIGN" => exactly(1).map(|()| Request::Recampaign {
            target: rest[0].to_string(),
        }),
        "EPOCH" => exactly(1).map(|()| Request::Epoch {
            target: rest[0].to_string(),
        }),
        "INGEST" | "EVICT" => {
            exactly(2)?;
            let (target, session) = split_scope(rest[0]).ok_or_else(|| {
                ParseError::new(
                    "scope",
                    format!("{verb} scope must be target/session, got {:?}", rest[0]),
                )
            })?;
            let (target, session, record) =
                (target.to_string(), session.to_string(), rest[1].to_string());
            Ok(if verb == "INGEST" {
                Request::Ingest {
                    target,
                    session,
                    record,
                }
            } else {
                Request::Evict {
                    target,
                    session,
                    record,
                }
            })
        }
        "QUERY" => {
            if rest.is_empty() || rest.len() > 3 {
                return Err(ParseError::new(
                    "arity",
                    "QUERY takes 1-3 arguments: target [witness-id|*] [class]",
                ));
            }
            let target = rest[0].to_string();
            let witness = match rest.get(1) {
                None => None,
                Some(&"*") => None,
                Some(id) => Some(id.parse::<usize>().map_err(|_| {
                    ParseError::new(
                        "witness-id",
                        format!("witness id must be a number or *, got {id:?}"),
                    )
                })?),
            };
            let class = match rest.get(2) {
                None => None,
                Some(word) => Some(ScheduleClass::parse(word).ok_or_else(|| {
                    ParseError::new("schedule-class", format!("unknown schedule class {word:?}"))
                })?),
            };
            Ok(Request::Query {
                target,
                witness,
                class,
            })
        }
        other => Err(ParseError::new(
            "unknown-verb",
            format!("unknown request {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_and_reject() {
        assert_eq!(parse_request("HELLO"), Ok(Request::Hello));
        assert_eq!(
            parse_request("  REGISTER gossip "),
            Ok(Request::Register {
                target: "gossip".to_string()
            })
        );
        assert_eq!(
            parse_request("INGEST gossip/seed-sync-read 3,150/68/7"),
            Ok(Request::Ingest {
                target: "gossip".to_string(),
                session: "seed-sync-read".to_string(),
                record: "3,150/68/7".to_string(),
            })
        );
        assert_eq!(
            parse_request("QUERY gossip * armed"),
            Ok(Request::Query {
                target: "gossip".to_string(),
                witness: None,
                class: Some(ScheduleClass::Armed),
            })
        );
        assert_eq!(
            parse_request("QUERY gossip 2"),
            Ok(Request::Query {
                target: "gossip".to_string(),
                witness: Some(2),
                class: None,
            })
        );
        assert_eq!(
            parse_request("QUERY shardexec * diverged"),
            Ok(Request::Query {
                target: "shardexec".to_string(),
                witness: None,
                class: Some(ScheduleClass::Diverged),
            })
        );
        assert_eq!(parse_request("METRICS"), Ok(Request::Metrics));
        assert_eq!(parse_request("").unwrap_err().class, "empty");
        assert_eq!(
            parse_request("INGEST gossip 1,2").unwrap_err().class,
            "scope",
            "scope needs a /"
        );
        assert_eq!(
            parse_request("QUERY gossip x").unwrap_err().class,
            "witness-id"
        );
        assert_eq!(
            parse_request("QUERY gossip * bogus").unwrap_err().class,
            "schedule-class"
        );
        assert_eq!(parse_request("HELLO now").unwrap_err().class, "arity");
        assert_eq!(
            parse_request("FROBNICATE").unwrap_err().class,
            "unknown-verb"
        );
    }

    #[test]
    fn replies_render_with_framed_payloads() {
        assert_eq!(Reply::Ok("id=3".to_string()).render(), "OK id=3");
        assert_eq!(
            Reply::Lines(
                "target=g".to_string(),
                vec!["a".to_string(), "b".to_string()]
            )
            .render(),
            "OK 2 target=g\na\nb"
        );
        assert_eq!(
            Reply::Busy("queue at 512 cells".to_string()).render(),
            "BUSY queue at 512 cells"
        );
        assert!(!Reply::Err("nope".to_string()).is_ok());
    }
}
