//! The line-JSON TCP front end.
//!
//! One request per line, one response per line, loopback only. The
//! server binds `127.0.0.1` (an OS-assigned port by default), commits
//! the bound address atomically to `<dir>/serve.addr` so clients can
//! discover it, and serves each connection on its own thread. The
//! accept loop polls at ~50 ms so shutdown (API call, SIGINT/SIGTERM
//! via [`gaas_experiments::interrupt`]) is observed promptly.
//!
//! ## Protocol
//!
//! Requests are JSON objects with an `"op"` field:
//!
//! | op | request fields | response |
//! |----|----------------|----------|
//! | `submit` | `spec` (a sweep spec object) | `{"ok":true,"job":"j0001","position":1}` or `{"ok":false,"error":"…","retry_after_ms":1200}` |
//! | `status` | `job` | `{"ok":true,"job":…,"state":"queued|running|done|failed|cancelled","detail":…,"cells":N}` |
//! | `result` | `job` | `{"ok":true,"table":"cell00 1.721340\n…"}` |
//! | `cancel` | `job` | `{"ok":true,"state":"cancelled"}` |
//! | `stats` | — | `{"ok":true,"accepted":…,"cache":{…},"copricing":{…}}` |
//! | `ping` | — | `{"ok":true}` |
//! | `shutdown` | — | `{"ok":true}`, then the daemon exits |
//!
//! `retry_after_ms` is present exactly when a refusal is retryable
//! backpressure; its absence means the request itself is invalid.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use gaas_experiments::json::{self, Json};
use gaas_experiments::{durability, interrupt};

use crate::engine::{JobInfo, ServerCore, StatsSnapshot, Submission};

/// Runs the accept loop until [`ServerCore`] shutdown is requested via
/// the `shutdown` op or a process interrupt. Returns once the listener
/// is drained; the caller still owns (and drops/shuts down) `core`.
///
/// # Errors
///
/// Propagates listener-bind and address-file I/O errors.
pub fn serve(core: &Arc<ServerCore>, dir: &Path, port: u16) -> std::io::Result<()> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let addr_file = dir.join("serve.addr");
    durability::retrying("serve.addr commit", || {
        durability::write_atomic(&addr_file, format!("{addr}\n").as_bytes())
    })?;
    eprintln!(
        "[gaas-serve] listening on {addr} (addr file: {})",
        addr_file.display()
    );
    let stop = Arc::new(AtomicBool::new(false));
    loop {
        if stop.load(Ordering::SeqCst) || interrupt::interrupted() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let core = Arc::clone(core);
                let stop = Arc::clone(&stop);
                // Connection threads are detached; a hung client cannot
                // wedge the accept loop, and the process exits via the
                // stop flag regardless.
                let _ = thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || handle_connection(stream, &core, &stop));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(50));
            }
            Err(_) => thread::sleep(Duration::from_millis(50)),
        }
    }
    let _ = std::fs::remove_file(&addr_file);
    Ok(())
}

fn handle_connection(stream: TcpStream, core: &ServerCore, stop: &AtomicBool) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        let (response, shutdown) = handle_request(line.trim(), core);
        let mut text = response.to_text();
        text.push('\n');
        if writer.write_all(text.as_bytes()).is_err() {
            return;
        }
        if shutdown {
            stop.store(true, Ordering::SeqCst);
            return;
        }
    }
}

/// Dispatches one request line to the core. Returns the response and
/// whether the daemon should stop accepting.
pub fn handle_request(line: &str, core: &ServerCore) -> (Json, bool) {
    let parsed = match json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            return (
                err_response(&format!("request is not valid JSON: {e}")),
                false,
            )
        }
    };
    let Some(op) = parsed.get("op").and_then(Json::as_str) else {
        return (
            err_response("request must carry a string 'op' field"),
            false,
        );
    };
    match op {
        "ping" => (ok_response(vec![]), false),
        "submit" => {
            let Some(spec) = parsed.get("spec") else {
                return (err_response("submit requires a 'spec' object"), false);
            };
            (submit_response(core.submit(&spec.to_text())), false)
        }
        "status" => match require_job(&parsed) {
            Err(resp) => (resp, false),
            Ok(job) => match core.status(job) {
                Some(info) => (job_response(&info), false),
                None => (err_response(&format!("unknown job '{job}'")), false),
            },
        },
        "result" => match require_job(&parsed) {
            Err(resp) => (resp, false),
            Ok(job) => match core.result(job) {
                Ok(bytes) => (
                    ok_response(vec![(
                        "table".into(),
                        Json::Str(String::from_utf8_lossy(&bytes).into_owned()),
                    )]),
                    false,
                ),
                Err(e) => (err_response(&e), false),
            },
        },
        "cancel" => match require_job(&parsed) {
            Err(resp) => (resp, false),
            Ok(job) => match core.cancel(job) {
                Ok(state) => (
                    ok_response(vec![("state".into(), Json::Str(state.to_string()))]),
                    false,
                ),
                Err(e) => (err_response(&e), false),
            },
        },
        "stats" => (stats_response(&core.stats()), false),
        "shutdown" => (ok_response(vec![]), true),
        other => (err_response(&format!("unknown op '{other}'")), false),
    }
}

fn require_job(req: &Json) -> Result<&str, Json> {
    req.get("job")
        .and_then(Json::as_str)
        .ok_or_else(|| err_response("request must carry a string 'job' field"))
}

fn ok_response(mut extra: Vec<(String, Json)>) -> Json {
    let mut fields = vec![("ok".to_string(), Json::Bool(true))];
    fields.append(&mut extra);
    Json::Obj(fields)
}

fn err_response(message: &str) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(message.to_string())),
    ])
}

fn submit_response(sub: Submission) -> Json {
    match sub {
        Submission::Accepted { job, position } => ok_response(vec![
            ("job".into(), Json::Str(job)),
            ("position".into(), Json::Int(position as u64)),
        ]),
        Submission::Rejected {
            error,
            retry_after_ms,
        } => {
            let mut fields = vec![
                ("ok".to_string(), Json::Bool(false)),
                ("error".to_string(), Json::Str(error)),
            ];
            if let Some(ms) = retry_after_ms {
                fields.push(("retry_after_ms".into(), Json::Int(ms)));
            }
            Json::Obj(fields)
        }
    }
}

fn job_response(info: &JobInfo) -> Json {
    ok_response(vec![
        ("job".into(), Json::Str(info.id.clone())),
        ("name".into(), Json::Str(info.name.clone())),
        ("state".into(), Json::Str(info.state.name().to_string())),
        ("detail".into(), Json::Str(info.detail.clone())),
        ("cells".into(), Json::Int(info.cells as u64)),
    ])
}

fn stats_response(stats: &StatsSnapshot) -> Json {
    let mut fields = vec![
        ("accepted".to_string(), Json::Int(stats.accepted)),
        ("rejected_busy".to_string(), Json::Int(stats.rejected_busy)),
        (
            "rejected_invalid".to_string(),
            Json::Int(stats.rejected_invalid),
        ),
        ("completed".to_string(), Json::Int(stats.completed)),
        ("failed".to_string(), Json::Int(stats.failed)),
        ("cancelled".to_string(), Json::Int(stats.cancelled)),
        ("replayed".to_string(), Json::Int(stats.replayed)),
        (
            "worker_restarts".to_string(),
            Json::Int(stats.worker_restarts),
        ),
        (
            "telemetry_leaks".to_string(),
            Json::Int(stats.telemetry_leaks),
        ),
        ("queue_len".to_string(), Json::Int(stats.queue_len as u64)),
        ("avg_job_ms".to_string(), Json::Int(stats.avg_job_ms)),
    ];
    if let Some(cache) = &stats.cache {
        fields.push((
            "cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::Int(cache.stats.hits)),
                ("misses".into(), Json::Int(cache.stats.misses)),
                ("insertions".into(), Json::Int(cache.stats.insertions)),
                ("evictions".into(), Json::Int(cache.stats.evictions)),
                (
                    "oversize_rejects".into(),
                    Json::Int(cache.stats.oversize_rejects),
                ),
                ("entries".into(), Json::Int(cache.entries as u64)),
                ("bytes".into(), Json::Int(cache.bytes as u64)),
                ("budget_bytes".into(), Json::Int(cache.budget_bytes as u64)),
            ]),
        ));
    }
    fields.push((
        "copricing".into(),
        Json::Obj(vec![
            (
                "copriced_groups".into(),
                Json::Int(stats.memo.copriced_groups),
            ),
            (
                "copriced_lanes".into(),
                Json::Int(stats.memo.copriced_lanes),
            ),
            (
                "replay_passes_saved".into(),
                Json::Int(stats.memo.replay_passes_saved),
            ),
            (
                "copricer_fallbacks".into(),
                Json::Int(stats.memo.copricer_fallbacks),
            ),
        ]),
    ));
    fields.push((
        "coherence".into(),
        Json::Obj(vec![
            ("runs".into(), Json::Int(stats.coherence.runs)),
            (
                "invalidations".into(),
                Json::Int(stats.coherence.invalidations),
            ),
            (
                "c2c_transfers".into(),
                Json::Int(stats.coherence.c2c_transfers),
            ),
            (
                "upgrade_misses".into(),
                Json::Int(stats.coherence.upgrade_misses),
            ),
            (
                "coherence_stall_cycles".into(),
                Json::Int(stats.coherence.coherence_stall_cycles),
            ),
            (
                "snoop_transactions".into(),
                Json::Int(stats.coherence.snoop_transactions),
            ),
            (
                "snoop_wait_cycles".into(),
                Json::Int(stats.coherence.snoop_wait_cycles),
            ),
        ]),
    ));
    ok_response(fields)
}

/// One-shot client: connect to `addr`, send `request` as one line, read
/// one response line back.
///
/// # Errors
///
/// Propagates connect/write/read errors as human-readable strings.
pub fn client_roundtrip(addr: &str, request: &str) -> Result<String, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    writer
        .write_all(format!("{}\n", request.trim()).as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("receive: {e}"))?;
    Ok(line.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_requests_get_structured_errors() {
        // handle_request's error paths need no live core; exercise the
        // pre-dispatch validation with a dangling reference is not
        // possible, so spin a minimal core in a temp dir.
        let dir = std::env::temp_dir().join(format!("gaas-serve-net-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let prev = durability::set_durable_sync(false);
        let core = ServerCore::open(crate::engine::ServeConfig {
            start_paused: true,
            ..crate::engine::ServeConfig::new(&dir)
        })
        .expect("open core");
        let (resp, stop) = handle_request("not json", &core);
        assert!(!stop);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        // A megabyte of '[' must not overflow the parser's stack.
        let (resp, stop) = handle_request(&"[".repeat(1 << 20), &core);
        assert!(!stop);
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        assert!(resp
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("nesting deeper"));
        let (resp, _) = handle_request(r#"{"op":"status"}"#, &core);
        assert!(resp
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("job"));
        let (resp, _) = handle_request(r#"{"op":"warp"}"#, &core);
        assert!(resp
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("unknown op"));
        let (_, stop) = handle_request(r#"{"op":"shutdown"}"#, &core);
        assert!(stop);
        core.shutdown();
        durability::set_durable_sync(prev);
    }

    /// Seeded malformed request lines: truncations and one to four byte
    /// edits of well-formed requests, deep nesting, and huge numbers in
    /// every field. Each line must get one structured response, an
    /// object with a boolean `ok`, and a refusal must carry a non-empty
    /// `error` (plus an integer `retry_after_ms` when it is
    /// backpressure), never a panic. The executor stays paused, so an
    /// edit that still forms a valid submit only queues.
    #[test]
    fn malformed_request_lines_get_structured_responses() {
        use gaas_trace::rng::SmallRng;
        let dir = std::env::temp_dir().join(format!("gaas-serve-fuzz-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let prev = durability::set_durable_sync(false);
        let core = ServerCore::open(crate::engine::ServeConfig {
            start_paused: true,
            ..crate::engine::ServeConfig::new(&dir)
        })
        .expect("open core");
        let structured = |line: &str| {
            let (resp, stop) = handle_request(line, &core);
            assert!(!stop, "only a shutdown op stops: {line:?}");
            let ok = resp.get("ok").and_then(Json::as_bool);
            assert!(ok.is_some(), "{line:?} -> {}", resp.to_text());
            if ok == Some(false) {
                let error = resp.get("error").and_then(Json::as_str).unwrap_or("");
                assert!(!error.is_empty(), "{line:?} -> {}", resp.to_text());
                if let Some(retry) = resp.get("retry_after_ms") {
                    assert!(retry.as_u64().is_some(), "{}", resp.to_text());
                }
            }
            ok == Some(true)
        };
        let corpus = [
            r#"{"op":"ping"}"#,
            r#"{"op":"stats"}"#,
            r#"{"op":"status","job":"j0001"}"#,
            r#"{"op":"result","job":"j0001"}"#,
            r#"{"op":"cancel","job":"j0002"}"#,
            r#"{"op":"submit","spec":{"name":"t","scale":0.00005,"deadline_ms":60000,"cells":[{"l2_access":2},{"l2_split":true,"l2_size":65536}]}}"#,
        ];
        assert!(
            structured(corpus[0]) && structured(corpus[5]),
            "ping and submit pass"
        );
        for line in corpus {
            structured(line);
            for cut in 1..line.len() {
                structured(&line[..cut]);
            }
        }
        const BYTES: &[u8] = b"{}[]\",:0123456789.eE+- nulltrue\x7f\xff";
        let mut rng = SmallRng::seed_from_u64(0x5E2F_F022);
        for _ in 0..3_000 {
            let mut bytes = corpus[rng.gen_range(0..corpus.len())].as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..=4usize) {
                let at = rng.gen_range(0..bytes.len());
                let byte = BYTES[rng.gen_range(0..BYTES.len())];
                match rng.gen_range(0..3u32) {
                    0 => bytes[at] ^= 1 << rng.gen_range(0..8u32),
                    1 => bytes[at] = byte,
                    _ => bytes.insert(at, byte),
                }
            }
            structured(&String::from_utf8_lossy(&bytes));
        }
        let huge = format!("1{}", "0".repeat(400));
        for number in [
            "18446744073709551616",
            "1e309",
            "-1e309",
            "1e-400",
            huge.as_str(),
        ] {
            for field in ["job", "op", "scale", "deadline_ms", "l2_size", "l2_access"] {
                structured(&format!(r#"{{"op":"status","{field}":{number}}}"#));
                structured(&format!(
                    r#"{{"op":"submit","spec":{{"scale":{number},"cells":[{{"{field}":{number}}}]}}}}"#
                ));
            }
        }
        for depth in [64, 127, 128, 129, 4096] {
            let nested = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            structured(&format!(r#"{{"op":"ping","pad":{nested}}}"#));
            structured(&format!(r#"{{"op":"submit","spec":{nested}}}"#));
        }
        core.shutdown();
        durability::set_durable_sync(prev);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
