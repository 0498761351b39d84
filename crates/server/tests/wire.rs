//! The wire format under adversarial and large input: the JSON string
//! codec round-trips every string, a request line's parse cost grows
//! linearly with its size, and no mutated request line panics the
//! server or costs the client its connection.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use pt_server::protocol::{parse_request, request_envelope};
use pt_server::{handle_line, Server, ServerConfig, ServerState, Store, StoreKey};
use serde::json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique store directory per test (tests in one binary share a pid).
fn fresh_store_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pt-serve-wire-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn error_kind(response: &Value) -> Option<&str> {
    response
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Value::as_str)
}

/// One piece of a generated string: the characters it adds, and how a
/// JSON encoder other than ours might write them. Pieces cover ASCII
/// runs, the two bytes that end a run (`"` and `\`), control characters,
/// 2-, 3- and 4-byte UTF-8, and `\u` escapes including surrogate pairs.
fn piece(token: u32) -> (&'static str, &'static str) {
    match token {
        0 => ("run", "run"),
        1 => ("\"", "\\\""),
        2 => ("\\", "\\\\"),
        3 => ("\n", "\\n"),
        4 => ("\u{1}", "\\u0001"),
        5 => ("\u{1f}", "\\u001F"),
        6 => ("é", "é"),
        7 => ("€", "€"),
        8 => ("😀", "😀"),
        9 => ("😀", "\\ud83d\\ude00"),
        10 => ("€", "\\u20ac"),
        11 => ("/", "\\/"),
        12 => ("\u{10FFFF}", "\\uDBFF\\uDFFF"),
        _ => ("\t", "\\t"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Parsing inverts rendering, and also decodes the escapes our
    /// renderer never writes, wherever they fall relative to a run.
    #[test]
    fn json_strings_round_trip(tokens in proptest::collection::vec(0u32..14, 0..48)) {
        let mut s = String::new();
        let mut foreign = String::from("\"");
        for &t in &tokens {
            let (chars, encoded) = piece(t);
            s.push_str(chars);
            foreign.push_str(encoded);
        }
        foreign.push('"');
        let rendered = Value::str(s.as_str()).render();
        prop_assert_eq!(Value::parse(&rendered).unwrap().as_str(), Some(s.as_str()));
        prop_assert_eq!(Value::parse(&foreign).unwrap().as_str(), Some(s.as_str()), "{}", foreign);
    }
}

#[test]
fn a_one_mebibyte_request_line_parses_in_under_a_second() {
    // Module text has a newline escape every few dozen bytes, so the
    // string is many short runs, not one long one.
    let unit = pt_server::demo_module_text();
    let text = unit.repeat((1 << 20) / unit.len() + 1);
    let line = request_envelope(
        1,
        "submit_module",
        Value::obj(vec![("text", Value::str(text.as_str()))]),
    )
    .render();
    assert!(line.len() > 1 << 20);
    let started = std::time::Instant::now();
    let request = parse_request(&line).expect("parses");
    let elapsed = started.elapsed();
    assert_eq!(
        request.params.get("text").and_then(Value::as_str),
        Some(text.as_str())
    );
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "parsing a {} byte line took {elapsed:?}",
        line.len()
    );
}

/// Well-formed request lines the mutation fuzzer starts from: a cheap
/// method, a store lookup, a module submission and a real taint run.
fn seed_lines(state: &ServerState) -> Vec<String> {
    let demo = pt_server::demo_module_text();
    let submit = request_envelope(
        3,
        "submit_module",
        Value::obj(vec![("text", Value::str(demo.as_str()))]),
    );
    let submitted = handle_line(state, &submit.render());
    let module = submitted
        .get("result")
        .and_then(|r| r.get("module"))
        .cloned()
        .expect("demo module submits");
    vec![
        request_envelope(1, "stats", Value::Obj(Vec::new())).render(),
        request_envelope(
            2,
            "static_analysis",
            Value::obj(vec![
                ("module", module.clone()),
                ("entry", Value::str("main")),
            ]),
        )
        .render(),
        submit.render(),
        request_envelope(
            4,
            "taint_run",
            Value::obj(vec![
                ("module", module),
                ("entry", Value::str("main")),
                (
                    "params",
                    Value::obj(vec![("n", Value::int(6)), ("p", Value::int(4))]),
                ),
            ]),
        )
        .render(),
    ]
}

/// Answer `line` in process and check the envelope: well-formed, and a
/// `bad_request` whenever the line is not a valid request.
fn assert_answered(state: &ServerState, line: &str) {
    let response = handle_line(state, line);
    assert_eq!(response.get("v").and_then(Value::as_u64), Some(1), "{line}");
    let ok = response.get("ok").and_then(Value::as_bool);
    assert!(ok.is_some(), "{line} -> {}", response.render());
    if parse_request(line).is_err() {
        assert_eq!(ok, Some(false), "{line}");
        assert_eq!(error_kind(&response), Some("bad_request"), "{line}");
    }
    // The response is itself a line the client can read back.
    let rendered = response.render();
    assert!(!rendered.contains('\n'));
    assert_eq!(Value::parse(&rendered).expect("response parses"), response);
}

#[test]
fn mutated_request_lines_get_error_envelopes_not_panics() {
    // The `proptest!` macro's cases cannot borrow the server state this
    // test owns, so the loop is written out: same seeded sampling, and
    // the store is removed afterwards.
    let dir = fresh_store_dir("mutate");
    let state = ServerState::new(Store::open(&dir).expect("store"), 1, 4);
    let seeds = seed_lines(&state);
    let mut rng = TestRng::from_name("wire::mutated_request_lines");
    for _ in 0..768 {
        let seed = &seeds[(0..seeds.len()).sample(&mut rng)];
        let mut bytes = seed.clone().into_bytes();
        let at = (0..bytes.len()).sample(&mut rng);
        let byte = (1u8..=255).sample(&mut rng);
        match (0u8..4).sample(&mut rng) {
            0 => bytes[at] ^= byte,
            1 => bytes.truncate(at),
            2 => bytes.insert(at, byte),
            _ => {
                bytes.remove(at);
            }
        }
        // Bytes that are not UTF-8 never reach `handle_line` (the
        // connection loop answers them itself; see the live test).
        assert_answered(&state, &String::from_utf8_lossy(&bytes));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// JSON values of every type, including numbers past u64's range and
/// past f64's, for the envelope fields to be filled with.
const ODD_VALUES: &[&str] = &[
    "\"1\"",
    "true",
    "null",
    "[1]",
    "{\"v\":1}",
    "-1",
    "1.5",
    "1e999",
    "-1e999",
    "18446744073709551616",
    "123456789012345678901234567890123456789012345678901234567890",
    "\"stats\\u0000\"",
];

#[test]
fn wrong_field_types_are_bad_requests() {
    // `v`, `method` and `params` of the wrong type, or `v` out of range,
    // are `bad_request`. `id` may be any JSON value and is echoed back as
    // sent.
    let dir = fresh_store_dir("types");
    let state = ServerState::new(Store::open(&dir).expect("store"), 1, 4);
    // A string `method` or an object `params` has the right type.
    let right_type = |field: &str, value: &str| match field {
        "method" => value.starts_with('"'),
        "params" => value.starts_with('{'),
        _ => false,
    };
    for field in ["v", "method", "params"] {
        for bad in ODD_VALUES.iter().filter(|v| !right_type(field, v)) {
            for id in ODD_VALUES {
                let line = [
                    ("v", "1"),
                    ("id", id),
                    ("method", "\"stats\""),
                    ("params", "{}"),
                ]
                .iter()
                .map(|&(k, v)| format!("\"{k}\":{}", if k == field { bad } else { v }))
                .collect::<Vec<_>>()
                .join(",");
                let line = format!("{{{line}}}");
                // Rejected while decoding the envelope, before dispatch.
                assert!(parse_request(&line).is_err(), "{line}");
                let response = handle_line(&state, &line);
                assert_eq!(error_kind(&response), Some("bad_request"), "{line}");
                let sent_id = Value::parse(id).expect("valid JSON").render();
                assert_eq!(response.get("id").map(Value::render), Some(sent_id));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_duplicate_function_name_is_a_parse_error() {
    let dir = fresh_store_dir("duplicate");
    let state = ServerState::new(Store::open(&dir).expect("store"), 1, 4);
    let text = "func @f() -> void {\nbb0:\n  ret\n}\nfunc @f() -> void {\nbb0:\n  ret\n}\n";
    let line = request_envelope(
        1,
        "submit_module",
        Value::obj(vec![("text", Value::str(text))]),
    );
    let response = handle_line(&state, &line.render());
    assert_eq!(
        error_kind(&response),
        Some("parse"),
        "{}",
        response.render()
    );
    let message = response
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Value::as_str)
        .unwrap_or_default();
    assert!(
        message.contains("line 5"),
        "names the second definition: {message}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// IR that parses but does not verify: the loop header's phi has no
/// incoming value for the back edge from `bb2`.
const UNVERIFIED_TEXT: &str = "func @main(%n: i64) -> void {
bb0:
  br bb1
bb1:
  %0 = phi i64 [bb0 -> 0]
  %1 = cmp lt %0, %n
  cond_br %1, bb2, bb3
bb2:
  %3 = add %0, 1
  br bb1
bb3:
  ret
}
";

fn error_message(response: &Value) -> &str {
    response
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Value::as_str)
        .unwrap_or_default()
}

#[test]
fn unverified_ir_is_a_config_error_naming_the_first_issue() {
    let dir = fresh_store_dir("unverified");
    let state = ServerState::new(Store::open(&dir).expect("store"), 1, 4);
    let line = request_envelope(
        1,
        "submit_module",
        Value::obj(vec![("text", Value::str(UNVERIFIED_TEXT))]),
    );
    let response = handle_line(&state, &line.render());
    assert_eq!(
        error_kind(&response),
        Some("config"),
        "{}",
        response.render()
    );
    let message = error_message(&response);
    assert!(
        message.starts_with("invalid configuration: module failed verification: main: phi in bb1")
            && message.ends_with("(1 issue(s) total)"),
        "{message}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_stored_module_that_fails_verification_is_an_error_not_a_panic() {
    let dir = fresh_store_dir("stored-unverified");
    let store = Store::open(&dir).expect("store");
    // Plant the text under the key a submission of it would have had.
    let key = StoreKey::module(UNVERIFIED_TEXT);
    store
        .put(key.kind, &key.hash, UNVERIFIED_TEXT)
        .expect("plant");
    let state = ServerState::new(store, 1, 4);
    let line = request_envelope(
        1,
        "static_analysis",
        Value::obj(vec![
            ("module", Value::str(&key.hash)),
            ("entry", Value::str("main")),
        ]),
    );
    let response = handle_line(&state, &line.render());
    assert_eq!(
        response.get("ok").and_then(Value::as_bool),
        Some(false),
        "{}",
        response.render()
    );
    let message = error_message(&response);
    assert!(!message.contains("panicked"), "{message}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_connection_serves_valid_requests_after_malformed_ones() {
    let store_dir = fresh_store_dir("live");
    let server = Server::bind(&ServerConfig::loopback(&store_dir, 1)).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));

    let stream = TcpStream::connect(addr).expect("connect");
    // A server that stops answering fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut exchange = |line: &[u8]| -> Value {
        writer.write_all(&[line, b"\n"].concat()).expect("send");
        let mut response = String::new();
        reader.read_line(&mut response).expect("response");
        Value::parse(response.trim_end()).expect("response parses")
    };
    // Not UTF-8, truncated, wrong `v` type, oversized numbers, and a
    // nesting depth that would overflow a recursive parser's stack.
    let deep = "[".repeat(1 << 20);
    let malformed: [&[u8]; 6] = [
        b"{\"v\":1,\"id\":1,\"method\":\"st\xffats\"}",
        b"{\"v\":1,\"id\":2,\"method\":\"sta",
        b"{\"v\":\"1\",\"id\":3,\"method\":\"stats\"}",
        b"{\"v\":1,\"id\":4,\"method\":\"stats\",\"params\":1e999}",
        b"{\"v\":1e999,\"id\":5,\"method\":\"stats\"}",
        deep.as_bytes(),
    ];
    for line in malformed {
        let response = exchange(line);
        let shown = String::from_utf8_lossy(&line[..line.len().min(64)]);
        assert_eq!(error_kind(&response), Some("bad_request"), "{shown}");
    }
    let response = exchange(br#"{"v":1,"id":6,"method":"stats"}"#);
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(response.get("id").and_then(Value::as_u64), Some(6));
    let response = exchange(br#"{"v":1,"id":7,"method":"shutdown"}"#);
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(true));
    handle.join().expect("server exits");
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn stats_and_metrics_report_minor_10_and_a_session_cache_of_entries_only() {
    let dir = fresh_store_dir("minor");
    let state = ServerState::new(Store::open(&dir).expect("store"), 1, 4);
    let submit = request_envelope(
        1,
        "submit_module",
        Value::obj(vec![("text", Value::str(pt_server::demo_module_text()))]),
    );
    let submitted = handle_line(&state, &submit.render());
    let module = submitted
        .get("result")
        .and_then(|r| r.get("module"))
        .and_then(Value::as_str)
        .expect("module key")
        .to_string();
    let run = request_envelope(
        2,
        "static_analysis",
        Value::obj(vec![
            ("module", Value::str(&module)),
            ("entry", Value::str("main")),
        ]),
    );
    let analysed = handle_line(&state, &run.render());
    assert_eq!(analysed.get("ok").and_then(Value::as_bool), Some(true));
    for (id, method) in [(3, "stats"), (4, "metrics")] {
        let response = handle_line(
            &state,
            &request_envelope(id, method, Value::Obj(Vec::new())).render(),
        );
        let result = response.get("result").expect("result");
        assert_eq!(
            result.get("protocol_minor").and_then(Value::as_u64),
            Some(10),
            "{method}"
        );
        assert_eq!(
            result.get("session_cache").map(Value::render),
            Some(r#"{"entries":1}"#.to_string()),
            "{method}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A branch to `bb4294967295` once made the parser grow ~4.3 billion
/// blocks before the verifier could reject the module; it is a located
/// parse error now, and the server keeps answering.
#[test]
fn a_label_past_the_defined_ones_is_a_parse_error() {
    let dir = fresh_store_dir("hostile-label");
    let state = ServerState::new(Store::open(&dir).expect("store"), 1, 4);
    let text = "func @main() -> void {\nbb0:\n  br bb4294967295\n}\n";
    let line = request_envelope(
        1,
        "submit_module",
        Value::obj(vec![("text", Value::str(text))]),
    );
    let response = handle_line(&state, &line.render());
    assert_eq!(
        error_kind(&response),
        Some("parse"),
        "{}",
        response.render()
    );
    assert!(
        error_message(&response).contains("line 3"),
        "{}",
        response.render()
    );
    let stats = handle_line(
        &state,
        &request_envelope(2, "stats", Value::Obj(Vec::new())).render(),
    );
    assert_eq!(stats.get("ok").and_then(Value::as_bool), Some(true));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The session cache keys a served module by the hash of its text: the
/// same text submitted twice shares one slot, and a variant that differs
/// only in whitespace gets a slot of its own with the same summary bytes.
#[test]
fn session_slots_follow_the_submitted_text() {
    let dir = fresh_store_dir("slots");
    let state = ServerState::new(Store::open(&dir).expect("store"), 1, 4);
    let mut id = 0;
    let mut call = |method: &str, params: Value| {
        id += 1;
        let response = handle_line(&state, &request_envelope(id, method, params).render());
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "{}",
            response.render()
        );
        response.get("result").cloned().expect("result")
    };
    let mut summary_of = |text: &str| {
        let submitted = call(
            "submit_module",
            Value::obj(vec![("text", Value::str(text))]),
        );
        let module = submitted.get("module").and_then(Value::as_str).unwrap();
        let summary = call(
            "static_analysis",
            Value::obj(vec![
                ("module", Value::str(module)),
                ("entry", Value::str("main")),
            ]),
        );
        let stats = call("stats", Value::Obj(Vec::new()));
        let entries = stats
            .get("session_cache")
            .and_then(|c| c.get("entries"))
            .and_then(Value::as_u64);
        (summary.render(), entries)
    };
    let text = pt_server::demo_module_text();
    let (first, entries) = summary_of(&text);
    assert_eq!(entries, Some(1));
    let (again, entries) = summary_of(&text);
    assert_eq!(again, first);
    assert_eq!(entries, Some(1), "the same text shares its slot");
    let spaced = text.replace('\n', "  \n");
    let (variant, entries) = summary_of(&spaced);
    assert_eq!(variant, first, "whitespace changes no summary byte");
    assert_eq!(entries, Some(2), "a different text gets its own slot");
    let _ = std::fs::remove_dir_all(&dir);
}
