//! A served edit loop answers exactly what a fresh server would. One
//! server takes a sequence of resubmissions through `handle_line`:
//! constant edits of a 32-kernel module, of mini-MILC and of mini-LULESH,
//! a signature change, an added function, a renamed function, and
//! invalid edits followed by valid ones. Every `static_analysis` answer
//! must equal the bytes a fresh server computes cold for the same text,
//! and every rejected edit must come back as the same pinned error
//! envelope, whatever the server saw before.

use pt_server::protocol::request_envelope;
use pt_server::{handle_line, ArtifactKind, ServerState, Store};
use serde::json::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Kernels in the edit module.
const KERNELS: usize = 32;

/// `KERNELS` loop kernels called from `main`; `edits` overrides kernel
/// work constants.
fn edit_module(edits: &[(usize, i64)]) -> String {
    use pt_ir::{FunctionBuilder, Module, Type, Value as IrValue};
    let mut m = Module::new("edit_app");
    let mut ids = Vec::new();
    for i in 0..KERNELS {
        let flops = edits
            .iter()
            .rev()
            .find(|&&(k, _)| k == i)
            .map_or(3 + (i as i64 % 7), |&(_, v)| v);
        let mut b = FunctionBuilder::new(
            format!("work_{i:03}"),
            vec![("n".into(), Type::I64)],
            Type::Void,
        );
        b.for_loop(0i64, b.param(0), 1i64, |b, _| {
            b.call_external("pt_work_flops", vec![IrValue::int(flops)], Type::Void);
        });
        b.ret(None);
        ids.push(m.add_function(b.finish()));
    }
    let mut b = FunctionBuilder::new("main", vec![], Type::Void);
    let n = b.call_external("pt_param_i64", vec![IrValue::int(0)], Type::I64);
    for &f in &ids {
        b.call(f, vec![n], Type::Void);
    }
    b.ret(None);
    m.add_function(b.finish());
    pt_ir::printer::print_module(&m)
}

/// `text` with the `nth` `@pt_work_flops(K)` constant set to `value`.
fn set_flops(text: &str, nth: usize, value: i64) -> String {
    const CALL: &str = "@pt_work_flops(";
    let (at, _) = text
        .match_indices(CALL)
        .nth(nth)
        .expect("enough work calls");
    let digits = at + CALL.len();
    let end = digits + text[digits..].find(')').expect("closing paren");
    assert!(text[digits..end].bytes().all(|b| b.is_ascii_digit()));
    format!("{}{value}{}", &text[..digits], &text[end..])
}

/// `text` with the first occurrence of `from` replaced by `to`.
fn replace_once(text: &str, from: &str, to: &str) -> String {
    assert!(text.contains(from), "missing {from:?}");
    text.replacen(from, to, 1)
}

fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "pt-served-edits-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One server on its own store, driven through `handle_line`.
struct Served {
    state: ServerState,
    dir: PathBuf,
    next_id: u64,
}

impl Served {
    fn open(tag: &str) -> Served {
        let dir = fresh_dir(tag);
        let state = ServerState::new(Store::open(&dir).expect("store opens"), 1, 4);
        Served {
            state,
            dir,
            next_id: 1,
        }
    }

    /// The whole response envelope of one request.
    fn call(&mut self, method: &str, params: Value) -> Value {
        self.next_id += 1;
        let line = request_envelope(self.next_id, method, params).render();
        handle_line(&self.state, &line)
    }

    /// Submit `text`: the module key, or the error as `(kind, message)`.
    fn submit(&mut self, text: &str) -> Result<String, (String, String)> {
        let response = self.call(
            "submit_module",
            Value::obj(vec![("text", Value::str(text))]),
        );
        if response.get("ok").and_then(Value::as_bool) == Some(true) {
            let key = response.get("result").and_then(|r| r.get("module"));
            return Ok(key.and_then(Value::as_str).expect("module key").to_string());
        }
        let error = response.get("error").expect("error object");
        let field = |name: &str| {
            error
                .get(name)
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string()
        };
        Err((field("kind"), field("message")))
    }

    /// The rendered `static_analysis` result for `module`'s `main`.
    fn static_bytes(&mut self, module: &str) -> String {
        let response = self.call(
            "static_analysis",
            Value::obj(vec![
                ("module", Value::str(module)),
                ("entry", Value::str("main")),
            ]),
        );
        response
            .get("result")
            .unwrap_or_else(|| panic!("static_analysis failed: {}", response.render()))
            .render()
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The static answer a fresh server gives for `text`, cold.
fn cold_static(text: &str) -> String {
    let mut fresh = Served::open("fresh");
    let key = fresh.submit(text).expect("fresh server accepts the text");
    fresh.static_bytes(&key)
}

/// Submit `text` to the served loop and check its static answer against a
/// fresh server's.
fn assert_served_like_fresh(served: &mut Served, text: &str, what: &str) {
    let key = served
        .submit(text)
        .unwrap_or_else(|e| panic!("{what}: rejected: {e:?}"));
    assert_eq!(served.static_bytes(&key), cold_static(text), "{what}");
}

#[test]
fn served_edits_of_the_kernel_module_equal_a_fresh_server() {
    let mut served = Served::open("kernels");
    let base = edit_module(&[]);
    assert_served_like_fresh(&mut served, &base, "base");
    let mut edits = Vec::new();
    for (kernel, value) in [(5, 100), (17, 101), (5, 102), (31, 103), (0, 104)] {
        edits.push((kernel, value));
        assert_served_like_fresh(
            &mut served,
            &edit_module(&edits),
            &format!("kernel {kernel} := {value}"),
        );
    }
    let current = edit_module(&edits);

    // A signature change: one more parameter, passed at the call site.
    let signature = replace_once(
        &replace_once(
            &current,
            "func @work_004(%n: i64)",
            "func @work_004(%n: i64, %k: i64)",
        ),
        "call void @work_004(%0)",
        "call void @work_004(%0, %0)",
    );
    assert_served_like_fresh(&mut served, &signature, "signature change");

    // An added function, then a constant edit next to it.
    let added = format!(
        "{signature}\nfunc @extra(%n: i64) -> i64 {{\nbb0:\n  %0 = mul %n, 2\n  ret %0\n}}\n"
    );
    assert_served_like_fresh(&mut served, &added, "added function");
    let added_edit = set_flops(&added, 12, 205);
    assert_served_like_fresh(&mut served, &added_edit, "edit after an added function");

    // A renamed function: its header and its call site.
    let renamed = added_edit.replace("@work_009(", "@work_009_renamed(");
    assert_served_like_fresh(&mut served, &renamed, "renamed function");

    // An edit that does not parse, then one that does not verify; each is
    // rejected with the message a fresh server gives, and the next valid
    // edit is still served like a fresh server.
    let unparsable = replace_once(&renamed, "  %3 = add %0, 1\n", "  %3 = bogus %0, 1\n");
    let error = served.submit(&unparsable).unwrap_err();
    assert_eq!(
        error,
        (
            "parse".to_string(),
            "IR parse error: line 11: unknown instruction bogus".to_string()
        )
    );
    assert_eq!(
        Served::open("fresh").submit(&unparsable).unwrap_err(),
        error
    );
    let valid = set_flops(&renamed, 3, 301);
    assert_served_like_fresh(&mut served, &valid, "valid edit after a parse error");

    let unverifiable = replace_once(
        &set_flops(&valid, 20, 302),
        "call void @work_010(%0)",
        "call void @work_010()",
    );
    let error = served.submit(&unverifiable).unwrap_err();
    assert_eq!(
        error,
        (
            "config".to_string(),
            "invalid configuration: module failed verification: main: call arity: \
             work_010 expects 1, got 0 (1 issue(s) total)"
                .to_string()
        )
    );
    assert_eq!(
        Served::open("fresh").submit(&unverifiable).unwrap_err(),
        error
    );
    let valid = set_flops(&valid, 20, 303);
    assert_served_like_fresh(&mut served, &valid, "valid edit after a verify error");
}

#[test]
fn served_edits_of_the_apps_equal_a_fresh_server() {
    let mut served = Served::open("apps");
    for (name, app) in [
        ("milc", pt_apps::milc::build()),
        ("lulesh", pt_apps::lulesh::build()),
    ] {
        let base = pt_ir::printer::print_module(&app.module);
        assert_served_like_fresh(&mut served, &base, name);
        let first = set_flops(&base, 7, 91);
        assert_served_like_fresh(&mut served, &first, &format!("{name}: first edit"));
        let second = set_flops(&first, 150, 92);
        assert_served_like_fresh(&mut served, &second, &format!("{name}: second edit"));
        let both = set_flops(&set_flops(&second, 0, 93), 200, 94);
        assert_served_like_fresh(&mut served, &both, &format!("{name}: two functions"));
    }
}

/// Module keys are digests of the text; a key another encoding produced
/// (here: the FNV-1a key servers issued before) still names its stored
/// object, and the answers under it are a fresh server's.
#[test]
fn a_module_key_issued_under_the_old_encoding_still_resolves() {
    let text = edit_module(&[(3, 77)]);
    let old_key = "316823813aef8fa46e9571b86ff05299";
    let mut served = Served::open("old-key");
    served
        .state
        .store()
        .put(ArtifactKind::Modules, old_key, &text)
        .expect("store write");
    assert_eq!(served.static_bytes(old_key), cold_static(&text));
    // Resubmitting the text returns its key under the current encoding.
    let new_key = served.submit(&text).expect("submits");
    assert_ne!(new_key, old_key);
    assert_eq!(served.static_bytes(&new_key), cold_static(&text));
}
