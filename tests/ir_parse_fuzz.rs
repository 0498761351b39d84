//! Mutated IR text never panics the front end. Printed app and synth
//! modules get seeded byte flips, truncations, and line deletions,
//! duplications and swaps; `perf_taint::parse_module` (parse, then
//! verify) must return, and a parse error must name a line of the input
//! (or the one just past its end).

use perf_taint::PtError;
use proptest::prelude::*;
use pt_apps::synth::{generate, SynthConfig};
use pt_ir::printer::print_module;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// SplitMix64 for the mutation choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn app_texts() -> &'static [String] {
    static TEXTS: OnceLock<Vec<String>> = OnceLock::new();
    TEXTS.get_or_init(|| {
        [pt_apps::lulesh::build(), pt_apps::milc::build()]
            .iter()
            .map(|app| print_module(&app.module))
            .collect()
    })
}

fn synth_text(seed: u64) -> String {
    let cfg = SynthConfig {
        seed,
        num_params: 3,
        num_kernels: 3,
        max_depth: 3,
        param_values: vec![2, 3, 4],
    };
    print_module(&generate(&cfg).app.module)
}

/// Bytes that steer a flip toward the grammar's own tokens; the rest of a
/// flip's choices are arbitrary bytes.
const TOKEN_BYTES: &[u8] = b"0123456789%@,:;[]()*-> =.{}\n\tbefinr";

/// Apply 1–4 seeded mutations. Works on bytes, so a flip may split a
/// multi-byte character; the lossy decode turns that into U+FFFD.
fn mutate(text: &str, rng: &mut Rng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + rng.below(4) {
        if bytes.is_empty() {
            break;
        }
        let mut lines: Vec<Vec<u8>> = bytes.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
        match rng.below(6) {
            0 | 1 => {
                let at = rng.below(bytes.len());
                bytes[at] = if rng.below(2) == 0 {
                    TOKEN_BYTES[rng.below(TOKEN_BYTES.len())]
                } else {
                    rng.next() as u8
                };
                continue;
            }
            2 => {
                let at = rng.below(bytes.len());
                bytes.truncate(at);
                continue;
            }
            3 => {
                let at = rng.below(lines.len());
                lines.remove(at);
            }
            4 => {
                let at = rng.below(lines.len());
                let line = lines[at].clone();
                lines.insert(rng.below(lines.len() + 1), line);
            }
            _ => {
                let (a, b) = (rng.below(lines.len()), rng.below(lines.len()));
                lines.swap(a, b);
            }
        }
        bytes = lines.join(&b'\n');
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn check(text: &str, what: &str) {
    let outcome = catch_unwind(AssertUnwindSafe(|| perf_taint::parse_module(text)));
    let result = outcome.unwrap_or_else(|_| panic!("{what}: the front end panicked on\n{text}"));
    if let Err(PtError::Parse(e)) = result {
        let lines = text.lines().count();
        assert!(
            (1..=lines + 1).contains(&e.line),
            "{what}: error names line {} of {lines}: {e}\n{text}",
            e.line
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn mutated_synth_text_never_panics(seed in 0u64..10_000, mutation in 0u64..u64::MAX) {
        let text = synth_text(seed);
        let mut rng = Rng(mutation);
        check(&mutate(&text, &mut rng), &format!("synth seed {seed}, mutation {mutation}"));
    }

    #[test]
    fn mutated_app_text_never_panics(app in 0usize..2, mutation in 0u64..u64::MAX) {
        let text = &app_texts()[app];
        let mut rng = Rng(mutation);
        check(&mutate(text, &mut rng), &format!("app {app}, mutation {mutation}"));
    }
}
