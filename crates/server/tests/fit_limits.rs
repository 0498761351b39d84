//! `fit_model` bounds the work one request can ask for: past
//! `MAX_FIT_PARAMS` parameters or `MAX_FIT_POINTS` points it answers
//! `bad_request` naming the limit, before any search runs. Without the
//! bound, a 5-parameter star design alone asks for 523,777 hypotheses.

use pt_server::{ServerState, Store, MAX_FIT_PARAMS, MAX_FIT_POINTS};
use serde::json::Value;
use std::path::PathBuf;

fn state(tag: &str) -> (ServerState, PathBuf) {
    let dir = std::env::temp_dir().join(format!("pt-serve-fit-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let state = ServerState::new(Store::open(&dir).expect("store opens"), 1, 4);
    (state, dir)
}

/// A `fit_model` request over `coords`, one noisy repetition per point.
fn request(nparams: usize, coords: &[Vec<f64>]) -> Value {
    let names = (0..nparams).map(|k| Value::str(format!("x{k}"))).collect();
    let points = coords
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let y = 1.0 + c.iter().sum::<f64>() * (1.0 + 0.01 * (i % 3) as f64);
            Value::obj(vec![
                (
                    "coords",
                    Value::Arr(c.iter().map(|&x| Value::Num(x)).collect()),
                ),
                ("reps", Value::Arr(vec![Value::Num(y)])),
            ])
        })
        .collect();
    Value::obj(vec![
        ("param_names", Value::Arr(names)),
        ("points", Value::Arr(points)),
    ])
}

/// Each parameter varied alone over {2, 4, 8}, the others at 2.
fn star(nparams: usize) -> Vec<Vec<f64>> {
    let mut coords = vec![vec![2.0; nparams]];
    for k in 0..nparams {
        for x in [4.0, 8.0] {
            let mut c = vec![2.0; nparams];
            c[k] = x;
            coords.push(c);
        }
    }
    coords
}

fn line(n: usize) -> Vec<Vec<f64>> {
    (0..n).map(|i| vec![1.0 + i as f64]).collect()
}

fn rejection(state: &ServerState, params: &Value) -> String {
    match state.dispatch("fit_model", params) {
        Ok(v) => panic!("over-limit fit was served: {}", v.render()),
        Err(e) => {
            assert_eq!(e.kind(), "bad_request", "{}", e.message());
            e.message()
        }
    }
}

#[test]
fn too_many_parameters_is_a_bad_request_naming_the_limit() {
    let (state, dir) = state("params");
    let coords = star(MAX_FIT_PARAMS);
    let fitted = state
        .dispatch("fit_model", &request(MAX_FIT_PARAMS, &coords))
        .expect("a fit at the parameter limit is served");
    assert_eq!(fitted.get("hypotheses").and_then(Value::as_u64), Some(2017));
    for nparams in [MAX_FIT_PARAMS + 1, 5] {
        let message = rejection(&state, &request(nparams, &star(nparams)));
        assert!(
            message.contains(&format!("at most {MAX_FIT_PARAMS} parameters")),
            "{message}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn too_many_points_is_a_bad_request_naming_the_limit() {
    let (state, dir) = state("points");
    state
        .dispatch("fit_model", &request(1, &line(MAX_FIT_POINTS)))
        .expect("a fit at the point limit is served");
    let message = rejection(&state, &request(1, &line(MAX_FIT_POINTS + 1)));
    assert!(
        message.contains(&format!("at most {MAX_FIT_POINTS} points")),
        "{message}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
