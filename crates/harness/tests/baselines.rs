//! The committed baselines are virtual-time only — a checked property of
//! all six, not a convention the gate skips around: no host-time key, no
//! string leaf in a ladder rung, and each gates against itself.

use cvm_harness::cli::{gate_against, load_json};
use cvm_sim::json::JsonValue;

fn walk(v: &JsonValue, in_rung: bool, path: &str) {
    match v {
        JsonValue::Object(fields) => {
            for (k, child) in fields {
                assert!(!k.starts_with("host_"), "{path}: host-time key {k:?}");
                walk(child, in_rung || k == "rungs", path);
            }
        }
        JsonValue::Array(items) => items.iter().for_each(|i| walk(i, in_rung, path)),
        JsonValue::Str(text) => assert!(!in_rung, "{path}: string leaf {text:?} in a rung"),
        _ => {}
    }
}

#[test]
fn committed_baselines_are_virtual_time_only() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("baselines/") {
        let path = entry.expect("entry").path();
        let path = path.to_str().expect("utf-8 path");
        if !path.ends_with(".json") {
            continue;
        }
        let doc = load_json(path).expect("a baseline parses");
        walk(&doc, false, path);
        gate_against(path, &doc, 5.0).expect("a baseline gates against itself");
        seen += 1;
    }
    assert_eq!(seen, 6, "six gated artifacts");
}
