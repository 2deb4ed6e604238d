//! Declarative serving scenarios: workload shapes as data, not code.
//!
//! A scenario file is INI-flavoured (`[section]` headers, `key = value`
//! lines, `#` comments) in the style molecular-simulation packages use
//! for their input decks — new traffic shapes are a config file, not a
//! recompile. Three sections:
//!
//! ```text
//! [store]                 # table geometry and request cost
//! keys = 16384
//! shards = 16
//! theta = 0.99
//! write_mix = 0.2
//! service_flops = 200
//!
//! [traffic]               # the open-loop generator
//! rate_rps = 50000
//! duration_ms = 200
//! sweep = 20000, 40000, 80000   # optional saturation ladder
//!
//! [system]                # topology and policy knobs
//! nodes = 4
//! threads = 2
//! local_grant_cap = 0
//! seed = 42
//! ```
//!
//! Unknown keys are errors (a typo silently ignored is a wrong
//! experiment); missing keys keep their defaults.

use super::KvConfig;

/// A complete serving experiment: workload + topology + rate ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeScenario {
    /// Scenario name (file stem or builtin name), used in artifacts.
    pub name: String,
    /// Store shape and base offered load.
    pub kv: KvConfig,
    /// Node count.
    pub nodes: usize,
    /// Threads per node.
    pub threads: usize,
    /// Lock-fairness cap (0 = the paper's unbounded local preference).
    pub local_grant_cap: u32,
    /// Master seed.
    pub seed: u64,
    /// Saturation-sweep rate ladder (requests/s); empty = single run at
    /// `kv.rate_rps`.
    pub sweep: Vec<f64>,
}

impl ServeScenario {
    /// The named builtin, if any: `smoke` (seconds-scale) or `session`
    /// (the default session-store shape).
    pub fn builtin(name: &str) -> Option<ServeScenario> {
        match name {
            "smoke" => Some(ServeScenario {
                name: "smoke".into(),
                kv: KvConfig::smoke(),
                nodes: 2,
                threads: 2,
                local_grant_cap: 0,
                seed: 42,
                sweep: Vec::new(),
            }),
            "session" => Some(ServeScenario {
                name: "session".into(),
                kv: KvConfig::small(),
                nodes: 4,
                threads: 2,
                local_grant_cap: 0,
                seed: 42,
                // The committed saturation ladder: brackets the
                // coherence-bound knee of the 4×2 session store.
                sweep: vec![500.0, 1000.0, 1500.0, 2000.0, 3000.0, 4000.0],
            }),
            _ => None,
        }
    }

    /// Checks the values a deck or a command line supplied.
    ///
    /// # Errors
    ///
    /// Names the field and the offending value: anything
    /// [`KvConfig::validate`] rejects, an empty topology, or a sweep rate
    /// that is not positive and finite.
    pub fn validate(&self) -> Result<(), String> {
        self.kv.validate()?;
        if self.nodes == 0 {
            return Err("nodes must be positive".into());
        }
        if self.threads == 0 {
            return Err("threads must be positive".into());
        }
        match self.sweep.iter().find(|r| !(r.is_finite() && **r > 0.0)) {
            Some(r) => Err(format!("sweep rates must be positive and finite, got {r}")),
            None => Ok(()),
        }
    }

    /// Names of the builtins, for usage text.
    pub const BUILTINS: [&'static str; 2] = ["smoke", "session"];

    /// Parses a scenario file's text; `name` labels the result (callers
    /// pass the file stem).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for malformed syntax,
    /// unknown sections/keys, or unparsable values, and one naming the
    /// field for a value [`validate`](Self::validate) rejects.
    pub fn parse(name: &str, text: &str) -> Result<ServeScenario, String> {
        let mut sc = ServeScenario::builtin("session").expect("builtin exists");
        sc.name = name.to_string();
        // A file sweeps only when it says so; everything else keeps the
        // session defaults.
        sc.sweep = Vec::new();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let at = |msg: String| format!("line {}: {msg}", idx + 1);
            if let Some(head) = line.strip_prefix('[') {
                let head = head
                    .strip_suffix(']')
                    .ok_or_else(|| at(format!("unterminated section header {line:?}")))?;
                if !["store", "traffic", "system"].contains(&head) {
                    return Err(at(format!("unknown section [{head}]")));
                }
                section = head.to_string();
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| at(format!("expected key = value, got {line:?}")))?;
            let (key, value) = (key.trim(), value.trim());
            let parse_f64 = || -> Result<f64, String> {
                value
                    .parse::<f64>()
                    .map_err(|e| at(format!("bad number {value:?} for {key}: {e}")))
            };
            let parse_usize = || -> Result<usize, String> {
                value
                    .parse::<usize>()
                    .map_err(|e| at(format!("bad integer {value:?} for {key}: {e}")))
            };
            match (section.as_str(), key) {
                ("store", "keys") => sc.kv.keys = parse_usize()?,
                ("store", "shards") => sc.kv.shards = parse_usize()?,
                ("store", "theta") => sc.kv.theta = parse_f64()?,
                ("store", "write_mix") => sc.kv.write_mix = parse_f64()?,
                ("store", "service_flops") => sc.kv.service_flops = parse_usize()? as u64,
                ("traffic", "rate_rps") => sc.kv.rate_rps = parse_f64()?,
                ("traffic", "duration_ms") => sc.kv.duration_ms = parse_usize()? as u64,
                ("traffic", "sweep") => {
                    sc.sweep = value
                        .split(',')
                        .map(|s| {
                            s.trim()
                                .parse::<f64>()
                                .map_err(|e| at(format!("bad sweep rate {s:?}: {e}")))
                        })
                        .collect::<Result<_, _>>()?;
                }
                ("system", "nodes") => sc.nodes = parse_usize()?,
                ("system", "threads") => sc.threads = parse_usize()?,
                ("system", "local_grant_cap") => sc.local_grant_cap = parse_usize()? as u32,
                ("system", "seed") => sc.seed = parse_usize()? as u64,
                ("", _) => return Err(at(format!("key {key:?} before any [section]"))),
                (s, k) => return Err(at(format!("unknown key {k:?} in section [{s}]"))),
            }
        }
        sc.validate()?;
        Ok(sc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_validate() {
        for name in ServeScenario::BUILTINS {
            let sc = ServeScenario::builtin(name).expect("builtin");
            assert_eq!(sc.validate(), Ok(()));
            assert_eq!(sc.name, name);
        }
        assert!(ServeScenario::builtin("nope").is_none());
    }

    #[test]
    fn full_file_round_trips() {
        let text = "\
# a comment
[store]
keys = 8192
shards = 4
theta = 0.8       # trailing comment
write_mix = 0.5
service_flops = 100

[traffic]
rate_rps = 12500
duration_ms = 75
sweep = 1000, 2000, 4000

[system]
nodes = 3
threads = 2
local_grant_cap = 4
seed = 7
";
        let sc = ServeScenario::parse("t", text).expect("parses");
        assert_eq!(sc.kv.keys, 8192);
        assert_eq!(sc.kv.shards, 4);
        assert_eq!(sc.kv.theta, 0.8);
        assert_eq!(sc.kv.write_mix, 0.5);
        assert_eq!(sc.kv.service_flops, 100);
        assert_eq!(sc.kv.rate_rps, 12500.0);
        assert_eq!(sc.kv.duration_ms, 75);
        assert_eq!(sc.sweep, vec![1000.0, 2000.0, 4000.0]);
        assert_eq!((sc.nodes, sc.threads), (3, 2));
        assert_eq!(sc.local_grant_cap, 4);
        assert_eq!(sc.seed, 7);
    }

    #[test]
    fn partial_file_keeps_defaults() {
        let sc = ServeScenario::parse("p", "[traffic]\nrate_rps = 100\n").expect("parses");
        let base = ServeScenario::builtin("session").unwrap();
        assert_eq!(sc.kv.rate_rps, 100.0);
        assert_eq!(sc.kv.keys, base.kv.keys, "unset keys keep defaults");
        assert!(sc.sweep.is_empty(), "a file sweeps only when it says so");
    }

    #[test]
    fn unknown_key_is_an_error_with_line_number() {
        let err = ServeScenario::parse("e", "[store]\nkeyz = 10\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("keyz"), "{err}");
    }

    #[test]
    fn key_outside_section_is_an_error() {
        assert!(ServeScenario::parse("e", "keys = 10\n").is_err());
    }

    #[test]
    fn unknown_section_is_an_error() {
        assert!(ServeScenario::parse("e", "[stor]\nkeys = 10\n").is_err());
    }
}
