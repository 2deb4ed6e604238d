//! `cvm explain` — render causal span trees from a run report.
//!
//! Consumes the `spans` section of a `cvm run --spans --json FILE`
//! report and answers "where did the time go" interactively: the
//! whole-run critical path first, then indented causal trees — each
//! span with its wire/handler/protocol-wait/backoff split and its
//! per-hop timings, children nested under parents, retransmission
//! bursts as first-class nodes. Three selection modes:
//!
//! * `--slowest N` — the N slowest root spans (default 5),
//! * `--span ID` — one span, with its ancestor chain for context,
//! * `--resource page:17` — every root span about one resource.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cvm_sim::json::JsonValue;

use crate::cli::{load_json, Args, CliError};

/// Parses `cvm explain ARGS` into the report path and the selection.
pub fn parse(argv: &[String]) -> Result<(String, Mode), CliError> {
    let mut path: Option<String> = None;
    let mut mode = Mode::Slowest(5);
    let mut args = Args::new("explain", argv);
    args.each(|a| {
        match a.flag() {
            "--run" => path = Some(a.value()?),
            "--slowest" => mode = Mode::Slowest(a.value()?),
            "--span" => mode = Mode::Span(a.u64()?),
            "--resource" => mode = Mode::Resource(a.value()?),
            _ => return Err(a.unknown()),
        }
        Ok(())
    })?;
    let path = path.ok_or_else(|| args.usage("--run FILE is required"))?;
    Ok((path, mode))
}

/// Runs `cvm explain` over the report at `path`.
pub fn run((path, mode): (String, Mode)) -> Result<(), CliError> {
    let text = explain(&load_json(&path)?, &mode)
        .map_err(|e| CliError::Failed(format!("cvm explain: {e}")))?;
    print!("{text}");
    Ok(())
}

/// Which spans to render.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// The N slowest root spans.
    Slowest(usize),
    /// One span by id, with its ancestor chain.
    Span(u64),
    /// Every root span whose resource label matches (e.g. `page:17`).
    Resource(String),
}

/// One span row lifted out of the report JSON.
#[derive(Debug, Clone)]
struct Row {
    id: u64,
    parent: u64,
    kind: String,
    node: u64,
    resource: String,
    open_ns: u64,
    closed: bool,
    duration_ns: u64,
    hop_count: u64,
    wire_ns: u64,
    handler_ns: u64,
    wait_ns: u64,
    backoff_ns: u64,
    hops: Vec<Hop>,
}

#[derive(Debug, Clone)]
struct Hop {
    src: u64,
    dst: u64,
    kind: String,
    sent_ns: u64,
    tx_ns: u64,
    arrived_ns: u64,
    serviced_ns: u64,
    retries: u64,
}

/// The loaded forest: rows plus id and child indexes.
struct Forest {
    rows: Vec<Row>,
    by_id: BTreeMap<u64, usize>,
    children: BTreeMap<u64, Vec<u64>>,
}

fn get_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("span record missing numeric '{key}'"))
}

fn get_str(v: &JsonValue, key: &str) -> Result<String, String> {
    Ok(v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("span record missing string '{key}'"))?
        .to_owned())
}

impl Forest {
    fn load(spans: &JsonValue) -> Result<Forest, String> {
        let records = spans
            .get("records")
            .and_then(JsonValue::as_array)
            .ok_or("report has no spans.records — was the run made with --spans?")?;
        let mut rows = Vec::with_capacity(records.len());
        let mut by_id = BTreeMap::new();
        let mut children: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for rec in records {
            let seg = rec.get("segments").ok_or("span record missing segments")?;
            let mut hops = Vec::new();
            for h in rec.get("hops").and_then(JsonValue::as_array).unwrap_or(&[]) {
                hops.push(Hop {
                    src: get_u64(h, "src")?,
                    dst: get_u64(h, "dst")?,
                    kind: get_str(h, "kind")?,
                    sent_ns: get_u64(h, "sent_ns")?,
                    tx_ns: get_u64(h, "tx_ns")?,
                    arrived_ns: get_u64(h, "arrived_ns")?,
                    serviced_ns: get_u64(h, "serviced_ns")?,
                    retries: get_u64(h, "retries")?,
                });
            }
            let row = Row {
                id: get_u64(rec, "id")?,
                parent: get_u64(rec, "parent")?,
                kind: get_str(rec, "kind")?,
                node: get_u64(rec, "node")?,
                resource: get_str(rec, "resource")?,
                open_ns: get_u64(rec, "open_ns")?,
                closed: rec.get("closed").and_then(JsonValue::as_bool) == Some(true),
                duration_ns: get_u64(rec, "duration_ns")?,
                hop_count: get_u64(rec, "hop_count")?,
                wire_ns: get_u64(seg, "wire_ns")?,
                handler_ns: get_u64(seg, "handler_ns")?,
                wait_ns: get_u64(seg, "wait_ns")?,
                backoff_ns: get_u64(seg, "backoff_ns")?,
                hops,
            };
            by_id.insert(row.id, rows.len());
            if row.parent != 0 {
                children.entry(row.parent).or_default().push(row.id);
            }
            rows.push(row);
        }
        Ok(Forest {
            rows,
            by_id,
            children,
        })
    }

    fn row(&self, id: u64) -> Option<&Row> {
        self.by_id.get(&id).map(|&i| &self.rows[i])
    }

    /// Root ancestor chain of `id`, outermost first, `id` excluded. A
    /// parent id the report does not hold ends the chain.
    fn ancestors(&self, id: u64) -> Vec<&Row> {
        let mut chain = Vec::new();
        let mut cur = self.row(id).map_or(0, |r| r.parent);
        while let Some(r) = self.row(cur).filter(|_| cur != 0) {
            if chain.len() > self.rows.len() {
                break; // Defensive: corrupt parent links must not loop.
            }
            chain.push(r);
            cur = r.parent;
        }
        chain.reverse();
        chain
    }

    fn render_tree(&self, out: &mut String, id: u64, depth: usize) {
        let Some(r) = self.row(id) else { return };
        let pad = "  ".repeat(depth);
        let state = if r.closed { "" } else { "  [still open]" };
        let hopinfo = match (r.kind.as_str(), r.hop_count) {
            ("lock_acquire", n) if n > 0 => format!("  {n}-hop"),
            ("retransmit", n) if n > 0 => format!("  {n} retries"),
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "{pad}span {} {} {} node {} @{}: {}{}{}",
            r.id,
            r.kind,
            r.resource,
            r.node,
            fmt_ns(r.open_ns),
            fmt_ns(r.duration_ns),
            hopinfo,
            state,
        );
        let _ = writeln!(
            out,
            "{pad}  = wire {} + handler {} + wait {} + backoff {}",
            fmt_ns(r.wire_ns),
            fmt_ns(r.handler_ns),
            fmt_ns(r.wait_ns),
            fmt_ns(r.backoff_ns),
        );
        for h in &r.hops {
            let retry = if h.retries > 0 {
                format!(
                    "  ({} retries, backoff {})",
                    h.retries,
                    fmt_ns(h.tx_ns.saturating_sub(h.sent_ns))
                )
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "{pad}  hop {} {}->{} sent @{}: wire {} + handler {}{}",
                h.kind,
                h.src,
                h.dst,
                fmt_ns(h.sent_ns),
                fmt_ns(h.arrived_ns.saturating_sub(h.tx_ns)),
                fmt_ns(h.serviced_ns.saturating_sub(h.arrived_ns)),
                retry,
            );
        }
        if let Some(kids) = self.children.get(&id) {
            for &kid in kids {
                self.render_tree(out, kid, depth + 1);
            }
        }
    }
}

/// Formats nanoseconds with a unit that keeps 3-4 significant digits.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn render_critical_path(out: &mut String, spans: &JsonValue) {
    let Some(cp) = spans.get("critical_path") else {
        return;
    };
    let total = cp.get("total_ns").and_then(JsonValue::as_u64).unwrap_or(0);
    let compute = cp
        .get("compute_ns")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    let _ = writeln!(out, "critical path over {} wall time:", fmt_ns(total));
    let pct = |ns: u64| {
        if total == 0 {
            0.0
        } else {
            ns as f64 / total as f64 * 100.0
        }
    };
    if let Some(JsonValue::Object(kinds)) = cp.get("kinds") {
        for (kind, ns) in kinds {
            let ns = ns.as_u64().unwrap_or(0);
            if ns > 0 {
                let _ = writeln!(out, "  {kind:<14} {:>10}  ({:.1}%)", fmt_ns(ns), pct(ns));
            }
        }
    }
    let _ = writeln!(
        out,
        "  {:<14} {:>10}  ({:.1}%)",
        "compute",
        fmt_ns(compute),
        pct(compute)
    );
}

/// Renders the explanation for one report document.
pub fn explain(report: &JsonValue, mode: &Mode) -> Result<String, String> {
    let spans = report
        .get("spans")
        .ok_or("report has no spans section — re-run with --spans")?;
    let forest = Forest::load(spans)?;
    let mut out = String::new();
    render_critical_path(&mut out, spans);
    let _ = writeln!(out);
    match mode {
        Mode::Slowest(n) => {
            let mut roots: Vec<&Row> = forest.rows.iter().filter(|r| r.parent == 0).collect();
            roots.sort_by(|a, b| b.duration_ns.cmp(&a.duration_ns).then(a.id.cmp(&b.id)));
            roots.truncate(*n);
            if roots.is_empty() {
                let _ = writeln!(out, "no spans recorded");
            } else {
                let _ = writeln!(out, "slowest {} root spans:", roots.len());
            }
            let ids: Vec<u64> = roots.iter().map(|r| r.id).collect();
            for id in ids {
                forest.render_tree(&mut out, id, 0);
                let _ = writeln!(out);
            }
        }
        Mode::Span(id) => {
            if forest.row(*id).is_none() {
                return Err(format!("no span with id {id} in this report"));
            }
            let chain = forest.ancestors(*id);
            for (depth, r) in chain.iter().enumerate() {
                let pad = "  ".repeat(depth);
                let _ = writeln!(
                    out,
                    "{pad}under span {} {} {} node {} ({})",
                    r.id,
                    r.kind,
                    r.resource,
                    r.node,
                    fmt_ns(r.duration_ns)
                );
            }
            forest.render_tree(&mut out, *id, chain.len());
        }
        Mode::Resource(label) => {
            let ids: Vec<u64> = forest
                .rows
                .iter()
                .filter(|r| r.parent == 0 && r.resource == *label)
                .map(|r| r.id)
                .collect();
            if ids.is_empty() {
                let _ = writeln!(out, "no root spans about {label}");
            } else {
                let _ = writeln!(out, "{} root spans about {label}:", ids.len());
            }
            for id in ids {
                forest.render_tree(&mut out, id, 0);
                let _ = writeln!(out);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvm_apps::{build_app, AppId, Scale};
    use cvm_dsm::{CvmBuilder, CvmConfig};

    fn report_json(app: AppId, nodes: usize) -> JsonValue {
        let mut cfg = CvmConfig::paper(nodes, 2);
        cfg.spans = true;
        let mut b = CvmBuilder::new(cfg);
        let body = build_app(&mut b, app, Scale::Small);
        b.run(body).to_json(10)
    }

    #[test]
    fn slowest_renders_critical_path_and_trees() {
        let doc = report_json(AppId::Sor, 2);
        let text = explain(&doc, &Mode::Slowest(3)).unwrap();
        assert!(text.contains("critical path over"));
        assert!(text.contains("slowest"));
        assert!(
            text.contains("= wire"),
            "every span shows its segment split"
        );
    }

    #[test]
    fn span_mode_shows_ancestor_chain() {
        let doc = report_json(AppId::Sor, 2);
        // Find a child span (a pull under a fault) in the records.
        let recs = doc
            .get("spans")
            .unwrap()
            .get("records")
            .unwrap()
            .as_array()
            .unwrap();
        let child = recs
            .iter()
            .find(|r| r.get("parent").unwrap().as_u64().unwrap() != 0)
            .expect("a real run has child spans");
        let id = child.get("id").unwrap().as_u64().unwrap();
        let text = explain(&doc, &Mode::Span(id)).unwrap();
        assert!(text.contains("under span"), "ancestors are printed first");
        assert!(text.contains(&format!("span {id} ")));
    }

    #[test]
    fn resource_mode_filters_by_label() {
        let doc = report_json(AppId::Sor, 2);
        let recs = doc
            .get("spans")
            .unwrap()
            .get("records")
            .unwrap()
            .as_array()
            .unwrap();
        let label = recs
            .iter()
            .find(|r| {
                r.get("resource")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .starts_with("page:")
            })
            .map(|r| r.get("resource").unwrap().as_str().unwrap().to_owned())
            .expect("a real run faults on some page");
        let text = explain(&doc, &Mode::Resource(label.clone())).unwrap();
        assert!(text.contains(&format!("about {label}")));
        assert!(text.contains(&label));
    }

    #[test]
    fn missing_spans_section_is_a_clear_error() {
        let mut cfg = CvmConfig::paper(2, 2);
        cfg.spans = false;
        let mut b = CvmBuilder::new(cfg);
        let body = build_app(&mut b, AppId::Sor, Scale::Small);
        let doc = b.run(body).to_json(10);
        let err = explain(&doc, &Mode::Slowest(5)).unwrap_err();
        assert!(err.contains("--spans"));
    }

    #[test]
    fn unknown_span_id_errors() {
        let doc = report_json(AppId::Sor, 2);
        assert!(explain(&doc, &Mode::Span(9_999_999)).is_err());
    }
}
