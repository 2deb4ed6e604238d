//! The traced run's span log: kept in memory, written out once at exit.

use std::time::Instant;

use cvm_sim::JsonValue;

/// One closed or still-open span. `parent` 0 means a root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder. With tracing off every call is a no-op returning id 0,
/// so the measured path is the same code either way.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off (the traced run alternates, to measure
    /// what recording costs).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Nanoseconds since this recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (0 for a root) and returns its id.
    pub fn open(&mut self, parent: u32, name: &str) -> u32 {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        self.record(parent, name, now, now)
    }

    /// Closes span `id` now. Id 0 (tracing off) is ignored.
    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        if let Some(s) = id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            s.end_ns = now;
        }
    }

    /// Records a span whose times were measured elsewhere (a probe that
    /// ran in the pinned child).
    pub fn record(&mut self, parent: u32, name: &str, start_ns: u64, end_ns: u64) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_owned(),
            start_ns,
            end_ns,
        });
        id
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus what its direct children cover.
    pub fn self_ns(&self, id: u32) -> u64 {
        let Some(s) = self.spans.iter().find(|s| s.id == id) else {
            return 0;
        };
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == id)
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// The whole log as `{"spans": [{id, parent, name, start_ns, end_ns}]}`.
    pub fn to_json(&self) -> JsonValue {
        let mut arr = JsonValue::array();
        for s in &self.spans {
            let mut o = JsonValue::object();
            o.set("id", u64::from(s.id));
            o.set("parent", u64::from(s.parent));
            o.set("name", s.name.as_str());
            o.set("start_ns", s.start_ns);
            o.set("end_ns", s.end_ns);
            arr.push(o);
        }
        let mut doc = JsonValue::object();
        doc.set("schema", "hostbench-trace");
        doc.set("spans", arr);
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let id = s.open(0, "root");
        assert_eq!(id, 0);
        s.close(id);
        assert!(s.all().is_empty());
    }

    #[test]
    fn children_link_to_parents_and_self_time_excludes_them() {
        let mut s = Spans::new(true);
        let root = s.record(0, "root", 0, 1000);
        let a = s.record(root, "a", 100, 400);
        s.record(root, "b", 500, 700);
        s.record(a, "a1", 150, 250);
        assert_eq!(s.self_ns(root), 500);
        assert_eq!(s.self_ns(a), 200);
        let text = s.to_json().to_pretty();
        let back = JsonValue::parse(&text).expect("round trips");
        let spans = back.get("spans").and_then(JsonValue::as_array).unwrap();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[3].get("parent").and_then(JsonValue::as_u64), Some(2));
    }

    #[test]
    fn open_close_orders_times() {
        let mut s = Spans::new(true);
        let id = s.open(0, "x");
        s.close(id);
        let sp = &s.all()[0];
        assert!(sp.end_ns >= sp.start_ns);
    }
}
