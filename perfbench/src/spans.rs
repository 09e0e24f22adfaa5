//! The benchmark's own spans, recorded around each call into a layer.
//!
//! A span has a name, start, end, parent and an operation id that all
//! spans of one request share. Spans stay in memory and are written out
//! when the run ends. Every call is timed whether or not it is recorded,
//! so an untraced run still yields its end-to-end times.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span: timing always runs; recording only when `record`.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start: Instant,
    record: bool,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Open the root span of operation `op`; `record` decides whether it
    /// and its children are kept.
    pub fn root(&self, name: &'static str, op: u64, record: bool) -> Open {
        self.open(name, op, 0, record)
    }

    pub fn child(&self, parent: &Open, name: &'static str) -> Open {
        self.open(name, parent.op, parent.id, parent.record)
    }

    fn open(&self, name: &'static str, op: u64, parent: u64, record: bool) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            op,
            name,
            start: Instant::now(),
            record,
        }
    }

    /// Close a span; returns its duration in seconds.
    pub fn close(&self, s: Open) -> f64 {
        let end = Instant::now();
        if s.record {
            let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
            self.spans
                .lock()
                .expect("span buffer lock poisoned")
                .push(Span {
                    id: s.id,
                    parent: s.parent,
                    op: s.op,
                    name: s.name,
                    start_ns: ns(s.start),
                    end_ns: ns(end),
                });
        }
        end.duration_since(s.start).as_secs_f64()
    }

    /// Run `f` inside a child span of `parent`; returns its result and
    /// duration in seconds.
    pub fn time<R>(&self, parent: &Open, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let s = self.child(parent, name);
        let r = f();
        (r, self.close(s))
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .clone()
    }
}

/// Run `f` outside any span; returns its result and duration in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Self time per span name (a span's duration minus what its children
/// cover), plus the total duration of the roots. The roots' own self
/// time is reported as `unattributed`: wall the layer spans do not
/// explain.
pub fn self_times(spans: &[Span]) -> (BTreeMap<&'static str, f64>, f64) {
    let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut roots = 0.0;
    for s in spans {
        let dur = (s.end_ns - s.start_ns) as f64;
        let own = (dur - covered.get(&s.id).copied().unwrap_or(0) as f64).max(0.0);
        let name = if s.parent == 0 {
            roots += dur;
            "unattributed"
        } else {
            s.name
        };
        *by_name.entry(name).or_default() += own;
    }
    (by_name, roots)
}

/// The self-time table, largest first, with shares of the roots' wall.
pub fn render_self_times(spans: &[Span]) -> String {
    let (by_name, roots) = self_times(spans);
    let mut rows: Vec<_> = by_name.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut out = format!("{:<22} {:>12} {:>8}\n", "layer (self time)", "ms", "share");
    for (name, ns) in rows {
        out += &format!(
            "{name:<22} {:>12.3} {:>7.2}%\n",
            ns / 1e6,
            100.0 * ns / roots.max(1.0)
        );
    }
    out
}

/// Write every span as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_keeps_the_remainder_visible() {
        let spans = [
            span(1, 0, "op", 0, 100),
            span(2, 1, "exec.compute", 10, 70),
            span(3, 1, "codegen.emit", 70, 90),
        ];
        let (by_name, roots) = self_times(&spans);
        assert_eq!(roots, 100.0);
        assert_eq!(by_name["exec.compute"], 60.0);
        assert_eq!(by_name["codegen.emit"], 20.0);
        assert_eq!(by_name["unattributed"], 20.0);
    }

    #[test]
    fn unrecorded_operations_leave_no_spans() {
        let t = Tracer::new();
        let root = t.root("op", 7, false);
        let ((), _) = t.time(&root, "child", || ());
        t.close(root);
        assert!(t.spans().is_empty());
        let root = t.root("op", 8, true);
        let ((), _) = t.time(&root, "child", || ());
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.op == 8));
        assert_eq!(spans[0].parent, spans[1].id);
    }
}
