//! In-memory span recording at the layer boundaries the benchmark calls
//! through.
//!
//! A span has a name, a start and end (nanoseconds since the tracer's
//! epoch), the span that caused it, and the op it belongs to. Spans stay
//! in memory while the workload runs; [`Tracer::write_jsonl`] writes them
//! out afterwards and [`self_ms_by_name`] turns them into per-layer self
//! times (a span's duration minus the part its children cover).
//!
//! A disabled tracer records nothing and costs one branch per call, so
//! the untraced runs use the same code path.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of this span in its tracer.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `opt.validate.seq`.
    pub name: String,
    /// The op (program, case or request) the span belongs to.
    pub op: u64,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// A free-form tag (`hit`/`miss`, a verdict, ...), empty if unused.
    pub tag: String,
}

impl Span {
    /// Wall duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A span recorder for one thread.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id (`usize::MAX` when disabled).
    pub fn enter(&mut self, name: impl Into<String>, op: u64) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.into(),
            op,
            start_ns: self.now_ns(),
            end_ns: 0,
            tag: String::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, tagging it.
    pub fn exit(&mut self, id: usize, tag: &str) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.tag.push_str(tag);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id, "");
        out
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Appends the spans another thread's tracer recorded.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Sum of durations (ms) of the spans named `name`.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::ms).sum()
}

/// Self time (ms) summed per span name: each span's duration minus the
/// durations of its direct children. Children of one span never overlap
/// because every tracer records a single thread.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]);
        *out.entry(s.name.clone()).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Writes the spans as JSON lines, then one line of self times.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{},\"tag\":{}}}",
            s.id,
            seqwm_json::escape(&s.name),
            s.op,
            s.start_ns,
            s.end_ns,
            seqwm_json::escape(&s.tag),
        )?;
    }
    let selfs: Vec<String> = self_ms_by_name(spans)
        .iter()
        .map(|(k, v)| format!("{}:{v}", seqwm_json::escape(k)))
        .collect();
    writeln!(out, "{{\"self_ms\":{{{}}}}}", selfs.join(","))?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tr = Tracer::new(true, Instant::now());
        let outer = tr.enter("outer", 0);
        tr.span("inner", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tr.exit(outer, "");
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        let selfs = self_ms_by_name(spans);
        assert!(selfs["inner"] >= 5.0);
        assert!((selfs["outer"] + selfs["inner"] - spans[0].ms()).abs() < 1e-6);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_absorb_reindexes() {
        let epoch = Instant::now();
        let mut off = Tracer::new(false, epoch);
        off.span("x", 0, || ());
        assert!(off.spans().is_empty());
        let mut a = Tracer::new(true, epoch);
        a.span("a", 0, || ());
        let mut b = Tracer::new(true, epoch);
        let outer = b.enter("b", 1);
        b.span("c", 1, || ());
        b.exit(outer, "");
        a.absorb(b);
        assert_eq!(a.spans()[2].id, 2);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
