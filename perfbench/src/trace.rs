//! Spans recorded around each call into a layer, from the benchmark's own
//! code. They stay in memory and are written out as JSON lines when the
//! run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::jstr;

/// One timed interval: a call into a layer, or a whole request.
pub struct Span {
    pub name: &'static str,
    /// Request id (event, solve or read index) the span belongs to.
    pub req: u64,
    /// Index of the enclosing span, `None` for a request's root span.
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

/// Handle of an open span; inert while tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The parent of a root span.
    pub const ROOT: SpanId = SpanId(None);
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off; spans already recorded are kept.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Opens a span starting at `start`; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, req: u64, parent: SpanId, start: Instant) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        self.spans.push(Span {
            name,
            req,
            parent: parent.0,
            start,
            end: start,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn close(&mut self, id: SpanId, end: Instant) {
        if let Some(i) = id.0 {
            self.spans[i].end = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let id = self.open(name, req, parent, Instant::now());
        let out = f();
        self.close(id, Instant::now());
        out
    }

    /// Durations of every span named `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| crate::stats::ms(s.end - s.start))
            .collect()
    }

    /// Summed duration of every span named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum::<f64>() * 1e6
    }

    /// Root spans named `root`, and the share of their time that child
    /// spans cover (1 − self time ÷ duration, summed over the roots).
    pub fn coverage(&self, root: &str) -> (usize, f64) {
        let mut children: Vec<Vec<(Instant, Instant)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let (mut count, mut total, mut covered) = (0, 0.0, 0.0);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_some() || s.name != root {
                continue;
            }
            count += 1;
            total += (s.end - s.start).as_secs_f64();
            let kids = &mut children[i];
            kids.sort();
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += (b - a).as_secs_f64();
                    reach = b;
                }
            }
        }
        (count, if total > 0.0 { covered / total } else { 0.0 })
    }

    /// Writes every span as one JSON line (times in ns since the tracer
    /// was made).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos();
            writeln!(
                w,
                "{{\"id\":{i},\"name\":{},\"req\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                jstr(s.name),
                s.req,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                ns(s.start),
                ns(s.end)
            )?;
        }
        w.flush()
    }
}
