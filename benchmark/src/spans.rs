//! In-memory spans recorded from the benchmark's own files, around each
//! call into a layer. A span's name is `<layer>.<what>`; its self time is
//! its duration minus what its children cover. Off (the timed passes) a
//! span costs one branch.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span, `NONE` for a pass root.
    parent: u32,
    pass: u32,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pass: u32,
}

/// Handle of an open span, to hand back to [`Tracer::end`].
#[must_use]
pub struct Open(u32);

const NONE: u32 = u32::MAX;

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            open: Vec::new(),
            pass: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(NONE);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NONE),
            pass: self.pass,
        });
        self.open.push(id);
        Open(id)
    }

    pub fn end(&mut self, span: Open) {
        if span.0 == NONE {
            return;
        }
        // An error return may have left inner spans open: they end here too.
        let now = self.t0.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == span.0 {
                break;
            }
        }
    }

    /// A leaf span around `f`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }

    /// Self time in seconds per span name, summed over all passes.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child_ns) in self.spans.iter().zip(covered) {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - child_ns) as f64 * 1e-9;
        }
        out
    }

    /// One JSON object per line: `{name, start_ns, end_ns, parent, pass}`.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"pass\":{}}}\n",
                s.name, s.start_ns, s.end_ns, parent, s.pass
            ));
        }
        out
    }
}
