//! Benchmark-side spans around calls into each layer's public functions.
//!
//! Spans live in memory while a run measures and are written out once
//! at the end. Each carries its name, start, end, parent and op id. A
//! span's *self* time is its duration minus the durations of its direct
//! children (children never overlap: each op runs on one thread).
//!
//! Span names are `<layer>.<call>`; the layer prefix is a workspace
//! module (`sqlkit`, `catalog`, `remote_sim`, `costing`, `federation`,
//! `serving`, `telemetry`). Each traced op has one root span named
//! [`ROOT`], whose self time is the benchmark's own glue between layer
//! calls — the accounting identity bounds it.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of every op's root span.
pub const ROOT: &str = "op";

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The op this span belongs to.
    pub op: u64,
    /// 1-based span id, unique within a recorder.
    pub id: u32,
    /// Parent span id; 0 for a root.
    pub parent: u32,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in µs.
    pub fn dur_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// Handle of an open span (inert when recording is off).
#[derive(Debug)]
#[must_use = "an open span must be closed with Recorder::exit"]
pub struct Open(Option<usize>);

/// The in-memory span recorder. When off, `enter`/`exit` do nothing and
/// read no clock.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            origin: Instant::now(),
            op: 0,
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            stack: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the recorder was created.
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span of the current op.
    /// Opening [`ROOT`] starts op `op`.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        self.op = op;
        let parent = self
            .stack
            .last()
            .and_then(|&i| self.spans.get(i))
            .map_or(0, |s| s.id);
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            id: idx as u32 + 1,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Opens a span in the op most recently entered.
    pub fn child(&mut self, name: &'static str) -> Open {
        let op = self.op;
        self.enter(name, op)
    }

    /// Closes a span (and anything left open inside it).
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else {
            return;
        };
        let end = self.now_ns();
        while let Some(top) = self.stack.pop() {
            if let Some(s) = self.spans.get_mut(top) {
                s.end_ns = end;
            }
            if top == idx {
                break;
            }
        }
    }

    /// Records a span measured elsewhere (spans of one op that
    /// interleave with other ops' spans on the same thread).
    pub fn record(
        &mut self,
        op: u64,
        parent: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            op,
            id,
            parent,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Sets the end of a span recorded with [`Recorder::record`].
    pub fn finish(&mut self, id: u32, end_ns: u64) {
        if let Some(s) = id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            s.end_ns = end_ns.max(s.start_ns);
        }
    }

    /// Every recorded span, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as TSV (`op id parent name start_ns end_ns`).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tid\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.op, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-op totals of one span name: summed duration and summed self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Summed span duration, µs.
    pub dur_us: f64,
    /// Summed self time (duration minus direct children), µs.
    pub self_us: f64,
}

/// The spans of every op folded into per-op, per-name totals.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// `op → name → totals`.
    pub ops: BTreeMap<u64, BTreeMap<&'static str, Totals>>,
}

impl Breakdown {
    /// Folds a span list (ids are 1-based indices into it).
    pub fn of(spans: &[Span]) -> Self {
        let mut child_us = vec![0.0f64; spans.len()];
        for s in spans {
            if s.parent > 0 {
                if let Some(c) = child_us.get_mut(s.parent as usize - 1) {
                    *c += s.dur_us();
                }
            }
        }
        let mut ops: BTreeMap<u64, BTreeMap<&'static str, Totals>> = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_us) {
            let t = ops.entry(s.op).or_default().entry(s.name).or_default();
            t.dur_us += s.dur_us();
            t.self_us += s.dur_us() - children;
        }
        Breakdown { ops }
    }

    /// Per-op summed duration of `name`, over the ops where it occurs.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.ops
            .values()
            .filter_map(|m| m.get(name).map(|t| t.dur_us))
            .collect()
    }

    /// Per-op summed self time of `name`, over the ops where it occurs.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.ops
            .values()
            .filter_map(|m| m.get(name).map(|t| t.self_us))
            .collect()
    }

    /// Checks the accounting identity: in each op, the layer spans' self
    /// times sum to the op's wall time minus the root's own glue, so the
    /// identity holds when that glue is within `max(rel · wall, abs_us)`.
    pub fn identity(&self, rel: f64, abs_us: f64) -> Identity {
        let mut ops = 0usize;
        let mut violations = 0usize;
        let mut wall_total = 0.0;
        let mut layers_total = 0.0;
        for names in self.ops.values() {
            let Some(root) = names.get(ROOT) else {
                continue;
            };
            let layers: f64 = names
                .iter()
                .filter(|(n, _)| **n != ROOT)
                .map(|(_, t)| t.self_us)
                .sum();
            ops += 1;
            wall_total += root.dur_us;
            layers_total += layers;
            if (root.dur_us - layers).abs() > (rel * root.dur_us).max(abs_us) {
                violations += 1;
            }
        }
        Identity {
            ops,
            violations,
            wall_us: wall_total,
            layers_us: layers_total,
        }
    }
}

/// Outcome of the accounting-identity check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Identity {
    /// Ops checked.
    pub ops: usize,
    /// Ops whose layer self times missed the wall time by more than
    /// the tolerance.
    pub violations: usize,
    /// Summed op wall time, µs.
    pub wall_us: f64,
    /// Summed layer self time, µs.
    pub layers_us: f64,
}

impl Identity {
    /// The share of all op wall time the layer spans account for.
    pub fn coverage(&self) -> f64 {
        if self.wall_us > 0.0 {
            self.layers_us / self.wall_us
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            Span {
                op: 1,
                id: 1,
                parent: 0,
                name: ROOT,
                start_ns: 0,
                end_ns: 10_000,
            },
            Span {
                op: 1,
                id: 2,
                parent: 1,
                name: "federation.plan",
                start_ns: 1_000,
                end_ns: 9_000,
            },
            Span {
                op: 1,
                id: 3,
                parent: 2,
                name: "costing.estimate",
                start_ns: 2_000,
                end_ns: 5_000,
            },
        ];
        let b = Breakdown::of(&spans);
        let op = &b.ops[&1];
        assert_eq!(op["federation.plan"].self_us, 5.0);
        assert_eq!(op["costing.estimate"].self_us, 3.0);
        assert_eq!(op[ROOT].self_us, 2.0);
        let id = b.identity(0.1, 0.0);
        assert_eq!((id.ops, id.violations), (1, 1));
        assert_eq!(b.identity(0.2, 0.0).violations, 0);
        assert!((id.coverage() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_closes() {
        let mut r = Recorder::new(true);
        let root = r.enter(ROOT, 7);
        let a = r.child("sqlkit.parse");
        r.exit(a);
        let b = r.child("costing.observe");
        r.exit(b);
        r.exit(root);
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent), (1, 1));
        assert!(s.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        let mut off = Recorder::new(false);
        let o = off.enter(ROOT, 1);
        off.exit(o);
        assert!(off.spans().is_empty());
    }
}
