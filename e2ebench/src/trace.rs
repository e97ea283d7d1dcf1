//! In-memory spans recorded by the benchmark around its calls into the
//! program, written out as JSON lines when a traced run ends.
//!
//! A span has a name, start and end (ns since the run's epoch), the
//! span that caused it, and the request id it belongs to. Each thread
//! records into its own [`Tracer`] (ids are disjoint per tracer), and
//! the run merges them at the end — no locks on the measured path. A
//! disabled tracer records nothing.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// What the span covers (`compile`, `run`, `reference`, …).
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The request the span belongs to, if any.
    pub request: Option<u64>,
}

/// An open span: close it with [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    parent: Option<u64>,
    request: Option<u64>,
}

impl Open {
    /// The span's id, for use as a child's parent. `None` from a
    /// disabled tracer.
    #[must_use]
    pub fn id(&self) -> Option<u64> {
        (self.id != u64::MAX).then_some(self.id)
    }
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

/// Ids a tracer may hand out before running into the next tracer's
/// range.
const IDS_PER_TRACER: u64 = 1 << 40;

impl Tracer {
    /// A recorder for one thread. Tracers sharing `epoch` with distinct
    /// `index` values produce mergeable, non-colliding spans.
    #[must_use]
    pub fn new(enabled: bool, epoch: Instant, index: u64) -> Self {
        Tracer {
            enabled,
            epoch,
            next_id: index * IDS_PER_TRACER,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A recorder for another thread, sharing this one's epoch and
    /// enablement.
    #[must_use]
    pub fn child(&self, index: u64) -> Tracer {
        Tracer::new(self.enabled, self.epoch, index)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now.
    pub fn begin(&mut self, name: &'static str, parent: Option<u64>, request: Option<u64>) -> Open {
        if !self.enabled {
            return Open {
                id: u64::MAX,
                name,
                start_ns: 0,
                parent,
                request,
            };
        }
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            name,
            start_ns: self.now_ns(),
            parent,
            request,
        }
    }

    /// Closes `open` now and records it.
    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id: open.id,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            parent: open.parent,
            request: open.request,
        });
    }

    /// Folds another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// The recorded spans.
    #[cfg(test)]
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, ordered by start time.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = String::new();
        for s in &spans {
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.request)
            );
        }
        out
    }

    /// Self time of each span name, ns: each span's duration minus the
    /// part its direct children cover, summed per name.
    #[must_use]
    pub fn self_time_ns(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = std::collections::HashMap::<u64, u64>::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut totals = std::collections::BTreeMap::<&'static str, u64>::new();
        for s in &self.spans {
            let own = (s.end_ns.saturating_sub(s.start_ns))
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *totals.entry(s.name).or_default() += own;
        }
        totals.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_merge_across_threads() {
        let epoch = Instant::now();
        let mut main = Tracer::new(true, epoch, 0);
        let outer = main.begin("call", None, Some(7));
        let mut worker = main.child(1);
        let inner = worker.begin("encode", outer.id(), Some(7));
        worker.end(inner);
        main.end(outer);
        main.absorb(worker);
        let spans = main.spans();
        assert_eq!(spans.len(), 2);
        let call = spans.iter().find(|s| s.name == "call").unwrap();
        let encode = spans.iter().find(|s| s.name == "encode").unwrap();
        assert_eq!(encode.parent, Some(call.id));
        assert_ne!(encode.id, call.id);
        assert!(call.start_ns <= encode.start_ns && encode.end_ns <= call.end_ns);
        assert_eq!(main.to_json_lines().lines().count(), 2);
        let self_time: u64 = main.self_time_ns().iter().map(|(_, ns)| ns).sum();
        assert_eq!(self_time, call.end_ns - call.start_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let open = t.begin("run", None, None);
        assert_eq!(open.id(), None);
        t.end(open);
        assert!(t.spans().is_empty());
    }
}
