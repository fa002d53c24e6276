//! In-memory span recorder for traced runs.
//!
//! The driver wraps each call it makes into a layer in a span: name,
//! start, end, the span that caused it, and the id of the request it
//! belongs to. Spans stay in memory and are written to
//! `trace-<workload>.json` when the run ends. Nothing inside the program records spans; that is
//! a later change.

use std::collections::BTreeMap;
use std::time::Instant;

use prix_server::json::escape;

/// One recorded interval. Times are nanoseconds since the recorder's
/// origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Spans of one request share this id.
    pub request: u64,
}

/// Collects spans on one thread.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span whose interval is already known (the engine
    /// reports stage *durations*; the driver lays them back to back
    /// inside the call that produced them).
    pub fn add(
        &mut self,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent,
            request,
        });
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let r = f();
        self.end(id);
        r
    }
}

/// Appends `more` (recorded by another recorder) to `spans`, keeping
/// each span's parent pointing at the same span.
pub fn append(spans: &mut Vec<Span>, more: Vec<Span>) {
    let base = spans.len();
    spans.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children may overlap each other or stick
/// out of the parent; only the covered part inside the parent counts,
/// and it counts once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per span name: `(count, total ns, self ns)`.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += own;
    }
    out
}

/// Serializes the per-name summary and the spans themselves.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"summary\":[");
    for (i, (name, (count, total, own))) in summarize(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\":{},\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}",
            escape(name)
        ));
    }
    out.push_str("\n],\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            escape(s.name),
            s.start_ns,
            s.end_ns,
            s.request
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Self-time arithmetic on nested, overlapping and protruding spans.
pub fn self_test() -> Result<(), String> {
    let span = |start_ns, end_ns, parent| Span {
        name: "t",
        start_ns,
        end_ns,
        parent,
        request: 0,
    };
    // root [0,100]; nested child [10,40] with its own child [20,30];
    // two overlapping children [50,70] and [60,80]; one child sticking
    // out of the parent [90,120].
    let spans = vec![
        span(0, 100, None),
        span(10, 40, Some(0)),
        span(20, 30, Some(1)),
        span(50, 70, Some(0)),
        span(60, 80, Some(0)),
        span(90, 120, Some(0)),
    ];
    let got = self_times(&spans);
    // root: 100 - (30 + 30 + 10) = 30; [10,40]: 30 - 10 = 20.
    let want = vec![30, 20, 10, 20, 20, 30];
    if got != want {
        return Err(format!("span self times: got {got:?}, want {want:?}"));
    }
    let total: u64 = summarize(&spans).values().map(|v| v.2).sum();
    if total != want.iter().sum::<u64>() {
        return Err("span summary does not add up to the self times".into());
    }
    Ok(())
}
