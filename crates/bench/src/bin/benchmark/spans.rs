//! Spans recorded by the benchmark around its calls into each layer.
//! Kept in memory, written out at exit as Chrome trace-event JSON
//! (`chrome://tracing`, Perfetto) with the repo's own JSON writer.

use std::time::Instant;

use vr_cost::json::{obj, Json};

use crate::stats::median;

/// One timed call: name, start, end, the span that caused it and the
/// frame it belongs to.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// Spans of one frame share this identifier.
    pub frame: u64,
    /// 0 = the caller's thread; rank threads use `rank + 1`.
    pub lane: u32,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An in-memory span log with one open-span stack (the caller's thread).
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::with_epoch(Instant::now())
    }

    /// A recorder on another's clock, for a caller thread of its own.
    pub fn with_epoch(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Takes over the spans of a caller thread's recorder (made
    /// [`with_epoch`](Self::with_epoch) of this one), on lane `lane`.
    pub fn absorb(&mut self, other: Recorder, lane: u32) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            lane,
            ..s
        }));
    }

    fn us(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Times `f` as a span named `name`, child of the span open around
    /// it. Returns `f`'s result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        frame: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: 0.0,
            end_us: 0.0,
            parent: self.open.last().copied(),
            frame,
            lane: 0,
        });
        self.open.push(id);
        let start = Instant::now();
        let result = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[id].start_us = self.us(start);
        self.spans[id].end_us = self.us(end);
        result
    }

    /// Records a span timed elsewhere (a rank thread hands back its
    /// timestamps), child of the span open now.
    pub fn record(
        &mut self,
        name: &'static str,
        frame: u64,
        lane: u32,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent: self.open.last().copied(),
            frame,
            lane,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON: one complete (`"ph": "X"`) event per
    /// span, `tid` = lane, with frame and parent in `args`.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                obj([
                    ("name", Json::Str(s.name.into())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(s.start_us)),
                    ("dur", Json::Num(s.duration_us())),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(f64::from(s.lane))),
                    (
                        "args",
                        obj([
                            ("id", Json::Num(id as f64)),
                            ("frame", Json::Num(s.frame as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
    }
}

/// A span's self time, µs: its duration minus the part of its interval
/// that its child spans cover (children may overlap one another, as
/// rank threads do; covered time is counted once).
pub fn self_time_us(spans: &[Span], id: usize) -> f64 {
    let me = &spans[id];
    let mut covered: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_us.max(me.start_us), s.end_us.min(me.end_us)))
        .filter(|(start, end)| end > start)
        .collect();
    covered.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = me.start_us;
    for (start, end) in covered {
        if end > reach {
            total += end - start.max(reach);
            reach = end;
        }
    }
    me.duration_us() - total
}

/// Median self time, ms, per span name, in order of first appearance.
pub fn self_times_ms(spans: &[Span]) -> Vec<(&'static str, f64, usize)> {
    let mut names: Vec<&'static str> = Vec::new();
    for s in spans {
        if !names.contains(&s.name) {
            names.push(s.name);
        }
    }
    names
        .into_iter()
        .map(|name| {
            let selfs: Vec<f64> = (0..spans.len())
                .filter(|&id| spans[id].name == name)
                .map(|id| self_time_us(spans, id) / 1e3)
                .collect();
            (name, median(&selfs), selfs.len())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        lane: u32,
    ) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
            frame: 0,
            lane,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("frame", 0.0, 100.0, None, 0),
            span("decode", 10.0, 30.0, Some(0), 0),
            span("render", 40.0, 90.0, Some(0), 0),
            span("rank", 45.0, 60.0, Some(2), 1),
        ];
        assert_eq!(self_time_us(&spans, 0), 30.0);
        assert_eq!(self_time_us(&spans, 1), 20.0);
        // Grandchildren count against their own parent only.
        assert_eq!(self_time_us(&spans, 2), 35.0);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("group", 0.0, 100.0, None, 0),
            span("rank", 10.0, 60.0, Some(0), 1),
            span("rank", 20.0, 80.0, Some(0), 2),
            span("rank", 30.0, 40.0, Some(0), 3),
            // Ends after its parent: only the part inside counts.
            span("rank", 90.0, 120.0, Some(0), 4),
        ];
        assert_eq!(self_time_us(&spans, 0), 100.0 - 70.0 - 10.0);
    }

    #[test]
    fn recorder_nests_spans_and_writes_chrome_events() {
        let mut rec = Recorder::new();
        rec.span("frame", 7, |rec| {
            rec.span("inner", 7, |_| std::hint::black_box(1 + 1));
            let now = Instant::now();
            rec.record("rank", 7, 3, now, now);
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[2].parent, spans[2].lane), (Some(0), 3));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);

        let trace = rec.chrome_trace();
        let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(events[2].get("tid").and_then(Json::as_u64), Some(3));
        // It must survive the repo's own parser.
        assert_eq!(vr_cost::json::parse(&trace.pretty()).unwrap(), trace);
    }
}
