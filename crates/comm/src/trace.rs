//! Message tracing: a per-group event log of every send and receive,
//! for timeline analysis of the compositing schedules.
//!
//! Tracing is opt-in via [`run_group_traced`]; the collector is a
//! lock-protected append-only log (contention is negligible next to the
//! channel operations it brackets, and traced runs are diagnostics, not
//! measurements).

use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::cost::CostModel;
use crate::endpoint::Endpoint;
use crate::group::{run_group, GroupRun};

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A message left this rank.
    Send,
    /// A message was delivered to this rank.
    Recv,
}

/// One traced communication event.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Nanoseconds since the group started.
    pub t_ns: u64,
    /// The rank that performed the operation.
    pub rank: usize,
    /// The other side of the message.
    pub peer: usize,
    /// Send or receive.
    pub kind: EventKind,
    /// Payload size in bytes.
    pub bytes: usize,
    /// Protocol tag.
    pub tag: u32,
}

/// The collected event log of one traced group run.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// All events in collection order (approximately time order; exact
    /// order within a few µs is scheduler-dependent).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// `(sends, receives)` counted per rank.
    pub fn message_counts(&self, p: usize) -> Vec<(usize, usize)> {
        let mut counts = vec![(0usize, 0usize); p];
        for e in &self.events {
            match e.kind {
                EventKind::Send => counts[e.rank].0 += 1,
                EventKind::Recv => counts[e.rank].1 += 1,
            }
        }
        counts
    }

    /// Renders the log as CSV (`t_ns,rank,peer,kind,bytes,tag`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_ns,rank,peer,kind,bytes,tag\n");
        for e in &self.events {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                e.t_ns,
                e.rank,
                e.peer,
                match e.kind {
                    EventKind::Send => "send",
                    EventKind::Recv => "recv",
                },
                e.bytes,
                e.tag
            ));
        }
        out
    }
}

/// A shared, thread-safe trace collector handed to every endpoint.
#[derive(Clone, Default)]
pub struct Tracer {
    log: Arc<Mutex<Vec<TraceEvent>>>,
}

impl Tracer {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one event at `t_ns` on the recording rank's transport
    /// clock (real or virtual nanoseconds since the group started).
    pub fn record(
        &self,
        t_ns: u64,
        rank: usize,
        peer: usize,
        kind: EventKind,
        bytes: usize,
        tag: u32,
    ) {
        self.log.lock().push(TraceEvent {
            t_ns,
            rank,
            peer,
            kind,
            bytes,
            tag,
        });
    }

    /// Extracts the finished trace.
    pub fn finish(self) -> Trace {
        Trace {
            events: Arc::try_unwrap(self.log)
                .map(Mutex::into_inner)
                .unwrap_or_default(),
        }
    }
}

/// Like [`run_group`], but records every send/receive into a [`Trace`]
/// returned alongside the results.
pub fn run_group_traced<R, F>(size: usize, cost: CostModel, f: F) -> (GroupRun<R>, Trace)
where
    R: Send,
    F: Fn(&mut Endpoint) -> R + Sync,
{
    let tracer = Tracer::new();
    let out = {
        let tracer = tracer.clone();
        run_group(size, cost, move |ep| {
            ep.set_tracer(tracer.clone());
            f(ep)
        })
    };
    (out, tracer.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn trace_records_sends_and_recvs() {
        let (out, trace) = run_group_traced(4, CostModel::free(), |ep| {
            let peer = ep.rank() ^ 1;
            let got = ep
                .exchange(peer, 42, Bytes::from(vec![0u8; 10 + ep.rank()]))
                .unwrap();
            got.len()
        });
        assert_eq!(out.results.len(), 4);
        // 4 sends + 4 recvs.
        assert_eq!(trace.events().len(), 8);
        let counts = trace.message_counts(4);
        assert!(counts.iter().all(|&(s, r)| s == 1 && r == 1));
        // Payload sizes recorded faithfully.
        let sent: Vec<usize> = trace
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Send)
            .map(|e| e.bytes)
            .collect();
        let mut sorted = sent.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![10, 11, 12, 13]);
        assert!(trace.events().iter().all(|e| e.tag == 42));
    }

    #[test]
    fn per_rank_events_are_in_program_order() {
        let (_, trace) = run_group_traced(2, CostModel::free(), |ep| {
            let peer = 1 - ep.rank();
            for tag in 0..3u32 {
                let _ = ep.exchange(peer, tag, Bytes::new()).unwrap();
            }
        });
        for rank in 0..2 {
            let evs = trace.events().iter().filter(|e| e.rank == rank);
            assert_eq!(evs.clone().count(), 6);
            // Tags of this rank's sends must appear in order 0,1,2.
            let send_tags: Vec<u32> = evs
                .filter(|e| e.kind == EventKind::Send)
                .map(|e| e.tag)
                .collect();
            assert_eq!(send_tags, vec![0, 1, 2]);
        }
    }

    #[test]
    fn csv_output_shape() {
        let (_, trace) = run_group_traced(2, CostModel::free(), |ep| {
            let _ = ep
                .exchange(1 - ep.rank(), 7, Bytes::from_static(b"abc"))
                .unwrap();
        });
        let csv = trace.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5); // header + 4 events
        assert!(lines[0].starts_with("t_ns,"));
        assert!(lines[1].split(',').count() == 6);
    }

    #[test]
    fn untraced_runs_record_nothing() {
        // Plain run_group must not pay any tracing cost or panic.
        let out = crate::group::run_group(2, CostModel::free(), |ep| {
            ep.exchange(1 - ep.rank(), 0, Bytes::new()).unwrap().len()
        });
        assert_eq!(out.results, vec![0, 0]);
    }
}
