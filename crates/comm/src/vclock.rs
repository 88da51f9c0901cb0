//! Deterministic virtual-time scheduling for the message substrate.
//!
//! In real-time mode the simulator's rank threads race: message arrival
//! order, ack timeouts and receive deadlines all depend on the host
//! scheduler, so a run is only *statistically* reproducible. This module
//! replaces wall-clock time with **discrete-event virtual time** driven
//! by the group's [`CostModel`]: every in-flight message carries a ready
//! time `clock[src] + T_s + bytes·T_c`, receive deadlines and ack
//! timeouts are virtual deadlines, and a fault `delay` is extra virtual
//! latency instead of a stalled sender.
//!
//! [`SimNet`] is one of the two networks behind the crate-private
//! transport surface (`transport.rs`; real-time channels are the other):
//! a rank's `now` / `send` / `recv_from` / `drain` / `wait_any` /
//! `linger` calls are the whole interface the layers above use, and the
//! *sequence* of those calls per rank is what the decision digests in
//! the conformance corpus pin. In particular a raw selective receive
//! parks in `recv_from`; `drain` followed by `wait_any` is not a
//! substitute, because `drain` advances the rank's clock to the latest
//! arrival on *any* link.
//!
//! Rank threads still run as OS threads, but they only make progress
//! one at a time between *quiescent points*: when every rank is parked
//! on a virtual wait, the [`SimNet`] picks the next event. Whenever two
//! or more events are ready at the same virtual instant (the *ready
//! set*), a seeded [`ScheduleSpec`] decides which fires first — a
//! random-walk fuzzer over delivery orders. Each such decision is a
//! *choice point* recorded in the [`ScheduleTrace`], so a `(seed,
//! prefix)` pair replays the exact interleaving, and
//! [`explore_schedules`] enumerates all alternatives at the first `K`
//! choice points systematically.
//!
//! Messages on one directed link are never reordered (MPI
//! non-overtaking); the controller only permutes *across* links and
//! against deadline expiries tied at the same virtual instant.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use crate::cost::CostModel;
use crate::endpoint::{CommError, Message};
use crate::fault::splitmix64;

/// A seed plus an optional forced prefix of choices: the complete
/// identity of one deterministic schedule.
///
/// At every choice point with `n > 1` ready events, the controller picks
/// `prefix[i] % n` while forced choices remain, then falls back to a
/// pure hash of `(seed, choice index)` — so the same spec replays the
/// same interleaving bit-for-bit, and specs differing only in `seed`
/// random-walk different interleavings.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScheduleSpec {
    /// Seed of the random-walk choice hash.
    pub seed: u64,
    /// Forced choices for the first `prefix.len()` choice points
    /// (systematic exploration and exact replay).
    pub prefix: Vec<u32>,
}

impl ScheduleSpec {
    /// A pure random-walk spec with no forced prefix.
    pub fn seeded(seed: u64) -> Self {
        ScheduleSpec {
            seed,
            prefix: Vec::new(),
        }
    }
}

/// One recorded scheduling decision: `picked` out of `arity` ready
/// events (only points with `arity > 1` are recorded).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChoicePoint {
    /// Size of the ready set at this point.
    pub arity: u32,
    /// Index chosen, in canonical ready-set order.
    pub picked: u32,
}

/// What a virtual-time run did: every choice point, the event count and
/// the final virtual clock.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScheduleTrace {
    /// Every choice point in order (ready sets of size ≥ 2 only).
    pub decisions: Vec<ChoicePoint>,
    /// Total events processed (deliveries + deadline expiries).
    pub events: u64,
    /// Maximum rank clock at the end of the run, in virtual seconds.
    pub virtual_seconds: f64,
}

impl ScheduleTrace {
    /// Order-sensitive digest of the decision log — two runs with equal
    /// digests took the identical schedule path.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for d in &self.decisions {
            mix(d.arity as u64);
            mix(d.picked as u64);
        }
        mix(self.events);
        h
    }
}

/// What a rank thread is doing, from the scheduler's point of view.
#[derive(Clone, Debug)]
enum Waiter {
    /// Executing user code (not parked).
    Running,
    /// Blocked in a selective receive from `src`.
    RecvFrom { src: usize, deadline: f64 },
    /// Blocked until *any* frame arrives, the virtual deadline passes,
    /// or the watched link goes dead (reliable-mode waits).
    AnyFrame {
        watch: Option<usize>,
        deadline: Option<f64>,
    },
    /// Finished its work; wakes on any frame or group completion.
    Linger,
    /// Endpoint dropped; the rank no longer participates.
    Done,
}

/// One message in flight on a directed link.
#[derive(Debug)]
struct Flight {
    msg: Message,
    /// Virtual instant at which the message becomes deliverable.
    ready: f64,
}

/// A delivered message waiting in a rank's per-source inbox.
#[derive(Debug)]
struct Arrived {
    msg: Message,
    /// Virtual delivery instant (advances the receiver's clock).
    at: f64,
}

/// Outcome of [`SimNet::linger`].
#[derive(Debug, PartialEq, Eq)]
pub enum LingerOutcome {
    /// Frames arrived; the caller should pump them.
    Frames,
    /// Every rank in the group has finished its work.
    GroupDone,
}

/// An event the scheduler can fire next.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// Deliver the head-of-queue flight on link `src → dst`.
    Deliver { src: usize, dst: usize },
    /// Expire rank `rank`'s current virtual deadline.
    Expire { rank: usize, at: f64 },
}

struct SimState {
    size: usize,
    /// Per-rank virtual clock, seconds.
    clock: Vec<f64>,
    /// Ranks currently executing user code (not parked, not done).
    running: usize,
    /// `queues[src][dst]`: in-flight messages, FIFO per directed link.
    queues: Vec<Vec<VecDeque<Flight>>>,
    /// `inbox[dst][src]`: delivered messages awaiting the receiver.
    inbox: Vec<Vec<VecDeque<Arrived>>>,
    waiters: Vec<Waiter>,
    /// Rank's current virtual deadline has expired.
    fired: Vec<bool>,
    /// Rank's endpoint has been dropped, as the other ranks see it.
    closed: Vec<bool>,
    /// Rank's endpoint has been dropped since the last quiescent point;
    /// the others see it at the next one (see [`SimNet::close_rank`]).
    closing: Vec<bool>,
    /// `link_closed[src][dst]`: `src` closed its link to `dst`, as `dst`
    /// sees it; `link_closing` holds the closes not yet published.
    link_closed: Vec<Vec<bool>>,
    link_closing: Vec<(usize, usize)>,
    /// Ranks whose group closure has returned.
    finished: usize,
    spec: ScheduleSpec,
    choices_taken: usize,
    trace: ScheduleTrace,
    /// Fatal scheduler condition (virtual deadlock); every parked rank
    /// panics with this message instead of hanging.
    failure: Option<String>,
}

/// The shared discrete-event network of one virtual-time group run.
///
/// Created by the group runner when [`crate::GroupOptions::schedule`]
/// is set; one `Arc<SimNet>` is shared by every rank's transport, and a
/// rank closes ([`SimNet::close_rank`]) when its endpoint drops.
pub struct SimNet {
    state: Mutex<SimState>,
    cv: Condvar,
    cost: CostModel,
}

impl SimNet {
    /// A fresh network for `size` ranks under `spec`.
    pub fn new(size: usize, cost: CostModel, spec: ScheduleSpec) -> Arc<Self> {
        Arc::new(SimNet {
            state: Mutex::new(SimState {
                size,
                clock: vec![0.0; size],
                running: size,
                queues: (0..size)
                    .map(|_| (0..size).map(|_| VecDeque::new()).collect())
                    .collect(),
                inbox: (0..size)
                    .map(|_| (0..size).map(|_| VecDeque::new()).collect())
                    .collect(),
                waiters: (0..size).map(|_| Waiter::Running).collect(),
                fired: vec![false; size],
                closed: vec![false; size],
                closing: vec![false; size],
                link_closed: vec![vec![false; size]; size],
                link_closing: Vec::new(),
                finished: 0,
                spec,
                choices_taken: 0,
                trace: ScheduleTrace::default(),
                failure: None,
            }),
            cv: Condvar::new(),
            cost,
        })
    }

    fn lock(&self) -> MutexGuard<'_, SimState> {
        // A rank that panics never holds the lock (see `park`), but stay
        // robust against poisoning from unforeseen paths.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// This rank's current virtual clock, seconds.
    pub fn now(&self, rank: usize) -> f64 {
        self.lock().clock[rank]
    }

    /// Queues one message on the `src → dst` link. Non-blocking (sends
    /// are buffered, as in raw channel mode). `extra_delay` is
    /// additional virtual latency (fault injection). `Err` means the
    /// destination endpoint is already closed, or this link is.
    // Unit error mirrors the raw channel-send convention in `Endpoint`;
    // "peer closed" is the only failure and carries no extra detail.
    #[allow(clippy::result_unit_err)]
    pub fn send(&self, src: usize, dst: usize, msg: Message, extra_delay: f64) -> Result<(), ()> {
        let mut st = self.lock();
        if st.closed[dst] || st.link_closed[src][dst] || st.link_closing.contains(&(src, dst)) {
            return Err(());
        }
        let latency = self.cost.message_seconds(msg.payload.len()) + extra_delay;
        let at = st.clock[src] + latency;
        // Non-overtaking: a message never arrives before one sent
        // earlier on the same directed link.
        let ready = st.queues[src][dst]
            .back()
            .map_or(at, |tail| tail.ready.max(at));
        st.queues[src][dst].push_back(Flight { msg, ready });
        Ok(())
    }

    /// Blocking selective receive from `src`, waiting at most `wait` of
    /// `rank`'s virtual time.
    pub fn recv_from(&self, rank: usize, src: usize, wait: Duration) -> Result<Message, CommError> {
        let deadline = self.now(rank) + wait.as_secs_f64();
        self.park(rank, Waiter::RecvFrom { src, deadline }, move |st| {
            if let Some(arr) = st.inbox[rank][src].pop_front() {
                st.clock[rank] = st.clock[rank].max(arr.at);
                return Some(Ok(arr.msg));
            }
            if st.fired[rank] {
                return Some(Err(CommError::Timeout {
                    from: src,
                    waited: wait,
                }));
            }
            if Self::hung_up(st, src, rank) {
                return Some(Err(CommError::Disconnected { peer: src }));
            }
            None
        })
    }

    /// Drains every delivered message for `rank` (all sources, FIFO per
    /// source, sources in ascending order), advancing the rank's clock
    /// to the latest arrival. The second return flags each source that
    /// hung up on `rank` (it, or its link to `rank`, closed and nothing
    /// is left in flight): a drained, disconnected channel's analogue.
    pub fn drain(&self, rank: usize) -> (Vec<(usize, Message)>, Vec<bool>) {
        let mut st = self.lock();
        let mut msgs = Vec::new();
        let mut t = st.clock[rank];
        for src in 0..st.size {
            while let Some(arr) = st.inbox[rank][src].pop_front() {
                t = t.max(arr.at);
                msgs.push((src, arr.msg));
            }
        }
        st.clock[rank] = t;
        let dead = (0..st.size)
            .map(|src| Self::hung_up(&st, src, rank))
            .collect();
        (msgs, dead)
    }

    /// Parks until any frame arrives for `rank`, the absolute virtual
    /// `deadline` passes, or the watched peer hangs up on `rank`.
    pub fn wait_any(&self, rank: usize, watch: Option<usize>, deadline: Option<f64>) {
        self.park(rank, Waiter::AnyFrame { watch, deadline }, move |st| {
            let frames = (0..st.size).any(|src| !st.inbox[rank][src].is_empty());
            let hung_up = watch.is_some_and(|w| Self::hung_up(st, w, rank));
            (frames || st.fired[rank] || hung_up).then_some(())
        })
    }

    /// Parks a finished rank until frames arrive (to be re-acked) or
    /// the whole group is done.
    pub fn linger(&self, rank: usize) -> LingerOutcome {
        self.park(rank, Waiter::Linger, move |st| {
            if (0..st.size).any(|src| !st.inbox[rank][src].is_empty()) {
                return Some(LingerOutcome::Frames);
            }
            if st.finished >= st.size {
                return Some(LingerOutcome::GroupDone);
            }
            None
        })
    }

    /// Records that `rank`'s group closure returned. Must be called
    /// *after* any external completion counter is updated, so a
    /// [`LingerOutcome::GroupDone`] wake observes that counter at its
    /// final value.
    pub fn finish_rank(&self, _rank: usize) {
        let mut st = self.lock();
        st.finished += 1;
        drop(st);
        self.cv.notify_all();
    }

    /// Marks `rank`'s endpoint dropped: it stops counting as runnable at
    /// once, and at the next quiescent point its unread mail is discarded
    /// and the other ranks see it closed. Messages it already sent remain
    /// in flight (a buffered send outlives its sender, as with channels).
    ///
    /// The wait for quiescence is what makes a kill replay: ranks woken
    /// together run concurrently, and a peer's close seen the moment it
    /// happens would reach a running rank's `send` or `drain` before or
    /// after that rank's own calls, as the host scheduler decides.
    pub fn close_rank(&self, rank: usize) {
        let mut st = self.lock();
        st.closing[rank] = true;
        st.waiters[rank] = Waiter::Done;
        st.running -= 1;
        if st.running == 0 {
            Self::schedule(&mut st);
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Closes the link `src → dst` for good: `src`'s later sends on it
    /// fail, and from the next quiescent point (as with `close_rank`)
    /// `dst` takes what `src` already sent and then sees it hung up.
    pub fn close_link(&self, src: usize, dst: usize) {
        self.lock().link_closing.push((src, dst));
    }

    /// Whether `src` has hung up on `dst`: it closed, or closed its link
    /// to `dst`, and nothing it sent is left in flight or unread.
    fn hung_up(st: &SimState, src: usize, dst: usize) -> bool {
        (st.closed[src] || st.link_closed[src][dst])
            && st.queues[src][dst].is_empty()
            && st.inbox[dst][src].is_empty()
    }

    /// Extracts the finished trace (final virtual clock included).
    pub fn take_trace(&self) -> ScheduleTrace {
        let mut st = self.lock();
        st.trace.virtual_seconds = st.clock.iter().copied().fold(0.0f64, f64::max);
        st.trace.clone()
    }

    /// The virtual-deadlock failure, if the run hit one.
    pub fn failure(&self) -> Option<String> {
        self.lock().failure.clone()
    }

    /// The generic blocking primitive: try to claim; otherwise park as
    /// `waiter`, run the scheduler at quiescence, and wait.
    fn park<T>(
        &self,
        rank: usize,
        waiter: Waiter,
        mut claim: impl FnMut(&mut SimState) -> Option<T>,
    ) -> T {
        let mut st = self.lock();
        let mut parked = false;
        loop {
            if let Some(msg) = st.failure.clone() {
                if parked {
                    st.waiters[rank] = Waiter::Running;
                    st.running += 1;
                }
                drop(st);
                panic!("{msg}");
            }
            if let Some(v) = claim(&mut st) {
                if parked {
                    st.waiters[rank] = Waiter::Running;
                    st.fired[rank] = false;
                    st.running += 1;
                }
                return v;
            }
            if !parked {
                st.fired[rank] = false;
                st.waiters[rank] = waiter.clone();
                st.running -= 1;
                parked = true;
                if st.running == 0 {
                    Self::schedule(&mut st);
                    self.cv.notify_all();
                }
                continue; // re-check the claim after scheduling
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// True when `rank`'s parked wait could be claimed right now. Must
    /// mirror the claim closures exactly, or the scheduler would stop
    /// before (or keep running past) a wakeable state.
    fn satisfied(st: &SimState, rank: usize) -> bool {
        match st.waiters[rank] {
            Waiter::Running | Waiter::Done => false,
            Waiter::RecvFrom { src, .. } => {
                !st.inbox[rank][src].is_empty() || st.fired[rank] || Self::hung_up(st, src, rank)
            }
            Waiter::AnyFrame { watch, .. } => {
                (0..st.size).any(|src| !st.inbox[rank][src].is_empty())
                    || st.fired[rank]
                    || watch.is_some_and(|w| Self::hung_up(st, w, rank))
            }
            Waiter::Linger => {
                (0..st.size).any(|src| !st.inbox[rank][src].is_empty()) || st.finished >= st.size
            }
        }
    }

    /// The discrete-event loop, entered only at quiescence (`running ==
    /// 0`): publishes the rank and link closes made since the last
    /// quiescent point,
    /// then fires events in virtual-time order — the seeded controller
    /// breaking same-instant ties — until some parked rank can wake.
    fn schedule(st: &mut SimState) {
        for rank in 0..st.size {
            if std::mem::take(&mut st.closing[rank]) {
                st.closed[rank] = true;
                for src in 0..st.size {
                    st.queues[src][rank].clear();
                    st.inbox[rank][src].clear();
                }
            }
        }
        for (src, dst) in std::mem::take(&mut st.link_closing) {
            st.link_closed[src][dst] = true;
        }
        if st.failure.is_some() {
            return;
        }
        loop {
            if (0..st.size).any(|r| Self::satisfied(st, r)) {
                return;
            }
            let parked = (0..st.size)
                .filter(|&r| !matches!(st.waiters[r], Waiter::Running | Waiter::Done))
                .count();
            if parked == 0 {
                return; // everyone is done; nothing to drive
            }

            // Candidate events: every link head plus every un-fired
            // deadline, at the minimum virtual instant.
            let mut t_min = f64::INFINITY;
            let mut deliveries: Vec<(f64, usize, usize)> = Vec::new();
            for src in 0..st.size {
                for dst in 0..st.size {
                    if let Some(head) = st.queues[src][dst].front() {
                        deliveries.push((head.ready, src, dst));
                        t_min = t_min.min(head.ready);
                    }
                }
            }
            let mut expiries: Vec<(f64, usize)> = Vec::new();
            for r in 0..st.size {
                if st.fired[r] {
                    continue;
                }
                let deadline = match st.waiters[r] {
                    Waiter::RecvFrom { deadline, .. } => Some(deadline),
                    Waiter::AnyFrame { deadline, .. } => deadline,
                    _ => None,
                };
                if let Some(d) = deadline {
                    // A deadline already in the rank's past still fires
                    // "now" rather than rewinding time.
                    let at = d.max(st.clock[r]);
                    expiries.push((at, r));
                    t_min = t_min.min(at);
                }
            }

            if !t_min.is_finite() {
                let stuck: Vec<String> = (0..st.size)
                    .filter(|&r| !matches!(st.waiters[r], Waiter::Running | Waiter::Done))
                    .map(|r| format!("rank {r}: {:?}", st.waiters[r]))
                    .collect();
                st.failure = Some(format!(
                    "virtual deadlock: no events in flight and no deadlines; parked waiters: [{}]",
                    stuck.join(", ")
                ));
                return;
            }

            // Canonical ready-set order: deliveries by directed link id
            // (src, then dst), then expiries by rank. The link id — not
            // a global send counter — keys the order because it is a
            // pure function of the quiescent state: which OS thread won
            // the lock first while racing sends must not leak into the
            // recorded schedule, or traces would not replay.
            let mut ready: Vec<Event> = Vec::new();
            deliveries.retain(|&(t, ..)| t == t_min);
            deliveries.sort_by_key(|&(_, src, dst)| (src, dst));
            for &(_, src, dst) in &deliveries {
                ready.push(Event::Deliver { src, dst });
            }
            expiries.retain(|&(t, _)| t == t_min);
            expiries.sort_by_key(|&(_, r)| r);
            for &(at, rank) in &expiries {
                ready.push(Event::Expire { rank, at });
            }

            let pick = if ready.len() == 1 {
                0
            } else {
                let n = ready.len() as u32;
                let k = st.choices_taken;
                st.choices_taken += 1;
                let choice = if let Some(&forced) = st.spec.prefix.get(k) {
                    forced % n
                } else {
                    (splitmix64(st.spec.seed, k as u64) % n as u64) as u32
                };
                st.trace.decisions.push(ChoicePoint {
                    arity: n,
                    picked: choice,
                });
                choice as usize
            };
            st.trace.events += 1;

            match ready[pick] {
                Event::Deliver { src, dst } => {
                    let flight = st.queues[src][dst]
                        .pop_front()
                        .expect("ready delivery vanished");
                    st.inbox[dst][src].push_back(Arrived {
                        msg: flight.msg,
                        at: flight.ready,
                    });
                }
                Event::Expire { rank, at } => {
                    st.fired[rank] = true;
                    st.clock[rank] = st.clock[rank].max(at);
                }
            }
        }
    }
}

/// Systematic bounded exploration: enumerates every alternative at the
/// first `k` choice points of the schedule tree rooted at `seed`,
/// calling `run` once per distinct forced prefix (the empty prefix —
/// the plain seeded walk — included). Returns each explored spec with
/// the value `run` produced for it.
///
/// `run` executes one full virtual-time group run and returns its
/// result plus the trace whose decision log drives further expansion.
pub fn explore_schedules<T>(
    seed: u64,
    k: usize,
    mut run: impl FnMut(&ScheduleSpec) -> (T, ScheduleTrace),
) -> Vec<(ScheduleSpec, T)> {
    let mut seen: std::collections::HashSet<Vec<u32>> = std::collections::HashSet::new();
    let mut queue: VecDeque<Vec<u32>> = VecDeque::new();
    queue.push_back(Vec::new());
    seen.insert(Vec::new());
    let mut out = Vec::new();
    while let Some(prefix) = queue.pop_front() {
        let spec = ScheduleSpec {
            seed,
            prefix: prefix.clone(),
        };
        let (value, trace) = run(&spec);
        // Branch at every choice point beyond this prefix, up to depth k.
        for d in prefix.len()..trace.decisions.len().min(k) {
            let taken = &trace.decisions[..=d];
            for alt in 0..taken[d].arity {
                if alt == taken[d].picked {
                    continue;
                }
                let mut p: Vec<u32> = taken[..d].iter().map(|c| c.picked).collect();
                p.push(alt);
                if seen.insert(p.clone()) {
                    queue.push_back(p);
                }
            }
        }
        out.push((spec, value));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::time::Instant;

    const SIXTY_SECONDS: Duration = Duration::from_secs(60);

    fn msg(tag: u32, byte: u8) -> Message {
        Message {
            tag,
            payload: Bytes::from(vec![byte]),
        }
    }

    /// Runs `f(rank, &sim)` on `size` threads over a fresh SimNet.
    fn with_ranks<R: Send>(
        size: usize,
        spec: ScheduleSpec,
        cost: CostModel,
        f: impl Fn(usize, &SimNet) -> R + Sync,
    ) -> (Vec<R>, ScheduleTrace) {
        let sim = SimNet::new(size, cost, spec);
        let mut results: Vec<Option<R>> = (0..size).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..size)
                .map(|rank| {
                    let sim = Arc::clone(&sim);
                    let f = &f;
                    scope.spawn(move || {
                        let r = f(rank, &sim);
                        sim.finish_rank(rank);
                        sim.close_rank(rank);
                        r
                    })
                })
                .collect();
            for (rank, h) in handles.into_iter().enumerate() {
                results[rank] = Some(h.join().expect("rank thread panicked"));
            }
        });
        let trace = sim.take_trace();
        (results.into_iter().map(Option::unwrap).collect(), trace)
    }

    #[test]
    fn delivery_advances_receiver_clock_by_cost() {
        let cost = CostModel {
            t_s: 1e-3,
            t_c: 1e-6,
        };
        let (clocks, _) = with_ranks(2, ScheduleSpec::default(), cost, |rank, sim| {
            if rank == 0 {
                sim.send(0, 1, msg(0, 7), 0.0).unwrap();
                sim.now(0)
            } else {
                let got = sim.recv_from(1, 0, SIXTY_SECONDS).unwrap();
                assert_eq!(got.payload[0], 7);
                sim.now(1)
            }
        });
        assert_eq!(clocks[0], 0.0, "sends are buffered; sender does not wait");
        let expect = 1e-3 + 1.0 * 1e-6;
        assert!(
            (clocks[1] - expect).abs() < 1e-15,
            "receiver clock {} != {expect}",
            clocks[1]
        );
    }

    #[test]
    fn virtual_deadline_fires_instantly_in_wall_time() {
        let wall = Instant::now();
        let (out, _) = with_ranks(
            2,
            ScheduleSpec::default(),
            CostModel::free(),
            |rank, sim| {
                if rank == 0 {
                    // A 60-virtual-second deadline with nothing in flight.
                    let r = sim.recv_from(0, 1, SIXTY_SECONDS);
                    (r.err(), sim.now(0))
                } else {
                    // Stay parked past rank 0's deadline so its timeout
                    // (not our endpoint closing) fires first; once rank 0
                    // closes, this wait resolves as a disconnect.
                    let r = sim.recv_from(1, 0, 2 * SIXTY_SECONDS);
                    (r.err(), 0.0)
                }
            },
        );
        let timeout = CommError::Timeout {
            from: 1,
            waited: SIXTY_SECONDS,
        };
        assert_eq!(out[0].0, Some(timeout));
        assert_eq!(out[0].1, 60.0, "the clock jumped to the deadline");
        assert!(
            wall.elapsed().as_secs() < 30,
            "virtual waiting must not consume wall-clock time"
        );
    }

    #[test]
    fn closed_sender_reports_disconnected_after_drain() {
        let (out, _) = with_ranks(
            2,
            ScheduleSpec::default(),
            CostModel::free(),
            |rank, sim| {
                if rank == 0 {
                    sim.send(0, 1, msg(3, 9), 0.0).unwrap();
                    0
                } else {
                    // The buffered message survives the sender's exit...
                    let got = sim.recv_from(1, 0, SIXTY_SECONDS).unwrap();
                    assert_eq!(got.payload[0], 9);
                    // ...and only then does the link read as dead.
                    match sim.recv_from(1, 0, SIXTY_SECONDS) {
                        Err(CommError::Disconnected { peer: 0 }) => 1,
                        other => panic!("expected disconnect, got {other:?}"),
                    }
                }
            },
        );
        assert_eq!(out, vec![0, 1]);
    }

    /// Three senders racing into one receiver at the same instant: the
    /// ready set has arity 3, then 2 — the controller's playground.
    fn race_order(spec: ScheduleSpec) -> (Vec<u8>, ScheduleTrace) {
        let (out, trace) = with_ranks(4, spec, CostModel::free(), |rank, sim| {
            if rank == 0 {
                let mut order = Vec::new();
                while order.len() < 3 {
                    sim.wait_any(0, None, Some(600.0));
                    let (msgs, _) = sim.drain(0);
                    for (_, m) in msgs {
                        order.push(m.payload[0]);
                    }
                }
                order
            } else {
                sim.send(rank, 0, msg(0, rank as u8), 0.0).unwrap();
                Vec::new()
            }
        });
        (out[0].clone(), trace)
    }

    #[test]
    fn same_seed_replays_identical_order_and_trace() {
        let (a, ta) = race_order(ScheduleSpec::seeded(42));
        let (b, tb) = race_order(ScheduleSpec::seeded(42));
        assert_eq!(a, b);
        assert_eq!(ta, tb);
        assert_eq!(ta.digest(), tb.digest());
        assert!(
            !ta.decisions.is_empty(),
            "three same-instant arrivals must create choice points"
        );
    }

    #[test]
    fn different_seeds_permute_delivery_order() {
        let orders: std::collections::HashSet<Vec<u8>> = (0..16u64)
            .map(|s| race_order(ScheduleSpec::seeded(s)).0)
            .collect();
        assert!(
            orders.len() > 1,
            "16 seeds all produced the same delivery order"
        );
    }

    #[test]
    fn prefix_forces_the_choice() {
        // At the first choice point the ready set is the three
        // deliveries in (src, dst) link order; forcing index i must
        // hand the receiver sender i+1's message first.
        for forced in 0..3u32 {
            let (order, trace) = race_order(ScheduleSpec {
                seed: 7,
                prefix: vec![forced],
            });
            assert_eq!(trace.decisions[0].picked, forced);
            assert_eq!(
                order[0],
                (forced + 1) as u8,
                "forced choice {forced} must deliver that sender first"
            );
        }
    }

    #[test]
    fn explore_schedules_covers_first_choice_point_exhaustively() {
        let runs = explore_schedules(3, 1, |spec| {
            let (order, trace) = race_order(spec.clone());
            (order, trace)
        });
        // Empty prefix + the 2 alternatives at the arity-3 first point.
        assert_eq!(runs.len(), 3);
        let firsts: std::collections::HashSet<u8> =
            runs.iter().map(|(_, order)| order[0]).collect();
        assert_eq!(firsts.len(), 3, "all three first-deliveries explored");
    }

    #[test]
    fn virtual_deadlock_panics_instead_of_hanging() {
        let wall = Instant::now();
        let sim = SimNet::new(2, CostModel::free(), ScheduleSpec::default());
        let result = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|rank| {
                    let sim = Arc::clone(&sim);
                    scope.spawn(move || {
                        // Both ranks linger forever without finishing:
                        // no events, no deadlines — a true deadlock.
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            sim.linger(rank)
                        }));
                        sim.close_rank(rank);
                        r.is_err()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        assert!(result.iter().all(|&panicked| panicked));
        assert!(sim.failure().unwrap().contains("virtual deadlock"));
        assert!(wall.elapsed().as_secs() < 30);
    }

    #[test]
    fn non_overtaking_within_one_link() {
        // Even under adversarial seeds, two messages on the same link
        // always arrive in send order.
        for seed in 0..8u64 {
            let (out, _) = with_ranks(
                2,
                ScheduleSpec::seeded(seed),
                CostModel::free(),
                |rank, sim| {
                    if rank == 0 {
                        sim.send(0, 1, msg(0, 1), 0.0).unwrap();
                        sim.send(0, 1, msg(0, 2), 0.0).unwrap();
                        Vec::new()
                    } else {
                        let a = sim.recv_from(1, 0, SIXTY_SECONDS).unwrap();
                        let b = sim.recv_from(1, 0, SIXTY_SECONDS).unwrap();
                        vec![a.payload[0], b.payload[0]]
                    }
                },
            );
            assert_eq!(out[1], vec![1, 2], "seed {seed} reordered a link");
        }
    }
}
