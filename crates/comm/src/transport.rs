//! The transport surface under [`Endpoint`](crate::Endpoint): what one
//! rank needs from the network, and the two networks that provide it.
//!
//! * [`Transport::Channels`] — real time: one unbounded channel per
//!   ordered `(src, dst)` pair, an `Instant` epoch for the clock, and a
//!   short sleep wherever a wait loop has nothing to do. This is the only
//!   place in the crate that reads the wall clock or sleeps.
//! * [`Transport::Sim`] — virtual time: one rank's handle onto the
//!   group's [`SimNet`], which already has exactly this surface.
//!
//! Everything above (fault injection, the ARQ, the endpoint's receive
//! loops) is written once against these calls and cannot tell which
//! network it runs on. Time is `f64` seconds on the rank's own clock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::cost::CostModel;
use crate::endpoint::Message;
use crate::vclock::{LingerOutcome, ScheduleSpec, SimNet, VRecvError};

/// How long the channel transport sleeps when a wait loop polls it with
/// nothing to deliver.
const PUMP_SLEEP: Duration = Duration::from_micros(50);

/// One rank's connection to its group. Dropping it closes the rank:
/// peers drain what it already sent and then see it disconnected.
pub(crate) enum Transport {
    /// Real-time channels.
    Channels(ChannelNet),
    /// This rank's handle onto the group's virtual-time network.
    Sim { net: Arc<SimNet>, rank: usize },
}

impl Transport {
    /// One transport per rank of a `size`-rank group: virtual time when
    /// `schedule` is set (the shared [`SimNet`] is returned too, for its
    /// trace), real-time channels otherwise.
    pub(crate) fn group(
        size: usize,
        cost: CostModel,
        schedule: Option<&ScheduleSpec>,
    ) -> (Vec<Transport>, Option<Arc<SimNet>>) {
        match schedule {
            Some(spec) => {
                let net = SimNet::new(size, cost, spec.clone());
                let ranks = (0..size)
                    .map(|rank| Transport::Sim {
                        net: Arc::clone(&net),
                        rank,
                    })
                    .collect();
                (ranks, Some(net))
            }
            None => {
                let ranks = ChannelNet::mesh(size)
                    .into_iter()
                    .map(Transport::Channels)
                    .collect();
                (ranks, None)
            }
        }
    }

    /// This rank's clock, seconds.
    pub(crate) fn now(&self) -> f64 {
        match self {
            Transport::Channels(ch) => ch.now(),
            Transport::Sim { net, rank } => net.now(*rank),
        }
    }

    /// Queues `msg` for `dst` without blocking. `extra_secs` is modeled
    /// latency the message carries under virtual time (a fault `delay`,
    /// see [`Transport::hold`]); real channels ignore it, because the
    /// stall already happened in real time. `Err` means `dst` has
    /// closed, or this rank closed its link to `dst`.
    pub(crate) fn send(&self, dst: usize, msg: Message, extra_secs: f64) -> Result<(), ()> {
        match self {
            Transport::Channels(ch) => ch.to[dst].send(msg).map_err(|_| ()),
            Transport::Sim { net, rank } => net.send(*rank, dst, msg, extra_secs),
        }
    }

    /// Closes this rank's link to `dst` for good: `dst` takes what
    /// arrived, then sees this rank disconnected, and later sends on it
    /// fail (a real channel's sender is swapped for one with no receiver).
    pub(crate) fn close_link(&mut self, dst: usize) {
        match self {
            Transport::Channels(ch) => ch.to[dst] = channel().0,
            Transport::Sim { net, rank } => net.close_link(*rank, dst),
        }
    }

    /// Holds the next transmission back by `delay` (a fault-injected
    /// stall). Real time stalls the sender; virtual time returns the
    /// delay as extra latency for the message to carry instead.
    pub(crate) fn hold(&self, delay: Duration) -> f64 {
        match self {
            Transport::Channels(_) => {
                std::thread::sleep(delay);
                0.0
            }
            Transport::Sim { .. } => delay.as_secs_f64(),
        }
    }

    /// Blocks for the next message from `src`, at most `timeout`.
    pub(crate) fn recv_from(&self, src: usize, timeout: Duration) -> Result<Message, VRecvError> {
        match self {
            Transport::Channels(ch) => ch.from[src].recv_timeout(timeout).map_err(|e| match e {
                RecvTimeoutError::Timeout => VRecvError::Timeout,
                RecvTimeoutError::Disconnected => VRecvError::Disconnected,
            }),
            Transport::Sim { net, rank } => {
                let deadline = net.now(*rank) + timeout.as_secs_f64();
                net.recv_from(*rank, src, deadline)
            }
        }
    }

    /// Takes every message that has arrived, without blocking: FIFO per
    /// source, sources ascending. The second value flags each source
    /// that has closed with nothing left to deliver.
    pub(crate) fn drain(&self) -> (Vec<(usize, Message)>, Vec<bool>) {
        match self {
            Transport::Channels(ch) => ch.drain(),
            Transport::Sim { net, rank } => net.drain(*rank),
        }
    }

    /// Waits for something to change — an arrival, `watch` closing — but
    /// never past `deadline` (seconds on [`Transport::now`]'s clock).
    /// May return early; callers re-check their condition in a loop.
    pub(crate) fn wait_any(&self, watch: Option<usize>, deadline: f64) {
        match self {
            Transport::Channels(ch) => ch.wait_any(deadline),
            Transport::Sim { net, rank } => {
                net.wait_any(*rank, watch, Some(deadline));
            }
        }
    }

    /// Waits, as a rank whose work is done, for frames to answer or for
    /// the whole group to finish.
    pub(crate) fn linger(&self) -> LingerOutcome {
        match self {
            Transport::Channels(ch) => ch.linger(),
            Transport::Sim { net, rank } => net.linger(*rank),
        }
    }

    /// Records that this rank's work is done (see [`Transport::linger`]).
    pub(crate) fn finish_rank(&self) {
        match self {
            Transport::Channels(ch) => {
                ch.finished.fetch_add(1, Ordering::SeqCst);
            }
            Transport::Sim { net, rank } => net.finish_rank(*rank),
        }
    }
}

impl Drop for Transport {
    fn drop(&mut self) {
        // Channels close by dropping their senders; the simulator has to
        // be told, at the same moment.
        if let Transport::Sim { net, rank } = self {
            net.close_rank(*rank);
        }
    }
}

/// One rank's ends of the real-time channel mesh.
pub(crate) struct ChannelNet {
    /// `to[dst]` delivers into dst's mailbox slot for this rank.
    to: Vec<Sender<Message>>,
    /// `from[src]` receives messages sent by `src` to this rank.
    from: Vec<Receiver<Message>>,
    /// Ranks of the group whose work is done.
    finished: Arc<AtomicUsize>,
    /// Zero of the group's clock.
    epoch: Instant,
}

impl ChannelNet {
    /// Wires one dedicated channel per ordered `(src, dst)` pair, so
    /// selective receive-by-source never reorders unrelated messages.
    fn mesh(size: usize) -> Vec<ChannelNet> {
        let mut to: Vec<Vec<Sender<Message>>> =
            (0..size).map(|_| Vec::with_capacity(size)).collect();
        let mut from: Vec<Vec<Receiver<Message>>> =
            (0..size).map(|_| Vec::with_capacity(size)).collect();
        for from_srcs in from.iter_mut() {
            for to_dsts in to.iter_mut() {
                let (tx, rx) = channel();
                to_dsts.push(tx);
                from_srcs.push(rx);
            }
        }
        let finished = Arc::new(AtomicUsize::new(0));
        let epoch = Instant::now();
        to.into_iter()
            .zip(from)
            .map(|(to, from)| ChannelNet {
                to,
                from,
                finished: Arc::clone(&finished),
                epoch,
            })
            .collect()
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn drain(&self) -> (Vec<(usize, Message)>, Vec<bool>) {
        let mut msgs = Vec::new();
        let mut closed = vec![false; self.from.len()];
        for (src, rx) in self.from.iter().enumerate() {
            loop {
                match rx.try_recv() {
                    Ok(msg) => msgs.push((src, msg)),
                    Err(TryRecvError::Empty) => break,
                    // Reported only once the channel is empty as well.
                    Err(TryRecvError::Disconnected) => {
                        closed[src] = true;
                        break;
                    }
                }
            }
        }
        (msgs, closed)
    }

    fn wait_any(&self, deadline: f64) {
        let left = deadline - self.now();
        if left > 0.0 {
            std::thread::sleep(PUMP_SLEEP.min(Duration::from_secs_f64(left)));
        }
    }

    fn linger(&self) -> LingerOutcome {
        if self.finished.load(Ordering::SeqCst) == self.to.len() {
            return LingerOutcome::GroupDone;
        }
        std::thread::sleep(PUMP_SLEEP);
        LingerOutcome::Frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn msg(byte: u8) -> Message {
        Message {
            tag: 0,
            payload: Bytes::from(vec![byte]),
        }
    }

    fn pair() -> (Transport, Transport) {
        let (mut nets, sim) = Transport::group(2, CostModel::free(), None);
        assert!(sim.is_none());
        let b = nets.pop().unwrap();
        (nets.pop().unwrap(), b)
    }

    #[test]
    fn channel_wait_any_never_outlasts_its_deadline() {
        let (a, _b) = pair();
        // A deadline already behind the clock returns without sleeping...
        let started = Instant::now();
        for _ in 0..1000 {
            a.wait_any(None, a.now() - 1.0);
        }
        assert!(
            started.elapsed() < Duration::from_millis(40),
            "1000 expired waits slept: {:?}",
            started.elapsed()
        );
        // ...a near one cuts the poll sleep short of `PUMP_SLEEP`, and a
        // far one still returns after one poll, not at the deadline.
        let started = Instant::now();
        for _ in 0..20 {
            a.wait_any(None, a.now() + 3600.0);
        }
        assert!(started.elapsed() >= 20 * PUMP_SLEEP);
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn channel_drain_reports_closed_only_when_disconnected_and_empty() {
        let (a, b) = pair();
        b.send(0, msg(1), 0.0).unwrap();
        b.send(0, msg(2), 0.0).unwrap();
        drop(b);
        // The sender is gone, but the recv_from leaves one message
        // queued: not closed yet.
        assert_eq!(
            a.recv_from(1, Duration::from_secs(5)).unwrap().payload[0],
            1
        );
        // The drain that empties the channel also sees it disconnected.
        let (msgs, closed) = a.drain();
        assert_eq!(msgs.len(), 1);
        assert_eq!((msgs[0].0, msgs[0].1.payload[0]), (1, 2));
        assert_eq!(closed, vec![false, true], "own loopback stays open");
        let (msgs, closed) = a.drain();
        assert!(msgs.is_empty());
        assert_eq!(closed, vec![false, true]);
        assert_eq!(
            a.recv_from(1, Duration::from_secs(5)).err(),
            Some(VRecvError::Disconnected)
        );
        assert!(a.send(1, msg(3), 0.0).is_err(), "peer's mailbox is gone");
    }

    #[test]
    fn channel_drain_keeps_a_live_empty_source_open() {
        let (a, b) = pair();
        let (msgs, closed) = a.drain();
        assert!(msgs.is_empty());
        assert_eq!(closed, vec![false, false]);
        b.send(0, msg(7), 0.0).unwrap();
        let (msgs, closed) = a.drain();
        assert_eq!(msgs.len(), 1);
        assert_eq!(closed, vec![false, false]);
    }
}
