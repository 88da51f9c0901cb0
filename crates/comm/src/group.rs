//! Spawning a group of rank threads.

use std::panic::AssertUnwindSafe;
use std::time::Duration;

use parking_lot::Mutex;

use crate::cost::CostModel;
use crate::endpoint::{Endpoint, EndpointConfig, DEFAULT_RECV_DEADLINE};
use crate::fault::{FaultConfig, FaultPlan};
use crate::reliable::ReliabilityConfig;
use crate::stats::TrafficStats;
use crate::transport::Transport;
use crate::vclock::{ScheduleSpec, ScheduleTrace};

/// Group-wide knobs for a run: cost model, receive deadline, fault
/// injection, the reliable-delivery policy, and (optionally) a
/// deterministic virtual-time schedule.
#[derive(Clone, Debug)]
pub struct GroupOptions {
    /// Communication cost model applied to every received message.
    pub cost: CostModel,
    /// How long a blocking receive waits before declaring a deadlock.
    pub recv_deadline: Duration,
    /// Fault-injection campaign, if any.
    pub faults: Option<FaultConfig>,
    /// Reliable-delivery (framing + ack/retransmit) policy.
    pub reliability: ReliabilityConfig,
    /// When set, the run executes under the discrete-event virtual clock
    /// (see [`crate::vclock`]): timeouts become virtual, delivery order
    /// is permuted deterministically by the spec's seed, and the whole
    /// run is bit-reproducible.
    pub schedule: Option<ScheduleSpec>,
}

impl Default for GroupOptions {
    fn default() -> Self {
        GroupOptions {
            cost: CostModel::sp2(),
            recv_deadline: DEFAULT_RECV_DEADLINE,
            faults: None,
            reliability: ReliabilityConfig::default(),
            schedule: None,
        }
    }
}

/// The outcome of a group run: each rank's return value plus its traffic.
#[derive(Debug)]
pub struct GroupRun<R> {
    /// Per-rank results, indexed by rank.
    pub results: Vec<R>,
    /// Per-rank traffic stats, indexed by rank.
    pub stats: Vec<TrafficStats>,
    /// Ranks killed by fault injection during the run (ascending).
    pub dead_ranks: Vec<usize>,
    /// The schedule the run took, when it ran under virtual time.
    pub schedule: Option<ScheduleTrace>,
}

impl<R> GroupRun<R> {
    /// The paper's `M_max`: maximum bytes received by any rank.
    pub fn m_max(&self) -> u64 {
        crate::stats::m_max(&self.stats)
    }

    /// Maximum modeled communication time over ranks, in seconds.
    pub fn max_comm_seconds(&self) -> f64 {
        crate::stats::max_comm_seconds(&self.stats)
    }

    /// True when fault injection killed at least one rank.
    pub fn is_degraded(&self) -> bool {
        !self.dead_ranks.is_empty()
    }
}

/// Runs `f` on `size` simulated processors and collects results.
///
/// Every rank runs on its own OS thread with a private [`Endpoint`]; rank
/// threads share nothing else. A panic on any rank propagates (the group
/// run panics), so test assertions may live inside rank functions.
///
/// ```
/// use bytes::Bytes;
/// use vr_comm::{run_group, CostModel};
///
/// // Each rank sends its id to the next rank around a ring.
/// let out = run_group(4, CostModel::sp2(), |ep| {
///     let next = (ep.rank() + 1) % ep.size();
///     let prev = (ep.rank() + ep.size() - 1) % ep.size();
///     ep.send(next, 0, Bytes::from(vec![ep.rank() as u8])).unwrap();
///     ep.recv(prev, 0).unwrap()[0] as usize
/// });
/// assert_eq!(out.results, vec![3, 0, 1, 2]);
/// assert!(out.m_max() > 0);
/// ```
pub fn run_group<R, F>(size: usize, cost: CostModel, f: F) -> GroupRun<R>
where
    R: Send,
    F: Fn(&mut Endpoint) -> R + Sync,
{
    run_group_with(
        size,
        GroupOptions {
            cost,
            ..Default::default()
        },
        f,
    )
}

/// [`run_group`] with full control over deadline, faults and reliability.
///
/// If a rank panics, its endpoint is dropped *immediately* (so partners
/// observe `Disconnected` instead of blocking until the receive
/// deadline), every other rank is still allowed to finish, and the
/// original panic is then re-raised.
pub fn run_group_with<R, F>(size: usize, options: GroupOptions, f: F) -> GroupRun<R>
where
    R: Send,
    F: Fn(&mut Endpoint) -> R + Sync,
{
    assert!(size >= 1, "group must have at least one rank");

    let plan = options
        .faults
        .filter(|cfg| !cfg.is_noop())
        .map(FaultPlan::new);
    let (nets, sim) = Transport::group(size, options.cost, options.schedule.as_ref());
    let endpoints: Vec<Endpoint> = nets
        .into_iter()
        .enumerate()
        .map(|(rank, net)| {
            let config = EndpointConfig {
                cost: options.cost,
                recv_deadline: options.recv_deadline,
                reliability: options.reliability,
                faults: plan,
                kill_at: plan.and_then(|p| p.kill_threshold(rank)),
            };
            Endpoint::new(rank, size, net, config)
        })
        .collect();

    let slots: Mutex<Vec<Option<(R, TrafficStats)>>> =
        Mutex::new((0..size).map(|_| None).collect());
    let dead_flags: Mutex<Vec<bool>> = Mutex::new(vec![false; size]);
    // Panic payloads in the order they occurred; the first is re-raised
    // (later ones are usually cascades from the first rank's death).
    let panics: Mutex<Vec<Box<dyn std::any::Any + Send + 'static>>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(size);
        for mut ep in endpoints {
            let rank = ep.rank();
            let fr = &f;
            let res = &slots;
            let dead = &dead_flags;
            let boom = &panics;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .spawn_scoped(scope, move || {
                        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| fr(&mut ep)));
                        let killed = ep.is_dead();
                        // A healthy rank's transport state outlives
                        // its last receive: re-ack retransmissions
                        // until the whole group is done so lost acks
                        // don't masquerade as a dead peer. Killed or
                        // panicking ranks drop immediately instead —
                        // that disconnect *is* their failure signal.
                        ep.finish(outcome.is_ok() && !killed);
                        let stats = ep.into_stats();
                        // `ep` is gone here: its transport is closed,
                        // so partners blocked on this rank see
                        // `Disconnected` now rather than at the deadline.
                        match outcome {
                            Ok(r) => {
                                dead.lock()[rank] = killed;
                                res.lock()[rank] = Some((r, stats));
                            }
                            Err(payload) => {
                                dead.lock()[rank] = true;
                                boom.lock().push(payload);
                            }
                        }
                    })
                    .expect("failed to spawn rank thread"),
            );
        }
        for h in handles {
            // Rank bodies run under catch_unwind, so joins only fail on
            // runtime-internal panics; propagate those unchanged.
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    let schedule = sim.map(|s| s.take_trace());

    let mut panics = panics.into_inner();
    if !panics.is_empty() {
        std::panic::resume_unwind(panics.remove(0));
    }

    let mut results_out = Vec::with_capacity(size);
    let mut stats_out = Vec::with_capacity(size);
    for slot in slots.into_inner() {
        let (r, s) = slot.expect("rank thread completed without storing a result");
        results_out.push(r);
        stats_out.push(s);
    }
    let dead_ranks = dead_flags
        .into_inner()
        .iter()
        .enumerate()
        .filter_map(|(rank, &d)| d.then_some(rank))
        .collect();
    GroupRun {
        results: results_out,
        stats: stats_out,
        dead_ranks,
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::time::Instant;

    #[test]
    fn single_rank_group_runs() {
        let out = run_group(1, CostModel::free(), |ep| ep.rank() + ep.size());
        assert_eq!(out.results, vec![1]);
        assert_eq!(out.stats.len(), 1);
        assert!(out.dead_ranks.is_empty());
        assert!(!out.is_degraded());
    }

    #[test]
    fn results_indexed_by_rank() {
        let out = run_group(16, CostModel::free(), |ep| ep.rank() * 2);
        assert_eq!(out.results, (0..16).map(|r| r * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn zero_size_group_rejected() {
        let _ = run_group(0, CostModel::free(), |_| ());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn rank_panic_propagates() {
        let _ = run_group(4, CostModel::free(), |ep| {
            if ep.rank() == 2 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn dying_rank_unblocks_partners_immediately() {
        // Regression: a panicking rank used to leave partners blocked in
        // `recv` until the 60s deadline, because its endpoint (and thus
        // its outgoing channel senders) stayed alive until the scope
        // joined every thread. Now the endpoint drops as soon as the
        // rank body unwinds, partners see `Disconnected` right away, and
        // the original panic is re-raised afterwards.
        let started = Instant::now();
        let outcome = std::panic::catch_unwind(|| {
            run_group(2, CostModel::free(), |ep| {
                if ep.rank() == 1 {
                    panic!("kaboom");
                }
                // Rank 0 waits on the dying rank; it must not hang.
                let got = ep.recv(1, 0);
                assert_eq!(got, Err(crate::RecvError::Disconnected { from: 1 }));
            })
        });
        let elapsed = started.elapsed();
        let payload = outcome.expect_err("the rank panic must re-raise");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "kaboom", "the original panic payload survives");
        assert!(
            elapsed < Duration::from_secs(10),
            "partners must unblock promptly, took {elapsed:?}"
        );
    }

    #[test]
    fn survivors_finish_before_panic_re_raise() {
        // All non-panicking ranks complete their work and store results
        // even though the run ultimately re-raises.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static FINISHED: AtomicUsize = AtomicUsize::new(0);
        FINISHED.store(0, Ordering::SeqCst);
        let outcome = std::panic::catch_unwind(|| {
            run_group(4, CostModel::free(), |ep| {
                if ep.rank() == 0 {
                    panic!("die");
                }
                // Survivors talk among themselves (ring over ranks 1..4).
                let next = 1 + (ep.rank() % 3);
                let prev = 1 + ((ep.rank() + 1) % 3);
                ep.send(next, 0, Bytes::from(vec![ep.rank() as u8]))
                    .unwrap();
                let _ = ep.recv(prev, 0).unwrap();
                FINISHED.fetch_add(1, Ordering::SeqCst);
            })
        });
        assert!(outcome.is_err());
        assert_eq!(FINISHED.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn virtual_time_ring_is_reproducible_and_traced() {
        let run = |seed: u64| {
            let options = GroupOptions {
                cost: CostModel::sp2(),
                schedule: Some(ScheduleSpec::seeded(seed)),
                ..Default::default()
            };
            run_group_with(8, options, |ep| {
                let next = (ep.rank() + 1) % ep.size();
                let prev = (ep.rank() + ep.size() - 1) % ep.size();
                ep.send(next, 7, Bytes::from(vec![ep.rank() as u8]))
                    .unwrap();
                ep.recv(prev, 7).unwrap()[0] as usize
            })
        };
        let a = run(1);
        let b = run(1);
        assert_eq!(a.results, (0..8).map(|r| (r + 7) % 8).collect::<Vec<_>>());
        assert_eq!(a.results, b.results);
        let (ta, tb) = (a.schedule.unwrap(), b.schedule.unwrap());
        assert_eq!(ta, tb, "same seed must replay the same schedule");
        assert!(ta.events >= 8, "eight deliveries at minimum");
        assert!(
            ta.virtual_seconds > 0.0,
            "sp2 latency must advance virtual time"
        );
    }

    #[test]
    fn virtual_time_reliable_fault_recovery_is_instant_and_deterministic() {
        // A dropped data frame forces an ack-timeout retransmission; in
        // virtual time the 10ms default ack timeout costs no wall time
        // and the healed run is bit-reproducible.
        let run = || {
            let faults = FaultConfig {
                target: Some(crate::fault::TargetedFault {
                    src: 0,
                    dst: 1,
                    class: crate::fault::StreamClass::Data,
                    index: 0,
                    action: crate::fault::FaultAction::Drop,
                }),
                ..Default::default()
            };
            let options = GroupOptions {
                cost: CostModel::free(),
                reliability: ReliabilityConfig::on(),
                faults: Some(faults),
                schedule: Some(ScheduleSpec::seeded(5)),
                ..Default::default()
            };
            run_group_with(2, options, |ep| {
                if ep.rank() == 0 {
                    ep.send(1, 3, Bytes::from_static(b"precious")).unwrap();
                    Bytes::new()
                } else {
                    ep.recv(0, 3).unwrap()
                }
            })
        };
        let started = Instant::now();
        let a = run();
        let b = run();
        assert_eq!(&a.results[1][..], b"precious");
        assert!(a.stats[0].retransmits >= 1, "the drop must force a retry");
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.schedule.unwrap().digest(), b.schedule.unwrap().digest());
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "virtual ack timeouts must not consume wall time"
        );
    }

    #[test]
    fn virtual_time_kill_degrades_like_real_time() {
        let options = GroupOptions {
            cost: CostModel::free(),
            faults: Some(FaultConfig {
                kill: Some(crate::fault::KillSpec {
                    rank: 1,
                    after_ops: 0,
                }),
                ..Default::default()
            }),
            schedule: Some(ScheduleSpec::seeded(0)),
            ..Default::default()
        };
        let out = run_group_with(3, options, |ep| {
            let payload = Bytes::from(vec![ep.rank() as u8]);
            if ep.rank() == 0 {
                let mut got = Vec::new();
                for src in 1..3 {
                    got.push(ep.recv(src, 4).ok().map(|b| b[0]));
                }
                got
            } else {
                let _ = ep.send(0, 4, payload);
                Vec::new()
            }
        });
        assert_eq!(out.dead_ranks, vec![1]);
        assert_eq!(out.results[0], vec![None, Some(2)]);
    }

    #[test]
    fn virtual_time_self_send() {
        let options = GroupOptions {
            cost: CostModel::free(),
            schedule: Some(ScheduleSpec::seeded(9)),
            ..Default::default()
        };
        let out = run_group_with(4, options, |ep| {
            ep.send(ep.rank(), 9, Bytes::from(vec![ep.rank() as u8]))
                .unwrap();
            ep.recv(ep.rank(), 9).unwrap()[0]
        });
        assert_eq!(out.results, vec![0, 1, 2, 3]);
    }

    #[test]
    fn noop_fault_config_is_ignored() {
        let options = GroupOptions {
            cost: CostModel::free(),
            faults: Some(FaultConfig::default()),
            ..Default::default()
        };
        let out = run_group_with(2, options, |ep| {
            ep.exchange(1 - ep.rank(), 0, Bytes::from_static(b"ok"))
                .unwrap()
                .len()
        });
        assert_eq!(out.results, vec![2, 2]);
        assert!(out.dead_ranks.is_empty());
    }
}
