//! Running a group of ranks on resident threads.
//!
//! A group of `P` ranks runs rank 0 — the gather root — on the calling
//! thread and ranks `1..P` on threads leased from one process-wide stack
//! of parked rank threads. A call spawns only the threads the stack
//! lacks and parks them again once every rank is done, so a frame on a
//! warm process starts no thread: like the paper's SP2, which runs one
//! long-lived process per node, a composited frame never pays to start
//! a PE. At most `MAX_PARKED_THREADS` (64) stay parked; threads past
//! the cap exit.
//!
//! Only the threads are resident. Everything a rank sees is built per
//! call: the transport (channel mesh or [`crate::SimNet`]), the
//! [`Endpoint`], its link layer, the fault plan and the kill
//! thresholds. So a frame replays, kills, lingers and panics exactly as
//! it would on fresh threads.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
#[cfg(test)]
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, SendError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

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

/// Runs `f` on `size` simulated processors and collects results.
///
/// Every rank has a private [`Endpoint`] and shares nothing else with
/// the others; rank 0 runs on the calling thread, every other rank on a
/// resident rank thread of its own (see the module docs). A panic on
/// any rank propagates (the group run panics), so test assertions may
/// live inside rank functions.
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
/// assert!(out.stats.iter().all(|s| s.recv_bytes == 1));
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
/// panic that came first on the transport's clock is then re-raised,
/// the lower rank on a tie. Under a schedule seed that clock is each
/// rank's virtual clock, so the re-raised panic replays with the run; on
/// real channels every rank reads one epoch, so it is the first failure.
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

    // Every critical section on these three is one store or push, so
    // `locked` may take them past a poisoned lock.
    let slots: Mutex<Vec<Option<(R, TrafficStats)>>> =
        Mutex::new((0..size).map(|_| None).collect());
    let dead_flags: Mutex<Vec<bool>> = Mutex::new(vec![false; size]);
    // Each panic as (the rank's clock when its body ended, rank,
    // payload); the earliest is re-raised (later ones are usually
    // cascades from the first rank's death).
    let panics = Mutex::new(Vec::new());

    // One rank from start to finish. It never unwinds: a panic in the
    // body or in the link layer's wind-down becomes a stored payload.
    let run_rank = |mut ep: Endpoint| {
        let rank = ep.rank();
        let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut ep)));
        let at = ep.now();
        let killed = ep.is_dead();
        // A healthy rank's transport state outlives its last receive:
        // re-ack retransmissions until the whole group is done so lost
        // acks don't masquerade as a dead peer. Killed, panicking or
        // given-up ranks drop immediately instead — that disconnect *is*
        // their failure signal.
        let linger = outcome.is_ok() && !killed && !ep.given_up;
        let stats = catch_unwind(AssertUnwindSafe(move || {
            ep.finish(linger);
            ep.into_stats()
        }));
        // `ep` is gone here: its transport is closed, so partners
        // blocked on this rank see `Disconnected` now rather than at
        // the deadline.
        match (outcome, stats) {
            (Ok(r), Ok(stats)) => {
                locked(&dead_flags)[rank] = killed;
                locked(&slots)[rank] = Some((r, stats));
            }
            (Err(payload), _) | (_, Err(payload)) => {
                locked(&dead_flags)[rank] = true;
                locked(&panics).push((at, rank, payload));
            }
        }
    };

    {
        // Declared before the endpoints, so on every path — unwinding
        // included — the endpoints not yet dispatched drop first (their
        // partners see `Disconnected`) and this guard's drop then waits
        // for every dispatched rank before the borrows above can end.
        let dispatched = Dispatched::default();
        let mut endpoints = nets.into_iter().enumerate().map(|(rank, net)| {
            let config = EndpointConfig {
                cost: options.cost,
                recv_deadline: options.recv_deadline,
                reliability: options.reliability,
                faults: plan,
                kill_at: plan.and_then(|p| p.kill_threshold(rank)),
            };
            Endpoint::new(rank, size, net, config)
        });
        let root = endpoints.next().expect("a group has rank 0");
        let mut threads = lease(size - 1);
        for (thread, ep) in threads.iter_mut().zip(&mut endpoints) {
            let done = dispatched.one_more();
            let run_rank = &run_rank;
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                run_rank(ep);
                drop(done);
            });
            // SAFETY: only the lifetime is erased. The job borrows
            // `run_rank` and, through it, `f`, `slots`, `dead_flags` and
            // `panics`, all of which outlive `dispatched`. `done` counts
            // the job from this line until it has run or been dropped
            // unrun — whichever comes first, it is the job's last act —
            // and `dispatched`'s drop blocks until the count is zero. No
            // path out of this block skips that drop.
            let job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
            dispatch(thread, job);
        }
        run_rank(root);
        drop(dispatched);
        park(threads);
    }

    let schedule = sim.map(|s| s.take_trace());

    let first = panics
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    if let Some((_, _, payload)) = first {
        resume_unwind(payload);
    }

    let mut results_out = Vec::with_capacity(size);
    let mut stats_out = Vec::with_capacity(size);
    for slot in slots.into_inner().unwrap_or_else(PoisonError::into_inner) {
        let (r, s) = slot.expect("rank completed without storing a result");
        results_out.push(r);
        stats_out.push(s);
    }
    let dead_ranks = dead_flags
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
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

/// A rank's run on a resident thread, with its borrows' lifetime erased
/// (see the SAFETY argument in [`run_group_with`]).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A resident rank thread, as its job queue's sending half. The thread
/// runs one job at a time and exits when this handle drops.
type RankThread = SyncSender<Job>;

/// How many idle rank threads the process keeps. A group wider than
/// this, or groups running side by side, spawn what the stack lacks,
/// and what comes back past the cap exits.
const MAX_PARKED_THREADS: usize = 64;

/// Idle rank threads between groups, the most recently parked on top.
/// One stack for the process: concurrent groups and groups of different
/// widths share it, and a lease never waits for a thread. Every critical
/// section is one `split_off` or `extend`, so the stack behind a
/// poisoned lock is still good.
static PARKED: Mutex<Vec<RankThread>> = Mutex::new(Vec::new());

/// Rank threads spawned by this process, for the tests' warm-lease
/// check.
#[cfg(test)]
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

fn locked<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `n` idle rank threads: parked ones first, then new ones.
fn lease(n: usize) -> Vec<RankThread> {
    let mut threads = {
        let mut stack = locked(&PARKED);
        let keep = stack.len().saturating_sub(n);
        stack.split_off(keep)
    };
    threads.resize_with(n, spawn);
    threads
}

/// Returns `threads` to the stack, up to the cap; the rest exit.
fn park(mut threads: Vec<RankThread>) {
    let mut stack = locked(&PARKED);
    let room = MAX_PARKED_THREADS.saturating_sub(stack.len());
    let surplus = threads.split_off(room.min(threads.len()));
    stack.extend(threads);
    drop(stack);
    drop(surplus);
}

/// A new resident rank thread. Its `JoinHandle` is dropped: the thread
/// outlives every group it serves, and a job never unwinds out of it
/// (see `run_rank`), so there is no panic for a join to collect.
fn spawn() -> RankThread {
    let (thread, jobs) = sync_channel::<Job>(1);
    std::thread::Builder::new()
        .name("vr-rank".into())
        .spawn(move || {
            for job in jobs {
                job();
            }
        })
        .expect("failed to spawn rank thread");
    #[cfg(test)]
    SPAWNED.fetch_add(1, Ordering::SeqCst);
    thread
}

/// Hands `job` to `thread`, replacing a thread that is gone: a resident
/// thread that died is never reused. A leased thread is idle, so its
/// one-job queue is empty and the send never blocks.
fn dispatch(thread: &mut RankThread, job: Job) {
    if let Err(SendError(job)) = thread.send(job) {
        *thread = spawn();
        thread
            .send(job)
            .expect("a new rank thread takes its first job");
    }
}

/// Counts a group's dispatched ranks that have not finished; its drop
/// waits for the count to reach zero.
#[derive(Default)]
struct Dispatched(Arc<Outstanding>);

#[derive(Default)]
struct Outstanding {
    count: Mutex<usize>,
    zero: Condvar,
}

/// One dispatched rank's share of the count, given back on drop.
struct Done(Arc<Outstanding>);

impl Dispatched {
    fn one_more(&self) -> Done {
        *locked(&self.0.count) += 1;
        Done(Arc::clone(&self.0))
    }
}

impl Drop for Done {
    fn drop(&mut self) {
        let mut count = locked(&self.0.count);
        *count -= 1;
        if *count == 0 {
            self.0.zero.notify_all();
        }
    }
}

impl Drop for Dispatched {
    fn drop(&mut self) {
        let mut count = locked(&self.0.count);
        while *count > 0 {
            count = self
                .0
                .zero
                .wait(count)
                .unwrap_or_else(PoisonError::into_inner);
        }
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

    /// The panic payload a rank body raises in the tests below.
    #[derive(Debug, PartialEq)]
    struct RankFailed(usize);

    /// Each rank sends its id around a ring and returns what it got.
    fn ring(size: usize) -> GroupRun<usize> {
        run_group(size, CostModel::free(), |ep| {
            let next = (ep.rank() + 1) % ep.size();
            let prev = (ep.rank() + ep.size() - 1) % ep.size();
            ep.send(next, 0, Bytes::from(ep.rank().to_le_bytes().to_vec()))
                .unwrap();
            usize::from_le_bytes(ep.recv(prev, 0).unwrap()[..].try_into().unwrap())
        })
    }

    fn ring_results(size: usize) -> Vec<usize> {
        (0..size).map(|r| (r + size - 1) % size).collect()
    }

    /// Set in the child process [`a_warm_group_of_the_same_width_spawns_no_thread`]
    /// re-runs itself in.
    const ALONE: &str = "VR_COMM_GROUP_TEST_ALONE";

    #[test]
    fn a_warm_group_of_the_same_width_spawns_no_thread() {
        // Every test in this binary leases from the one stack, so the
        // count is exact only in a process that runs this test alone.
        if std::env::var_os(ALONE).is_none() {
            let child = std::process::Command::new(std::env::current_exe().unwrap())
                .args([
                    "--exact",
                    "group::tests::a_warm_group_of_the_same_width_spawns_no_thread",
                    "--test-threads=1",
                ])
                .env(ALONE, "1")
                .output()
                .unwrap();
            let report = String::from_utf8_lossy(&child.stdout);
            assert!(
                child.status.success() && report.contains("1 passed"),
                "the test alone in its own process:\n{report}{}",
                String::from_utf8_lossy(&child.stderr)
            );
            return;
        }
        let spawned = || SPAWNED.load(Ordering::SeqCst);
        let before = spawned();
        assert_eq!(ring(16).results, ring_results(16));
        assert_eq!(spawned() - before, 15, "a cold group spawns all but rank 0");
        for width in [16, 9, 2, 1] {
            let before = spawned();
            assert_eq!(ring(width).results, ring_results(width));
            assert_eq!(spawned(), before, "a warm group of {width} spawned");
        }
        assert_eq!(locked(&PARKED).len(), 15);
    }

    #[test]
    fn a_typed_panic_re_raises_intact_and_the_next_group_runs_clean() {
        for failing in [0, 2] {
            let outcome = std::panic::catch_unwind(|| {
                run_group(4, CostModel::free(), |ep| {
                    if ep.rank() == failing {
                        std::panic::panic_any(RankFailed(failing));
                    }
                    ep.rank()
                })
            });
            let payload = outcome.expect_err("the rank panic must re-raise");
            assert_eq!(payload.downcast_ref(), Some(&RankFailed(failing)));
            let clean = ring(4);
            assert_eq!(clean.results, ring_results(4));
            assert!(clean.dead_ranks.is_empty());
        }
    }

    /// Under a schedule seed the panic re-raised is the first in virtual
    /// time, not the first on the wall clock. Ranks 1 and 2 wake together
    /// when rank 3 closes; rank 2's clock stands past a 64 KiB message
    /// from rank 0, rank 1's at zero. Rank 2 panics at once, rank 1 only
    /// after a wall-clock sleep, and rank 1's panic is raised every time.
    /// The sleep only puts the wall-clock order against the virtual one;
    /// the assertion holds under any interleaving.
    #[test]
    fn the_panic_first_in_virtual_time_is_re_raised() {
        let options = GroupOptions {
            schedule: Some(ScheduleSpec::seeded(3)),
            ..Default::default()
        };
        for _ in 0..3 {
            let outcome = std::panic::catch_unwind(|| {
                run_group_with(4, options.clone(), |ep| match ep.rank() {
                    0 => ep.send(2, 0, Bytes::from(vec![0u8; 1 << 16])).unwrap(),
                    1 => {
                        let _ = ep.recv(3, 0);
                        std::thread::sleep(Duration::from_millis(50));
                        std::panic::panic_any(RankFailed(1));
                    }
                    2 => {
                        ep.recv(0, 0).unwrap();
                        ep.send(3, 0, Bytes::new()).unwrap();
                        let _ = ep.recv(3, 0);
                        std::panic::panic_any(RankFailed(2));
                    }
                    _ => drop(ep.recv(2, 0).unwrap()),
                })
            });
            let payload = outcome.expect_err("the rank panics must re-raise");
            assert_eq!(payload.downcast_ref(), Some(&RankFailed(1)));
        }
    }

    #[test]
    fn concurrent_groups_of_different_widths_keep_their_own_results() {
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for width in [1, 2, 7, 16] {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..20 {
                        let out =
                            run_group(width, CostModel::free(), |ep| (width, ep.rank(), ep.size()));
                        let want: Vec<_> = (0..width).map(|r| (width, r, width)).collect();
                        assert_eq!(out.results, want);
                        assert_eq!(ring(width).results, ring_results(width));
                    }
                });
            }
        });
    }

    #[test]
    fn a_wide_group_leaves_no_more_than_the_cap_parked() {
        let out = run_group(200, CostModel::free(), |ep| ep.rank());
        assert_eq!(out.results, (0..200).collect::<Vec<_>>());
        assert!(locked(&PARKED).len() <= MAX_PARKED_THREADS);
    }
}
