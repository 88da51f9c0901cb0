//! Deterministic, seeded fault injection for the message substrate.
//!
//! A [`FaultPlan`] decides, for every *physical* transmission on a
//! directed link, whether that transmission is delivered, dropped,
//! corrupted, duplicated or delayed, and ([`FaultPlan::transmit`]) puts
//! it on the transport accordingly — the layer between the link layer
//! ([`crate::reliable`]) and the wire. Decisions are **stateless**: each
//! is a pure hash of `(seed, src, dst, stream class, index)`, so two
//! runs with the same seed and the same per-link transmission sequence
//! inject exactly the same faults — no shared RNG state, no ordering
//! dependence between links.
//!
//! The plan can additionally *kill* one rank after a chosen number of
//! application-level send/receive operations, which models a processor
//! crash mid-schedule (the endpoint enforces the threshold and drops,
//! so partners observe `Disconnected` instead of hanging).

use std::str::FromStr;
use std::time::Duration;

use bytes::Bytes;

use crate::endpoint::Message;
use crate::transport::Transport;

/// What happens to one physical transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Delivered unchanged (the overwhelmingly common case).
    Deliver,
    /// Lost in transit: the receiver never sees it.
    Drop,
    /// One payload byte is flipped (detectable by the CRC of the
    /// reliable framing layer; silent without it).
    Corrupt,
    /// Delivered twice back to back.
    Duplicate,
    /// Delivered after an extra latency of
    /// [`FaultConfig::delay_ms`] milliseconds.
    Delay,
}

/// Which transmission stream an index counts within. Keying faults by
/// stream keeps the decision deterministic even though data frames and
/// acks interleave on a link in timing-dependent order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamClass {
    /// Unframed application messages (reliability disabled); the index
    /// is the link's message count.
    Raw,
    /// Reliable data frames; the index packs `(seq, attempt)`.
    Data,
    /// Acknowledgement frames; the index packs `(seq, ack count)`.
    Ack,
}

/// Kill a rank once it has performed `after_ops` application-level
/// send/receive operations (`after_ops = 0` ⇒ it dies on its first one).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillSpec {
    /// The rank to kill.
    pub rank: usize,
    /// Operations the rank completes before dying.
    pub after_ops: u64,
}

/// A single fault pinned to one exact transmission — used by tests that
/// need e.g. "drop exactly the first data frame from 0 to 1".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TargetedFault {
    /// Sending rank of the targeted link.
    pub src: usize,
    /// Receiving rank of the targeted link.
    pub dst: usize,
    /// Stream the index counts within.
    pub class: StreamClass,
    /// Transmission index within that stream (for [`StreamClass::Data`]
    /// and [`StreamClass::Ack`], `(seq << 16) | attempt`).
    pub index: u64,
    /// What to do to it.
    pub action: FaultAction,
}

/// Probabilities and parameters of a fault-injection campaign.
///
/// Parses from the CLI syntax
/// `drop=0.01,corrupt=0.001,dup=0.001,delay=0.01,delay_ms=2,seed=42,kill=3@17`
/// (every key optional).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Per-transmission drop probability.
    pub drop: f64,
    /// Per-transmission corruption probability.
    pub corrupt: f64,
    /// Per-transmission duplication probability.
    pub duplicate: f64,
    /// Per-transmission delay probability.
    pub delay: f64,
    /// Extra latency applied by a [`FaultAction::Delay`], milliseconds.
    pub delay_ms: u64,
    /// Seed for the stateless decision hash.
    pub seed: u64,
    /// Optional rank crash.
    pub kill: Option<KillSpec>,
    /// Optional single pinned fault (test API; not parsed from the CLI).
    pub target: Option<TargetedFault>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            delay_ms: 1,
            seed: 0,
            kill: None,
            target: None,
        }
    }
}

impl FaultConfig {
    /// True when the plan can never act — the endpoint then skips the
    /// injection layer entirely.
    pub fn is_noop(&self) -> bool {
        self.drop <= 0.0
            && self.corrupt <= 0.0
            && self.duplicate <= 0.0
            && self.delay <= 0.0
            && self.kill.is_none()
            && self.target.is_none()
    }
}

impl FromStr for FaultConfig {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let mut cfg = FaultConfig::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}` is not key=value"))?;
            let fprob = |v: &str| -> Result<f64, String> {
                let p: f64 = v.parse().map_err(|_| format!("bad probability `{v}`"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability `{v}` outside [0, 1]"));
                }
                Ok(p)
            };
            match key {
                "drop" => cfg.drop = fprob(value)?,
                "corrupt" => cfg.corrupt = fprob(value)?,
                "dup" | "duplicate" => cfg.duplicate = fprob(value)?,
                "delay" => cfg.delay = fprob(value)?,
                "delay_ms" => {
                    cfg.delay_ms = value
                        .parse()
                        .map_err(|_| format!("bad delay_ms `{value}`"))?
                }
                "seed" => cfg.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
                "kill" => {
                    let (rank, ops) = value
                        .split_once('@')
                        .ok_or_else(|| format!("kill spec `{value}` is not RANK@OPS"))?;
                    cfg.kill = Some(KillSpec {
                        rank: rank
                            .parse()
                            .map_err(|_| format!("bad kill rank `{rank}`"))?,
                        after_ops: ops.parse().map_err(|_| format!("bad kill ops `{ops}`"))?,
                    });
                }
                other => return Err(format!("unknown fault key `{other}`")),
            }
        }
        if cfg.drop + cfg.corrupt + cfg.duplicate + cfg.delay > 1.0 {
            return Err("fault probabilities sum past 1.0".into());
        }
        Ok(cfg)
    }
}

/// The compiled, shareable form of a [`FaultConfig`]: a pure function
/// from transmission coordinates to a [`FaultAction`].
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

/// Output `n` (0-based) of the SplitMix64 generator seeded with `seed`:
/// the Weyl step `seed + (n + 1)·γ` through the finalizer. With `n = 0`
/// it is the stateless hash behind every fault decision; the schedule
/// picker, the retry re-seeding and the load generator's pose walk index
/// the same stream.
pub fn splitmix64(seed: u64, n: u64) -> u64 {
    let mut z = seed.wrapping_add(n.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn stream_key(src: usize, dst: usize, class: StreamClass, index: u64) -> u64 {
    let class = match class {
        StreamClass::Raw => 0u64,
        StreamClass::Data => 1,
        StreamClass::Ack => 2,
    };
    splitmix64(
        (src as u64)
            .wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add((dst as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB))
            .wrapping_add(class << 56)
            .wrapping_add(index),
        0,
    )
}

impl FaultPlan {
    /// Compiles a configuration.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan { cfg }
    }

    /// The configuration this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// The op threshold at which `rank` dies, if this plan kills it.
    pub fn kill_threshold(&self, rank: usize) -> Option<u64> {
        self.cfg
            .kill
            .filter(|k| k.rank == rank)
            .map(|k| k.after_ops)
    }

    /// Decides the fate of one physical transmission. Deterministic in
    /// all arguments plus the seed.
    pub fn action(&self, src: usize, dst: usize, class: StreamClass, index: u64) -> FaultAction {
        if let Some(t) = self.cfg.target {
            if t.src == src && t.dst == dst && t.class == class && t.index == index {
                return t.action;
            }
        }
        let budget = self.cfg.drop + self.cfg.corrupt + self.cfg.duplicate + self.cfg.delay;
        if budget <= 0.0 {
            return FaultAction::Deliver;
        }
        let h = splitmix64(self.cfg.seed ^ stream_key(src, dst, class, index), 0);
        let r = (h >> 11) as f64 / (1u64 << 53) as f64;
        if r < self.cfg.drop {
            FaultAction::Drop
        } else if r < self.cfg.drop + self.cfg.corrupt {
            FaultAction::Corrupt
        } else if r < self.cfg.drop + self.cfg.corrupt + self.cfg.duplicate {
            FaultAction::Duplicate
        } else if r < budget {
            FaultAction::Delay
        } else {
            FaultAction::Deliver
        }
    }

    /// Which byte of a corrupted transmission to flip (deterministic,
    /// independent of the action hash).
    pub fn corrupt_byte(
        &self,
        src: usize,
        dst: usize,
        class: StreamClass,
        index: u64,
        len: usize,
    ) -> usize {
        if len == 0 {
            return 0;
        }
        let key = stream_key(src, dst, class, index) ^ 0xC0FF_EE00_DEAD_BEEF;
        let h = splitmix64(self.cfg.seed ^ key, 0);
        (h % len as u64) as usize
    }

    /// The extra latency of a [`FaultAction::Delay`].
    pub fn delay(&self) -> Duration {
        Duration::from_millis(self.cfg.delay_ms)
    }

    /// Puts one physical transmission from `src` on the wire the way
    /// this plan decides its fate. `Err` means the destination has
    /// closed.
    pub(crate) fn transmit(
        &self,
        net: &Transport,
        src: usize,
        dst: usize,
        msg: Message,
        class: StreamClass,
        index: u64,
    ) -> Result<(), ()> {
        match self.action(src, dst, class, index) {
            FaultAction::Deliver => net.send(dst, msg, 0.0),
            FaultAction::Drop => Ok(()), // lost in transit
            FaultAction::Corrupt => {
                let mut bytes = msg.payload.to_vec();
                if !bytes.is_empty() {
                    let i = self.corrupt_byte(src, dst, class, index, bytes.len());
                    bytes[i] ^= 0x01;
                }
                let damaged = Message {
                    tag: msg.tag,
                    payload: Bytes::from(bytes),
                };
                net.send(dst, damaged, 0.0)
            }
            FaultAction::Duplicate => {
                net.send(dst, msg.clone(), 0.0)?;
                net.send(dst, msg, 0.0)
            }
            // Real time stalls the sender; under virtual time the delay
            // rides on the message as extra latency instead.
            FaultAction::Delay => {
                let late = net.hold(self.delay());
                net.send(dst, msg, late)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_is_the_published_generator() {
        // Vigna's splitmix64.c seeded with 0: its first three outputs.
        let stream: Vec<u64> = (0..3).map(|n| splitmix64(0, n)).collect();
        assert_eq!(
            stream,
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F
            ]
        );
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::new(FaultConfig {
            drop: 0.2,
            corrupt: 0.1,
            duplicate: 0.1,
            delay: 0.1,
            seed: 42,
            ..Default::default()
        });
        for index in 0..256u64 {
            let a = plan.action(1, 3, StreamClass::Data, index);
            let b = plan.action(1, 3, StreamClass::Data, index);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let mk = |seed| {
            FaultPlan::new(FaultConfig {
                drop: 0.5,
                seed,
                ..Default::default()
            })
        };
        let (a, b) = (mk(1), mk(2));
        let differs = (0..512u64)
            .any(|i| a.action(0, 1, StreamClass::Raw, i) != b.action(0, 1, StreamClass::Raw, i));
        assert!(differs, "seeds 1 and 2 produced identical fault traces");
    }

    #[test]
    fn probability_one_always_fires() {
        let plan = FaultPlan::new(FaultConfig {
            drop: 1.0,
            ..Default::default()
        });
        for i in 0..64u64 {
            assert_eq!(plan.action(0, 1, StreamClass::Data, i), FaultAction::Drop);
        }
    }

    #[test]
    fn zero_probability_always_delivers() {
        let plan = FaultPlan::new(FaultConfig::default());
        for i in 0..64u64 {
            assert_eq!(plan.action(2, 5, StreamClass::Ack, i), FaultAction::Deliver);
        }
    }

    #[test]
    fn empirical_rate_tracks_probability() {
        let plan = FaultPlan::new(FaultConfig {
            drop: 0.25,
            seed: 7,
            ..Default::default()
        });
        let drops = (0..10_000u64)
            .filter(|&i| plan.action(0, 1, StreamClass::Raw, i) == FaultAction::Drop)
            .count();
        assert!(
            (2_000..3_000).contains(&drops),
            "drop rate {drops}/10000 far from 0.25"
        );
    }

    #[test]
    fn targeted_fault_hits_exactly_once() {
        let plan = FaultPlan::new(FaultConfig {
            target: Some(TargetedFault {
                src: 0,
                dst: 1,
                class: StreamClass::Data,
                index: 3 << 16,
                action: FaultAction::Drop,
            }),
            ..Default::default()
        });
        let drops: Vec<u64> = (0..8u64)
            .map(|seq| seq << 16)
            .filter(|&i| plan.action(0, 1, StreamClass::Data, i) == FaultAction::Drop)
            .collect();
        assert_eq!(drops, vec![3 << 16]);
        // Other links and classes are untouched.
        assert_eq!(
            plan.action(1, 0, StreamClass::Data, 3 << 16),
            FaultAction::Deliver
        );
        assert_eq!(
            plan.action(0, 1, StreamClass::Ack, 3 << 16),
            FaultAction::Deliver
        );
    }

    #[test]
    fn kill_threshold_is_per_rank() {
        let plan = FaultPlan::new(FaultConfig {
            kill: Some(KillSpec {
                rank: 2,
                after_ops: 17,
            }),
            ..Default::default()
        });
        assert_eq!(plan.kill_threshold(2), Some(17));
        assert_eq!(plan.kill_threshold(0), None);
    }

    #[test]
    fn parses_cli_syntax() {
        let cfg: FaultConfig =
            "drop=0.01,corrupt=0.002,dup=0.003,delay=0.1,delay_ms=5,seed=42,kill=3@17"
                .parse()
                .unwrap();
        assert_eq!(cfg.drop, 0.01);
        assert_eq!(cfg.corrupt, 0.002);
        assert_eq!(cfg.duplicate, 0.003);
        assert_eq!(cfg.delay, 0.1);
        assert_eq!(cfg.delay_ms, 5);
        assert_eq!(cfg.seed, 42);
        assert_eq!(
            cfg.kill,
            Some(KillSpec {
                rank: 3,
                after_ops: 17
            })
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("drop".parse::<FaultConfig>().is_err());
        assert!("drop=2.0".parse::<FaultConfig>().is_err());
        assert!("frobnicate=1".parse::<FaultConfig>().is_err());
        assert!("kill=3".parse::<FaultConfig>().is_err());
        assert!("drop=0.9,corrupt=0.9".parse::<FaultConfig>().is_err());
    }

    #[test]
    fn empty_spec_is_noop() {
        let cfg: FaultConfig = "".parse().unwrap();
        assert!(cfg.is_noop());
        let cfg: FaultConfig = "seed=9".parse().unwrap();
        assert!(cfg.is_noop(), "a seed alone injects nothing");
        let cfg: FaultConfig = "drop=0.1".parse().unwrap();
        assert!(!cfg.is_noop());
    }
}
