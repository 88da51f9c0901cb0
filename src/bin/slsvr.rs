//! `slsvr` — command-line driver for the sort-last-sparse parallel
//! volume rendering system.
//!
//! ```text
//! slsvr render  [--dataset NAME] [--size N] [--procs P] [--method M]
//!               [--rot-x DEG] [--rot-y DEG] [--dims X,Y,Z]
//!               [--macrocell N] [--tile N] [--verbose]
//!               [--distributed] [--ghost N] [--out FILE.pgm]
//! slsvr compare [--dataset NAME] [--size N] [--procs P] [--dims X,Y,Z]
//! slsvr serve   [render flags] [--sessions N] [--requests N] [--connect ADDR]
//! slsvr daemon  [--listen ADDR] [--shards N] [--run-seconds S]
//! slsvr sweep   [--size N] [--dims X,Y,Z] [--out FILE.csv]
//!               [--preset NAME|FILE] [--max-procs P]
//! slsvr cost-model sweep|fit|check [...]
//! slsvr info
//! ```
//!
//! Every command refuses a `--flag` it does not read; `slsvr --help`
//! lists them all.

use std::cell::RefCell;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use slsvr::compositing::Method;
use slsvr::serve::{
    run_load, wire, Daemon, DaemonConfig, DegradedFramePolicy, LoadConfig, LoadReport, ServeConfig,
    StatsReply,
};
use slsvr::system::{
    resolve_threads, run_distributed, Experiment, ExperimentConfig, Outcome, RenderPool,
    SweepBuilder,
};
use slsvr::volume::{Dataset, DatasetKind};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "render" => cmd_render(rest),
        "compare" => cmd_compare(rest),
        "serve" => cmd_serve(rest),
        "daemon" => cmd_daemon(rest),
        "sweep" => cmd_sweep(rest),
        "cost-model" => cmd_cost_model(rest),
        "info" => cmd_info(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
slsvr — sort-last-sparse parallel volume rendering

USAGE:
  slsvr render  [--dataset NAME] [--size N] [--procs P] [--method M]
                [--rot-x DEG] [--rot-y DEG] [--dims X,Y,Z]
                [--perspective DIST] [--balanced] [--early-term A]
                [--macrocell N] [--tile N]
                [--render-threads N] [--simd-lanes N]
                [--distributed] [--ghost N] [--out FILE.pgm]
                [--faults SPEC] [--reliable] [--recv-deadline MS]
                [--schedule-seed S] [--verbose]
  slsvr compare [--dataset NAME] [--size N] [--procs P] [--dims X,Y,Z]
                [--perspective DIST] [--balanced] [--render-threads N]
  slsvr serve   [--dataset NAME] [--size N] [--procs P] [--method M]
                [--simd-lanes N] [--sessions N] [--requests N] [--poses N]
                [--inter-arrival-ms MS] [--connect ADDR] [--shard-spread N]
                [--faults SPEC] [--reliable] [--recv-deadline MS]
                [--schedule-seed S] [--workers N] [--queue-depth N]
                [--cache-frames N] [--deadline-ms MS] [--no-coalesce]
                [--psnr-floor DB] [--max-retries N] [--session-ttl MS]
                [--render-threads N]
  slsvr daemon  [--listen ADDR] [--shards N] [--max-conns N] [--window N]
                [--run-seconds S] [+ serve's service knobs, --workers on]
  slsvr sweep   [--size N] [--dims X,Y,Z] [--out FILE.csv]
                [--preset NAME|FILE] [--max-procs P] [--model FILE]
  slsvr cost-model sweep [--full] [--reps N] [--out FILE]
  slsvr cost-model fit   [--samples FILE | --full] [--reps N] [--name NAME]
                         [--min-r2 X] [--out FILE]
  slsvr cost-model check [--samples FILE | --full] [--reps N]
                         [--baseline FILE] [--preset NAME] [--tolerance PCT]
  slsvr info

DATASETS: engine_low | engine_high | head | cube
METHODS:  bs | bsbr | bslc | bsbrc | bsrl | radixk | tile-stream

SERVE:    starts the vr-serve frame service (session-resident datasets,
          LRU frame cache, latest-wins coalescing, bounded-queue admission
          control) behind a one-shard daemon on a loopback port and drives
          it over TCP with the open-loop load generator: --sessions
          concurrent users, --requests frames per session over --poses
          camera poses, every transported frame checked against its
          server-computed pixel hash (a mismatch exits non-zero).
          --connect ADDR drives a running daemon instead; --shard-spread N
          derives N bases with distinct dims so sessions hash across its
          shards. --queue-depth bounds admitted-but-unstarted
          jobs (beyond it requests get an explicit Overloaded reply);
          --deadline-ms sheds queued jobs older than the deadline;
          --cache-frames 0 disables the cache; --no-coalesce answers every
          request with its own render instead of the newest camera's.

          A request carries every setting its frame renders under, the
          render flags and --faults/--reliable/--recv-deadline among them;
          the daemon adds none. Self-healing knobs: a failed attempt
          retries at once, re-salting its fault draws, up to --max-retries
          times; a degraded frame (dead-rank holes) is served
          only at or above --psnr-floor dB versus the fault-free
          reference, else retried then rejected. A request's failures
          are its own: they never refuse another request's frame.
          --session-ttl evicts idle resident datasets.

DAEMON:   exposes the frame service over TCP with a versioned,
          CRC-framed wire protocol. --shards N runs N independent
          service shards routed by a stable hash of (dataset, dims);
          --max-conns bounds concurrent connections (beyond it the
          acceptor answers a typed busy error); --window bounds
          in-flight requests per connection (beyond it requests get an
          immediate Overloaded reply). --run-seconds S serves for S
          seconds then drains; 0 (default) serves until stdin closes.

RENDER:   --macrocell N sets the empty-space-skipping cell edge in voxels
          (default 8, 0 = off); --tile N sets the screen-tile culling edge
          in pixels (default 32, 0 = off). --render-threads N sets the
          width of the render pool whose threads drain every rank's live
          tiles from one board (default 0 = auto: one thread per core,
          capped at 8); --simd-lanes N batches N ray samples per active
          cell for the autovectorizer (default 4, max 8). All four knobs
          are bit-exact: the accelerated, threaded, lane-batched image
          at any width is identical to the naive one (--macrocell 0). Under `serve`/`daemon`,
          --render-threads sizes each worker's pool (auto is not divided
          among the workers; requests carry no thread count), while
          --simd-lanes is a request field: the daemon renders each
          request at its own width. --verbose additionally prints the
          per-stage message/byte timeline.

DISTRIBUTED: --distributed sends all three phases through the message
          layer: rank 0 scatters the blocks (with --ghost N voxels of
          overlap; 2 removes every seam against the shared-volume
          render) and prints their bytes, every rank renders only its
          own block on its own thread, then --method composites. Honours --perspective,
          --balanced and --schedule-seed; rejects --faults, which it
          cannot honour.

FAULTS:   --faults drop=0.01,corrupt=0.001,dup=0.001,delay=0.01,delay_ms=2,seed=42,kill=3@17
          (every key optional; --reliable turns on framing + ack/retransmit
          so dropped or corrupted messages recover instead of timing out;
          its retry schedule, 10 ms doubling to 200 ms over 8 retransmits,
          shrinks to fit half of --recv-deadline, so a link that gives up
          closes before any receive times out and the frame degrades)

SCHEDULE: --schedule-seed S runs compositing under the deterministic
          virtual clock: timeouts and fault delays use simulated time and
          message-delivery order is a seeded permutation, so the run is
          bit-reproducible (same seed => same image and byte counts)

SWEEP:    without --preset, runs the measured simulator sweep and emits
          CSV. With --preset NAME|FILE (sp2 | a fitted name from
          --model, default COST_MODEL.json | path.json[#name]) it instead
          evaluates the paper's closed-form Equations (1)-(8) under that
          preset over powers-of-two P up to --max-procs (default 512) —
          no rank threads, so P=512 is as cheap as P=8. Under sp2 the
          sparse cells double as a cross-check: the paper's ranking
          (BSLC/BSBRC beat BS/BSBR) must hold or the sweep fails.

COST:     `cost-model sweep` benchmarks every modeled operation (over,
          pack, unpack, RLE encode, run scan, message framing, render
          sample) across a parameter grid and records (params, seconds)
          samples (--full widens the grid). `fit` learns per-op constants
          by least squares from --samples (or a fresh sweep), refuses any
          op whose R² falls below --min-r2, and emits a model file with
          the paper's sp2 preset alongside the fitted one. `check` is the
          CI drift gate: it re-fits and compares t_over-normalized ratios
          against --baseline, failing when any ratio moved more than
          --tolerance percent (narrow hosts record skipped-narrow-host)";

/// Minimal flag parser: `--key value` pairs plus boolean flags. It
/// records every key a command looks up, so [`Flags::finish`] can refuse
/// the flags nobody read.
struct Flags<'a> {
    args: &'a [String],
    read: RefCell<Vec<String>>,
    /// The first value flag looked up that is present with no value.
    valueless: RefCell<Option<String>>,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Flags<'a> {
        Flags {
            args,
            read: RefCell::default(),
            valueless: RefCell::default(),
        }
    }

    /// The value after `key`. A `--flag` is never a value (`-30` is), so
    /// `key` given last or followed by another flag has none, and
    /// [`Flags::finish`] refuses it.
    fn get(&self, key: &str) -> Option<&'a str> {
        self.read.borrow_mut().push(key.to_owned());
        let i = self.args.iter().position(|a| a == key)?;
        let value = self.args.get(i + 1).filter(|v| !v.starts_with("--"));
        if value.is_none() {
            self.valueless
                .borrow_mut()
                .get_or_insert_with(|| key.to_owned());
        }
        value.map(String::as_str)
    }

    fn has(&self, key: &str) -> bool {
        self.read.borrow_mut().push(key.to_owned());
        self.args.iter().any(|a| a == key)
    }

    fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value `{v}` for {key}")),
        }
    }

    /// Refuses a value flag given no value, then the first `--flag` in
    /// the arguments that was never looked up; a command calls this once
    /// it has read all of its flags, before it acts on any.
    fn finish(&self) -> Result<(), String> {
        if let Some(key) = self.valueless.borrow().as_ref() {
            return Err(format!("flag `{key}` needs a value"));
        }
        let read = self.read.borrow();
        match self
            .args
            .iter()
            .find(|a| a.starts_with("--") && !read.contains(a))
        {
            Some(flag) => Err(format!("unknown flag `{flag}` (see `slsvr --help`)")),
            None => Ok(()),
        }
    }
}

fn parse_dims(spec: &str) -> Result<[usize; 3], String> {
    let parts: Vec<usize> = spec
        .split(',')
        .map(|p| {
            p.trim()
                .parse()
                .map_err(|_| format!("invalid dims `{spec}`"))
        })
        .collect::<Result<_, _>>()?;
    if parts.len() != 3 || parts.contains(&0) {
        return Err(format!(
            "dims must be three positive integers, got `{spec}`"
        ));
    }
    Ok([parts[0], parts[1], parts[2]])
}

fn config_from_flags(flags: &Flags) -> Result<ExperimentConfig, String> {
    let mut config = ExperimentConfig {
        dataset: flags.get("--dataset").unwrap_or("engine_low").parse()?,
        image_size: flags.parse("--size", 384u16)?,
        processors: flags.parse("--procs", 8usize)?,
        method: flags.get("--method").unwrap_or("bsbrc").parse()?,
        rot_x_deg: flags.parse("--rot-x", 20.0f32)?,
        rot_y_deg: flags.parse("--rot-y", 30.0f32)?,
        early_termination_alpha: flags.parse("--early-term", 1.0f32)?,
        ghost_voxels: flags.parse("--ghost", 0usize)?,
        balanced_partition: flags.has("--balanced"),
        reliable: flags.has("--reliable"),
        ..Default::default()
    };
    config.macrocell = flags.parse("--macrocell", config.macrocell)?;
    config.tile = flags.parse("--tile", config.tile)?;
    config.simd_lanes = flags.parse("--simd-lanes", config.simd_lanes)?;
    if let Some(d) = flags.get("--perspective") {
        config.perspective_distance = Some(
            d.parse()
                .map_err(|_| format!("invalid --perspective `{d}`"))?,
        );
    }
    if let Some(spec) = flags.get("--dims") {
        config.volume_dims = Some(parse_dims(spec)?);
    }
    if let Some(spec) = flags.get("--faults") {
        config.faults = Some(
            spec.parse()
                .map_err(|e| format!("invalid --faults `{spec}`: {e}"))?,
        );
    }
    if let Some(ms) = flags.get("--recv-deadline") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("invalid --recv-deadline `{ms}`"))?;
        config.recv_deadline = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(seed) = flags.get("--schedule-seed") {
        config.schedule_seed = Some(
            seed.parse()
                .map_err(|_| format!("invalid --schedule-seed `{seed}`"))?,
        );
    }
    // The daemon's request table holds the one set of bounds on a
    // config: what it would refuse is refused here, by field name.
    wire::decode_request(&wire::encode_request(0, &config)).map_err(|e| e.to_string())?;
    Ok(config)
}

/// Renders `config`'s subimages on a pool of `--render-threads N`
/// threads (0 = auto).
fn prepare(config: &ExperimentConfig, threads: usize) -> Experiment {
    let dataset = Arc::new(Dataset::with_dims(config.dataset, config.resolved_dims()));
    let pool = RenderPool::new(resolve_threads(threads));
    Experiment::prepare_with_dataset_pool(config, dataset, Some(&pool))
}

fn cmd_render(args: &[String]) -> Result<(), String> {
    let flags = Flags::new(args);
    let config = config_from_flags(&flags)?;
    let threads = flags.parse("--render-threads", 0usize)?;
    let distributed = flags.has("--distributed");
    let out_path = flags.get("--out").unwrap_or("render.pgm");
    let verbose = flags.has("--verbose");
    flags.finish()?;
    if distributed && config.faults.is_some() {
        return Err(format!(
            "--distributed cannot honour --faults (a lost block is fatal to the scatter)\n{USAGE}"
        ));
    }

    // Two rank bodies, one outcome; the reference is what a degraded
    // frame is scored against.
    if distributed {
        let out = run_distributed(&config)
            .into_result()
            .map_err(|e| e.to_string())?;
        println!(
            "partitioning: scattered {} bytes of volume blocks",
            out.partition_bytes
        );
        let shared = || prepare(&config, threads).reference();
        report_render(&config, out_path, verbose, out, shared)
    } else {
        let exp = prepare(&config, threads);
        let out = exp
            .run(config.method)
            .into_result()
            .map_err(|e| e.to_string())?;
        report_render(&config, out_path, verbose, out, || exp.reference())
    }
}

/// What every `render` prints once its frame exists, and the file it
/// writes. The closing line carries the digest of the frame's
/// full-precision pixels (the `.pgm` keeps only 8 bits of each).
fn report_render(
    config: &ExperimentConfig,
    out_path: &str,
    verbose: bool,
    out: Outcome,
    reference: impl FnOnce() -> slsvr::image::Image,
) -> Result<(), String> {
    let retransmits: u64 = out.traffic.iter().map(|t| t.retransmits).sum();
    let corruptions: u64 = out.traffic.iter().map(|t| t.corruptions_detected).sum();
    if retransmits > 0 || corruptions > 0 {
        println!("reliability: {retransmits} retransmits, {corruptions} corruptions detected");
    }
    if out.is_degraded() {
        println!(
            "DEGRADED: dead ranks {:?} · missing pieces {:?} · lost partners {:?} · \
             coverage {:.1}% · PSNR vs reference {:.1} dB",
            out.dead_ranks,
            out.missing_ranks,
            out.lost_partners,
            out.coverage * 100.0,
            out.psnr_vs(&reference()),
        );
    }
    if verbose {
        println!("per-stage traffic timeline (all ranks):");
        print!("{}", slsvr::system::format_stage_timeline(&out.per_rank));
    }

    slsvr::image::pgm::save_pgm(&out.image, out_path)
        .map_err(|e| format!("writing {out_path}: {e}"))?;
    let record = out.record();
    println!(
        "{} · {}² · P={} · {}: T_comp {:.2} ms, T_comm {:.2} ms, M_max {} B",
        config.dataset.name(),
        config.image_size,
        config.processors,
        config.method.name(),
        record.t_comp_ms,
        record.t_comm_ms,
        record.m_max
    );
    println!(
        "wrote {out_path} (image fnv1a {:016x})",
        slsvr::image::checksum::fnv1a(&out.image)
    );
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let flags = Flags::new(args);
    let config = config_from_flags(&flags)?;
    let threads = flags.parse("--render-threads", 0usize)?;
    flags.finish()?;
    let exp = prepare(&config, threads);
    let reference = exp.reference();
    println!(
        "{} · {}² · P={}\n",
        config.dataset.name(),
        config.image_size,
        config.processors
    );
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>12} {:>5}",
        "method", "comp(ms)", "comm(ms)", "total(ms)", "M_max(B)", "ok"
    );
    for method in Method::all() {
        let out = exp.run(method).into_result().map_err(|e| e.to_string())?;
        let ok = out.image.max_abs_diff(&reference) < 2e-4;
        let record = out.record();
        println!(
            "{:<8} {:>10.2} {:>10.2} {:>10.2} {:>12} {:>5}",
            method.name(),
            record.t_comp_ms,
            record.t_comm_ms,
            record.t_total_ms,
            record.m_max,
            if ok { "✓" } else { "✗" }
        );
    }
    Ok(())
}

/// Parses the shared vr-serve service knobs (used by both `serve` and
/// `daemon`).
fn serve_config_from_flags(flags: &Flags) -> Result<ServeConfig, String> {
    let mut serve = ServeConfig {
        workers: flags.parse("--workers", 2usize)?,
        queue_depth: flags.parse("--queue-depth", 32usize)?,
        cache_frames: flags.parse("--cache-frames", 64usize)?,
        coalesce: !flags.has("--no-coalesce"),
        render_threads: flags.parse("--render-threads", 0usize)?,
        ..Default::default()
    };
    if let Some(ms) = flags.get("--deadline-ms") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("invalid --deadline-ms `{ms}`"))?;
        serve.deadline = Some(Duration::from_millis(ms));
    }
    serve.max_retries = flags.parse("--max-retries", serve.max_retries)?;
    serve.degraded = DegradedFramePolicy {
        psnr_floor_db: flags.parse("--psnr-floor", DegradedFramePolicy::default().psnr_floor_db)?,
    };
    if let Some(ms) = flags.get("--session-ttl") {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("invalid --session-ttl `{ms}`"))?;
        serve.session_ttl = Some(Duration::from_millis(ms));
    }
    if serve.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    Ok(serve)
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = Flags::new(args);
    let config = config_from_flags(&flags)?;
    let serve = serve_config_from_flags(&flags)?;

    let load = LoadConfig {
        sessions: flags.parse("--sessions", 2usize)?,
        requests_per_session: flags.parse("--requests", 24usize)?,
        poses: flags.parse("--poses", 4usize)?,
        inter_arrival: Duration::from_millis(flags.parse("--inter-arrival-ms", 5u64)?),
        seed: flags.parse("--seed", 0x5EEDu64)?,
    };
    let connect = flags.get("--connect");
    let spread = flags.parse("--shard-spread", 1usize)?.max(1);
    flags.finish()?;

    // Without --connect, a one-shard daemon on a loopback port serves
    // the load, so both modes take one path through the socket.
    let (addr, daemon) = match connect {
        Some(addr) => {
            let addr: SocketAddr = addr
                .parse()
                .map_err(|_| format!("invalid --connect address `{addr}`"))?;
            (addr, None)
        }
        None => {
            let daemon = Daemon::start("127.0.0.1:0", load.daemon_config(serve))
                .map_err(|e| format!("bind loopback: {e}"))?;
            (daemon.local_addr(), Some(daemon))
        }
    };
    // --shard-spread N derives N bases with distinct volume dims so
    // sessions hash across the daemon's shards.
    let bases = spread_bases(config, spread);
    println!(
        "{} · {}² · P={} · {} — {} session(s) × {} request(s) over {} pose(s) \
         via {addr} (shard spread {spread})",
        config.dataset.name(),
        config.image_size,
        config.processors,
        config.method.name(),
        load.sessions,
        load.requests_per_session,
        load.poses,
    );
    let (report, stats) = run_load(addr, &bases, &load).map_err(|e| format!("socket load: {e}"))?;
    if let Some(daemon) = daemon {
        daemon.shutdown();
    }
    print_load_report(&report, &stats);
    if report.hash_mismatches > 0 {
        return Err(format!(
            "{} replies failed the pixel-hash check",
            report.hash_mismatches
        ));
    }
    Ok(())
}

/// The serve report, from the replies the load generator read and the
/// daemon's stats: every request's disposition, latency, the per-shard
/// table and the health line.
fn print_load_report(report: &LoadReport, stats: &StatsReply) {
    let replies = &report.replies;
    println!("disposition of {} requests:", replies.submitted);
    println!("  fresh renders     {:>6}", replies.completed_fresh);
    println!("  cache hits        {:>6}", replies.completed_cached);
    println!("  coalesced         {:>6}", replies.completed_coalesced);
    println!("  degraded (served) {:>6}", replies.completed_degraded);
    println!("  shed (deadline)   {:>6}", replies.shed_deadline);
    println!("  overloaded        {:>6}", replies.rejected_overload);
    let rejected = replies.rejected_failed + replies.rejected_shutdown;
    println!("  rejected          {rejected:>6}");
    println!(
        "\nlatency p50/p95/p99: {:.2} / {:.2} / {:.2} ms · throughput {:.1} frames/s · \
         cache hit rate {:.1}%",
        report.percentile_ms(50.0),
        report.percentile_ms(95.0),
        report.percentile_ms(99.0),
        report.throughput_rps(),
        replies.serve_hit_rate() * 100.0,
    );
    println!(
        "\ndaemon: {} shard(s) · imbalance {:.2}",
        stats.shards.len(),
        stats.imbalance
    );
    for (i, shard) in stats.shards.iter().enumerate() {
        println!(
            "  shard {i}: {} submitted · {} rendered · peak queue {} · \
             cache {}h/{}m/{}e",
            shard.submitted,
            shard.rendered_frames,
            shard.peak_queue_depth,
            shard.cache.hits,
            shard.cache.misses,
            shard.cache.evictions,
        );
    }
    let health = &report.service;
    println!(
        "health: {} retries · {} failed attempts · {} datasets evicted{}",
        health.frame_retries,
        health.failed_attempts,
        health.datasets_evicted,
        if health.completed_degraded > 0 {
            format!(" · min degraded PSNR {:.1} dB", health.min_degraded_psnr_db)
        } else {
            String::new()
        },
    );
}

/// Derives `spread` configs with distinct volume dims (z grows by one
/// voxel per step) so their `(dataset, dims)` keys hash to different
/// shards.
fn spread_bases(base: ExperimentConfig, spread: usize) -> Vec<ExperimentConfig> {
    let dims = base.resolved_dims();
    (0..spread)
        .map(|k| {
            let mut c = base;
            c.volume_dims = Some([dims[0], dims[1], dims[2] + k]);
            c
        })
        .collect()
}

fn cmd_daemon(args: &[String]) -> Result<(), String> {
    let flags = Flags::new(args);
    let serve = serve_config_from_flags(&flags)?;
    let daemon_cfg = DaemonConfig {
        shards: flags.parse("--shards", 1usize)?,
        max_conns: flags.parse("--max-conns", 64usize)?,
        window: flags.parse("--window", 8usize)?,
        serve,
    };
    let listen = flags.get("--listen").unwrap_or("127.0.0.1:7070");
    let run_seconds: u64 = flags.parse("--run-seconds", 0u64)?;
    flags.finish()?;
    if daemon_cfg.shards == 0 {
        return Err("--shards must be at least 1".into());
    }

    let daemon = Daemon::start(listen, daemon_cfg).map_err(|e| format!("bind {listen}: {e}"))?;
    println!(
        "daemon listening on {} · {} shard(s) × {} worker(s) · window {} · max conns {}",
        daemon.local_addr(),
        daemon_cfg.shards,
        daemon_cfg.serve.workers,
        daemon_cfg.window,
        daemon_cfg.max_conns,
    );
    if run_seconds > 0 {
        println!("serving for {run_seconds} s");
        std::thread::sleep(Duration::from_secs(run_seconds));
    } else {
        println!("serving until stdin closes (press Ctrl-D to stop)");
        let mut sink = String::new();
        use std::io::Read as _;
        let _ = std::io::stdin().read_to_string(&mut sink);
    }

    let stats = daemon.shutdown();
    println!(
        "drained: {} submitted · {} answered · {} rendered · {} shutdown rejections",
        stats.submitted,
        stats.answered(),
        stats.rendered_frames,
        stats.rejected_shutdown,
    );
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let flags = Flags::new(args);
    if let Some(spec) = flags.get("--preset") {
        return cmd_sweep_predict(&flags, spec);
    }
    let config = config_from_flags(&flags)?;
    let out = flags.get("--out");
    flags.finish()?;
    let sweep = SweepBuilder {
        base: config,
        datasets: DatasetKind::all().to_vec(),
        processor_counts: vec![2, 4, 8, 16, 32, 64],
        methods: Method::paper_methods().to_vec(),
        verify: false,
    };
    let cells = sweep.run().map_err(|e| e.to_string())?;
    let csv = slsvr::system::to_csv(&cells);
    match out {
        Some(path) => {
            std::fs::write(path, csv).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote {path}");
        }
        None => print!("{csv}"),
    }
    Ok(())
}

/// `slsvr sweep --preset NAME|FILE`: the predictive what-if sweep.
/// Closed-form Equations (1)-(8) under the resolved preset, so large P
/// costs nothing to evaluate. Under the paper-faithful `sp2` preset the
/// sparse cells are also a cross-check of the paper's method ranking.
fn cmd_sweep_predict(flags: &Flags, spec: &str) -> Result<(), String> {
    let model_path = flags
        .get("--model")
        .unwrap_or(slsvr::cost::DEFAULT_MODEL_PATH);
    let size: u16 = flags.parse("--size", 384u16)?;
    let max_procs: usize = flags.parse("--max-procs", 512usize)?;
    let out = flags.get("--out");
    flags.finish()?;
    let preset = slsvr::cost::resolve_preset(spec, model_path)?;
    if !max_procs.is_power_of_two() || max_procs < 2 {
        return Err(format!(
            "--max-procs must be a power of two >= 2, got {max_procs}"
        ));
    }
    let procs: Vec<usize> = (1..)
        .map(|k| 1usize << k)
        .take_while(|&p| p <= max_procs)
        .collect();
    let densities = [0.02, 0.05, 0.1, 0.2, 0.5];

    let rows = slsvr::cost::predict_grid(&preset, &procs, &[size], &densities);
    let mut csv =
        String::from("preset,method,procs,size,density,render_ms,comp_ms,comm_ms,total_ms\n");
    for r in &rows {
        csv.push_str(&format!(
            "{},{},{},{},{},{:.6},{:.6},{:.6},{:.6}\n",
            preset.name,
            r.method.name().to_ascii_lowercase(),
            r.p,
            r.size,
            r.density,
            r.render_seconds * 1e3,
            r.comp_seconds * 1e3,
            r.comm_seconds * 1e3,
            r.total_seconds() * 1e3,
        ));
    }
    match out {
        Some(path) => {
            std::fs::write(path, &csv).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote {path}");
        }
        None => print!("{csv}"),
    }

    // Ranking cross-check over every sparse cell (each cell is the four
    // method rows of one (p, size, density) point).
    let mut checked = 0usize;
    let mut violated = Vec::new();
    for chunk in rows.chunks(Method::paper_methods().len()) {
        match slsvr::cost::ranking_holds(chunk) {
            Some(true) => checked += 1,
            Some(false) => violated.push(format!(
                "P={} size={} density={}",
                chunk[0].p, chunk[0].size, chunk[0].density
            )),
            None => {}
        }
    }
    if violated.is_empty() {
        eprintln!(
            "ranking check ({}): BSLC/BSBRC beat BS/BSBR on all {} sparse cells",
            preset.name, checked
        );
    } else if preset.name == "sp2" {
        return Err(format!(
            "paper ranking violated under sp2 at: {}",
            violated.join(", ")
        ));
    } else {
        eprintln!(
            "ranking note ({}): paper's sparse ordering does not hold at {} of {} sparse \
             cells (expected off-SP2: cheap networks make BSLC compute-bound)",
            preset.name,
            violated.len(),
            violated.len() + checked
        );
    }
    Ok(())
}

/// `slsvr cost-model sweep|fit|check` — the learned cost-model surface.
fn cmd_cost_model(args: &[String]) -> Result<(), String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err("cost-model needs a subcommand: sweep | fit | check".into());
    };
    let flags = Flags::new(rest);
    match sub.as_str() {
        "sweep" => cmd_cost_sweep(&flags),
        "fit" => cmd_cost_fit(&flags),
        "check" => cmd_cost_check(&flags),
        other => Err(format!(
            "unknown cost-model subcommand `{other}` (sweep | fit | check)"
        )),
    }
}

/// Where a cost-model command's sweep comes from: the persisted one in
/// `--samples FILE`, or else a fresh run honoring `--full`/`--reps`.
enum Samples<'a> {
    File(&'a str),
    Fresh { full: bool, reps: usize },
}

impl<'a> Samples<'a> {
    fn from_flags(flags: &Flags<'a>) -> Result<Samples<'a>, String> {
        if let Some(path) = flags.get("--samples") {
            return Ok(Samples::File(path));
        }
        Ok(Samples::Fresh {
            full: flags.has("--full"),
            reps: flags.parse("--reps", 5usize)?,
        })
    }

    /// Reads or measures the sweep.
    fn load(self) -> Result<slsvr::cost::SweepData, String> {
        match self {
            Samples::File(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read samples file '{path}': {e}"))?;
                slsvr::cost::SweepData::parse(&text)
            }
            Samples::Fresh { full, reps } => {
                eprintln!(
                    "measuring {} sweep ({} reps/sample; this renders and composites for real)...",
                    if full { "full" } else { "quick" },
                    reps
                );
                Ok(slsvr::cost::run_sweep(!full, reps))
            }
        }
    }
}

fn cmd_cost_sweep(flags: &Flags) -> Result<(), String> {
    let samples = Samples::from_flags(flags)?;
    let out = flags.get("--out");
    flags.finish()?;
    let data = samples.load()?;
    for op in &data.ops {
        eprintln!("  {:<8} {} samples", op.op, op.samples.len());
    }
    let doc = data.render();
    match out {
        Some(path) => {
            std::fs::write(path, &doc).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote {path}");
        }
        None => print!("{doc}"),
    }
    Ok(())
}

fn print_fit_table(preset: &slsvr::cost::CostModelPreset) {
    println!(
        "preset '{}' ({} core(s)):",
        preset.name,
        preset.host_cores.map_or("?".into(), |c| c.to_string())
    );
    for (label, _, value) in preset.constants() {
        println!("  {label:<16} {value:>12.5e} s/unit");
    }
    for f in &preset.fits {
        println!(
            "  fit {:<8} R² {:.5}  adj {:.5}  over {} samples",
            f.op, f.r2, f.adjusted_r2, f.samples
        );
    }
}

fn cmd_cost_fit(flags: &Flags) -> Result<(), String> {
    let samples = Samples::from_flags(flags)?;
    let name = flags.get("--name").unwrap_or("local");
    let floor: f64 = flags.parse("--min-r2", slsvr::cost::QUALITY_FLOOR)?;
    let out = flags.get("--out");
    flags.finish()?;
    let preset = slsvr::cost::fit_preset(&samples.load()?, name, floor)?;
    print_fit_table(&preset);
    let doc = slsvr::cost::render_model_file(&[slsvr::cost::CostModelPreset::sp2(), preset]);
    match out {
        Some(path) => {
            std::fs::write(path, &doc).map_err(|e| format!("writing {path}: {e}"))?;
            println!("wrote {path}");
        }
        None => print!("{doc}"),
    }
    Ok(())
}

fn cmd_cost_check(flags: &Flags) -> Result<(), String> {
    let baseline_path = flags
        .get("--baseline")
        .unwrap_or(slsvr::cost::DEFAULT_MODEL_PATH);
    let want = flags.get("--preset").unwrap_or("local");
    let samples = Samples::from_flags(flags)?;
    let tolerance: f64 = flags.parse("--tolerance", slsvr::cost::DEFAULT_TOLERANCE_PCT)?;
    flags.finish()?;
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline '{baseline_path}': {e}"))?;
    let presets = slsvr::cost::parse_model_file(&text)?;
    let baseline = presets
        .iter()
        .find(|p| p.name == want)
        .ok_or_else(|| format!("no preset '{want}' in '{baseline_path}'"))?;

    let data = samples.load()?;
    // No R² floor on the refit itself: a noisy-but-fittable refit should
    // reach the ratio comparison, where noise shows up as drift.
    let refit = slsvr::cost::fit_preset(&data, "refit", f64::NEG_INFINITY)?;
    if baseline.sweep_grid.is_some() && baseline.sweep_grid != refit.sweep_grid {
        eprintln!(
            "warning: baseline was fitted from the {} grid but this refit used {} — \
             slopes shift systematically with the grid (cache effects); pass {} for a \
             like-for-like comparison",
            baseline.sweep_grid.as_deref().unwrap_or("?"),
            refit.sweep_grid.as_deref().unwrap_or("?"),
            if baseline.sweep_grid.as_deref() == Some("full") {
                "--full"
            } else {
                "no --full"
            },
        );
    }
    let report = slsvr::cost::drift_check(baseline, &refit, tolerance, data.host_cores);
    print!("{}", report.render());
    if report.passed() {
        Ok(())
    } else {
        Err(format!(
            "cost model drifted beyond {tolerance}% of '{want}' in '{baseline_path}' \
             (re-fit with `slsvr cost-model fit --out {baseline_path}` if the change \
             is intentional)"
        ))
    }
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    Flags::new(args).finish()?;
    println!("datasets:");
    for d in DatasetKind::all() {
        let dims = d.paper_dims();
        println!("  {:<12} {}x{}x{}", d.name(), dims[0], dims[1], dims[2]);
    }
    println!("\nmethods:");
    for m in Method::all() {
        println!("  {}", m.name());
    }
    Ok(())
}
