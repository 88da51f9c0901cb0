//! Integration tests for the `slsvr` CLI binary.

use std::process::Command;

use slsvr::compositing::Method;
use slsvr::image::checksum::{fnv1a_bytes, FNV_OFFSET};

fn slsvr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_slsvr"))
}

#[test]
fn info_lists_datasets_and_methods() {
    let out = slsvr().arg("info").output().expect("run slsvr info");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["Engine_low", "Engine_high", "Head", "Cube"] {
        assert!(stdout.contains(name), "missing dataset {name}");
    }
    for method in ["BS", "BSBR", "BSLC", "BSBRC", "TSTREAM"] {
        assert!(stdout.contains(method), "missing method {method}");
    }
}

#[test]
fn help_prints_usage() {
    let out = slsvr().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

/// `--help`'s hand-written METHODS list parses one-to-one onto
/// `Method::all()`, in order.
#[test]
fn help_lists_every_method_once() {
    let out = slsvr().arg("--help").output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let list = stdout.split("METHODS:").nth(1).unwrap();
    let tokens = list.split("\n\n").next().unwrap().split(['|', ' ', '\n']);
    let named: Result<Vec<Method>, _> = tokens.filter(|t| !t.is_empty()).map(str::parse).collect();
    assert_eq!(named, Ok(Method::all().to_vec()));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = slsvr().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn render_writes_a_pgm() {
    let dir = std::env::temp_dir().join("slsvr_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("render_test.pgm");
    let out = slsvr()
        .args([
            "render",
            "--dataset",
            "cube",
            "--dims",
            "24,24,12",
            "--size",
            "64",
            "--procs",
            "4",
            "--method",
            "bsbrc",
            "--out",
        ])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&path).unwrap();
    assert!(bytes.starts_with(b"P5\n64 64\n255\n"));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("T_comp"));
    assert!(stdout.contains("M_max"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn render_rejects_bad_dataset() {
    let out = slsvr()
        .args(["render", "--dataset", "teapot"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown dataset `teapot` (try engine_low/engine_high/head/cube)"),
        "{stderr}"
    );
}

#[test]
fn render_rejects_bad_dims() {
    let out = slsvr().args(["render", "--dims", "1,2"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("dims"));
}

#[test]
fn render_rejects_zero_procs() {
    let out = slsvr()
        .args([
            "render", "--procs", "0", "--dims", "16,16,8", "--size", "32",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

/// Every flag-built config goes through the daemon's request table, so
/// a value the daemon would refuse is refused before anything runs,
/// under the field's name: `render` writes no 0×0 image and `serve`
/// starts no daemon just to have its request dropped.
#[test]
fn configs_the_daemon_refuses_are_refused_by_field_name() {
    for (args, field) in [
        ("render --size 0 --dims 16,16,8", "image_size"),
        ("render --procs 0 --dims 16,16,8 --size 32", "processors"),
        (
            "serve --procs 600 --dims 16,16,8 --size 32 --requests 1",
            "processors",
        ),
        ("compare --rot-x nan --dims 16,16,8 --size 32", "rot_x_deg"),
    ] {
        let out = slsvr().args(args.split(' ')).output().unwrap();
        assert!(!out.status.success(), "{args}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{field} is out of range")),
            "{args}: {stderr}"
        );
    }
}

/// 512 ranks of 2047² subimages pass each field's ceiling but not their
/// product: the frame is refused under both names before any rank
/// allocates, and no image is written.
#[test]
fn render_refuses_a_frame_whose_subimages_exceed_the_budget() {
    let dir = std::env::temp_dir().join("slsvr_cli_subimage_budget");
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("never.pgm");
    let _ = std::fs::remove_file(&out_path);
    let out = slsvr()
        .args("render --size 2047 --procs 512 --dims 16,16,8 --out".split(' '))
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("processors × image_size² is out of range"),
        "{stderr}"
    );
    assert!(!out_path.exists());
}

#[test]
fn compare_runs_all_methods() {
    let out = slsvr()
        .args([
            "compare",
            "--dataset",
            "head",
            "--dims",
            "24,24,12",
            "--size",
            "48",
            "--procs",
            "4",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for method in ["BS", "BSBRC", "RADIXK", "TSTREAM"] {
        assert!(stdout.contains(method));
    }
    // Every row verified against the reference.
    assert!(stdout.contains('✓'));
    assert!(!stdout.contains('✗'));
}

/// A frame whose rank fails — here a raw-link corruption that rank 3
/// refuses as malformed in a BSBRC stage — ends `render` and `compare`
/// with the typed error as the one line on stderr and exit code 1, not
/// a panic. The frame runs on virtual time, so no deadline is waited out.
#[test]
fn a_failed_frame_is_one_error_line() {
    let dir = std::env::temp_dir().join("slsvr_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let frame = [
        "--dataset",
        "engine_high",
        "--size",
        "64",
        "--procs",
        "4",
        "--schedule-seed",
        "7",
        "--faults",
        "corrupt=0.3,seed=1",
    ];
    let out_path = dir.join("failed_frame.pgm");
    let render = [
        &["render", "--method", "bsbrc", "--out"][..],
        &[out_path.to_str().unwrap()],
    ]
    .concat();
    for args in [render, vec!["compare"]] {
        let out = slsvr().args(&args).args(frame).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{}", args[0]);
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            "error: malformed payload from rank 3 during BSBRC stage\n",
            "{}",
            args[0]
        );
    }
    assert!(!out_path.exists());
}

/// A frame whose messages are all lost on the raw wire times out at its
/// first receive: `render` and `compare` each end with the typed
/// communication error as the one line on stderr and exit code 1. The
/// frame runs on virtual time, so the deadline costs no wall time.
#[test]
fn a_timed_out_frame_is_one_error_line() {
    let dir = std::env::temp_dir().join("slsvr_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let frame = [
        "--dataset",
        "engine_high",
        "--size",
        "64",
        "--procs",
        "4",
        "--schedule-seed",
        "7",
        "--faults",
        "drop=1.0",
        "--recv-deadline",
        "50",
    ];
    let out_path = dir.join("timed_out_frame.pgm");
    let render = [
        &["render", "--method", "bsbrc", "--out"][..],
        &[out_path.to_str().unwrap()],
    ]
    .concat();
    for (args, during) in [(render, "BSBRC stage"), (vec!["compare"], "BS stage")] {
        let out = slsvr().args(&args).args(frame).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{}", args[0]);
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!(
                "error: communication failed during {during}: \
                 timed out after 50ms waiting for a message from rank 1\n"
            ),
            "{}",
            args[0]
        );
    }
    assert!(!out_path.exists());
}

/// A sweep whose first cell times out ends with that cell's typed error
/// as the one line on stderr and exit code 1, and writes no CSV.
#[test]
fn a_failed_sweep_cell_is_one_error_line() {
    let dir = std::env::temp_dir().join("slsvr_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("failed_sweep.csv");
    let out = slsvr()
        .args("sweep --size 32 --dims 16,16,8 --schedule-seed 7".split(' '))
        .args("--faults drop=1.0 --recv-deadline 50 --out".split(' '))
        .arg(&csv)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error: communication failed during BS stage: \
         timed out after 50ms waiting for a message from rank 0\n"
    );
    assert!(out.stdout.is_empty());
    assert!(!csv.exists());
}

/// `render --verbose` prints one row per compositing stage, summed over
/// ranks. Binary swap sends half of a dense frame at stage 1 and halves
/// it every stage after: P · 16 · A / 2^k bytes, with A = 64² pixels of
/// 16 bytes at P = 8 (the paper's Equation (2)).
#[test]
fn verbose_render_prints_the_binary_swap_halving() {
    let dir = std::env::temp_dir().join("slsvr_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("verbose_bs.pgm");
    let out = slsvr()
        .args("render --method bs --procs 8 --size 64 --dims 32,32,16 --verbose --out".split(' '))
        .arg(&path)
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let table = stdout
        .split("per-stage traffic timeline (all ranks):\n")
        .nth(1)
        .unwrap_or_else(|| panic!("no timeline in:\n{stdout}"));
    let mut lines = table.lines();
    let header: Vec<&str> = lines.next().unwrap().split_whitespace().collect();
    assert_eq!(
        header.join(" "),
        "stage sent_msgs sent_bytes recv_msgs recv_bytes"
    );
    let sent_bytes: Vec<(String, u64)> = lines
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .take_while(|cols| cols.len() == 5 && cols[0] != "total")
        .map(|cols| (cols[0].to_owned(), cols[2].parse().unwrap()))
        .collect();
    let expected: Vec<(String, u64)> = (1..=3u32)
        .map(|k| (k.to_string(), (8 * 16 * 64 * 64) >> k))
        .collect();
    assert_eq!(sent_bytes, expected);
    assert_eq!(
        expected.iter().map(|(_, b)| *b).collect::<Vec<_>>(),
        [262_144, 131_072, 65_536]
    );
}

#[test]
fn distributed_render_with_ghost() {
    let dir = std::env::temp_dir().join("slsvr_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dist_test.pgm");
    let out = slsvr()
        .args([
            "render",
            "--distributed",
            "--ghost",
            "2",
            "--dims",
            "24,24,12",
            "--size",
            "48",
            "--procs",
            "4",
            "--out",
        ])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(std::fs::read(&path)
        .unwrap()
        .starts_with(b"P5\n48 48\n255\n"));
    let _ = std::fs::remove_file(&path);
    // Rank 0 scattered every block, ghost layers and headers included.
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let scattered = line_with(&stdout, "scattered");
    let bytes: u64 = scattered
        .split_whitespace()
        .find_map(|w| w.parse().ok())
        .unwrap_or_else(|| panic!("no byte count in `{scattered}`"));
    assert!(bytes >= 24 * 24 * 12, "{scattered}");
}

/// Without `--connect`, `slsvr serve` starts a one-shard loopback daemon
/// and drives it through the socket load generator: every request is
/// answered, and the daemon's one shard saw every one.
#[test]
fn serve_without_connect_drives_a_loopback_daemon() {
    let out = slsvr()
        .args(
            "serve --dataset cube --size 32 --dims 16,16,8 --procs 2 --sessions 2 --requests 4"
                .split(' '),
        )
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let dispositions = stdout
        .split("disposition of 8 requests:\n")
        .nth(1)
        .unwrap_or_else(|| panic!("no dispositions in:\n{stdout}"));
    let answered: u64 = dispositions
        .lines()
        .take(7)
        .map(|l| {
            l.split_whitespace()
                .next_back()
                .unwrap()
                .parse::<u64>()
                .unwrap()
        })
        .sum();
    assert_eq!(answered, 8, "{stdout}");
    assert!(stdout.contains("daemon: 1 shard(s)"), "{stdout}");
    let shard = line_with(&stdout, "shard 0:");
    assert!(
        shard.trim_start().starts_with("shard 0: 8 submitted ·"),
        "{shard}"
    );
    line_with(&stdout, "health:");
}

/// `slsvr serve --faults` puts the fault plan on every request, and the
/// daemon renders each frame under it: a killed rank degrades every
/// frame, a floor no frame can reach rejects each request after exactly
/// `--max-retries` + 1 renders, and a floor of 0 dB serves every one.
#[test]
fn serve_faults_ride_on_the_request_and_retry_to_the_budget() {
    let serve = |floor: &str| {
        let out = slsvr()
            .args(
                "serve --dataset cube --size 32 --dims 16,16,8 --procs 2 --sessions 2 \
                 --requests 3 --inter-arrival-ms 0 --no-coalesce --cache-frames 0 \
                 --faults kill=1@0,seed=9 --schedule-seed 5 --recv-deadline 250 \
                 --max-retries 2 --psnr-floor"
                    .split_whitespace()
                    .chain([floor]),
            )
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let count = |stdout: &str, needle: &str| -> u64 {
        line_with(stdout, needle)
            .split_whitespace()
            .next_back()
            .unwrap()
            .parse()
            .unwrap()
    };

    let stdout = serve("1000");
    assert_eq!(count(&stdout, "rejected"), 6, "{stdout}");
    let shard = line_with(&stdout, "shard 0:");
    assert!(shard.contains("6 submitted · 18 rendered ·"), "{shard}");
    assert!(
        line_with(&stdout, "health:").starts_with("health: 12 retries · 0 failed attempts"),
        "{stdout}"
    );

    let stdout = serve("0");
    assert_eq!(count(&stdout, "degraded (served)"), 6, "{stdout}");
    assert!(line_with(&stdout, "shard 0:").contains("6 submitted · 6 rendered ·"));
    let health = line_with(&stdout, "health:");
    assert!(health.starts_with("health: 0 retries"), "{health}");
    assert!(health.contains("min degraded PSNR"), "{health}");
}

/// Runs `slsvr render` on a small head volume with `extra` flags. The
/// dims put every split plane on a power of two, where a ghosted local
/// block samples bit for bit what the shared volume does (elsewhere a
/// gradient tap can round one ulp apart).
fn render_small(name: &str, extra: &[&str]) -> std::process::Output {
    let dir = std::env::temp_dir().join("slsvr_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let out = slsvr()
        .args([
            "render",
            "--dataset",
            "head",
            "--dims",
            "32,32,16",
            "--size",
            "48",
            "--procs",
            "4",
            "--method",
            "tile-stream",
            "--out",
        ])
        .arg(&path)
        .args(extra)
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    out
}

fn line_with<'a>(stdout: &'a str, needle: &str) -> &'a str {
    stdout
        .lines()
        .find(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("no `{needle}` line in:\n{stdout}"))
}

/// The shared-volume render puts every rank's tiles on one board of a
/// pool `--render-threads` wide, and the width never shows in the frame;
/// the distributed render is another way to the same frame.
#[test]
fn three_pipelines_print_one_digest() {
    let mut digests = Vec::new();
    for (name, extra) in [
        ("pool_1.pgm", &["--render-threads", "1"][..]),
        ("pool_3.pgm", &["--render-threads", "3"][..]),
        ("distributed.pgm", &["--distributed", "--ghost", "2"][..]),
    ] {
        let out = render_small(name, extra);
        assert!(
            out.status.success(),
            "{name} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(line_with(&stdout, "T_comp").contains("TSTREAM: T_comp"));
        let wrote = line_with(&stdout, "image fnv1a");
        digests.push(wrote[wrote.find("image fnv1a").unwrap()..].to_owned());
    }
    assert_eq!(digests[0], digests[1], "three-thread frame differs");
    assert_eq!(digests[0], digests[2], "distributed frame differs");
}

#[test]
fn degraded_line_has_one_format_in_both_shared_volume_runners() {
    for (name, threads) in [("kill_pool_1.pgm", "1"), ("kill_pool_3.pgm", "3")] {
        let flags = ["--faults", "kill=2@3", "--recv-deadline", "5000"];
        let out = render_small(name, &[&flags[..], &["--render-threads", threads]].concat());
        assert!(
            out.status.success(),
            "{name} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = line_with(&stdout, "DEGRADED");
        assert!(line.starts_with("DEGRADED: dead ranks [2] · missing pieces ["));
        assert!(line.contains("% · PSNR vs reference "), "{line}");
        assert!(line.ends_with(" dB"), "{line}");
    }
}

/// A dead root assembles nothing, and the frame says which pieces that
/// cost: every one, at 0 % coverage.
#[test]
fn a_dead_root_reports_every_piece_missing() {
    let dir = std::env::temp_dir().join("slsvr_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let out_path = dir.join("dead_root.pgm");
    let out = slsvr()
        .args([
            "render",
            "--dataset",
            "cube",
            "--size",
            "32",
            "--procs",
            "4",
        ])
        .args(["--method", "bsbrc", "--schedule-seed", "7"])
        .args(["--faults", "kill=0@0,seed=0", "--out"])
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let line = line_with(&stdout, "DEGRADED");
    assert!(
        line.starts_with("DEGRADED: dead ranks [0] · missing pieces [0, 1, 2, 3] · lost partners "),
        "{line}"
    );
    assert!(line.contains(" · coverage 0.0% · "), "{line}");
}

/// A flag no command reads is refused by name before any work starts:
/// a typo (`--proc` for `--procs`), the fused runner's retired switch,
/// `render --max-retries` (the frame retries of `serve` and `daemon`; a
/// reliable link's retry schedule follows the receive deadline), the
/// retired ack timeout of that schedule, `daemon --simd-lanes` and
/// `--faults`, which each request now carries, and the retired
/// service-side fault plan, retry backoff and per-dataset admission
/// shed, alike.
#[test]
fn unknown_flags_are_refused_by_name() {
    let retired = concat!("--", "stream");
    let service_faults = concat!("--", "serve-faults");
    let backoff = concat!("--", "retry-backoff-ms");
    let ack_timeout = concat!("--", "ack-timeout");
    let shed_threshold = concat!("--", "brea", "ker-threshold");
    let shed_cooldown = concat!("--", "brea", "ker-cooldown-ms");
    for (args, flag) in [
        (
            &["render", "--size", "64", "--proc", "2", "--method", "bs"][..],
            "--proc",
        ),
        (&["render", "--size", "64", retired][..], retired),
        (&["render", "--max-retries", "3"][..], "--max-retries"),
        (&["render", "--reliable", ack_timeout, "5"][..], ack_timeout),
        (&["serve", "--reliable", ack_timeout, "5"][..], ack_timeout),
        (&["compare", "--sized", "32"][..], "--sized"),
        (&["info", "--verbose"][..], "--verbose"),
        (&["daemon", "--simd-lanes", "2"][..], "--simd-lanes"),
        (&["daemon", "--faults", "kill=1@0"][..], "--faults"),
        (&["daemon", service_faults, "kill=1@0"][..], service_faults),
        (&["serve", service_faults, "kill=1@0"][..], service_faults),
        (&["serve", backoff, "1"][..], backoff),
        (&["daemon", shed_threshold, "1"][..], shed_threshold),
        (&["serve", shed_threshold, "1"][..], shed_threshold),
        (&["daemon", shed_cooldown, "1"][..], shed_cooldown),
        (&["serve", shed_cooldown, "1"][..], shed_cooldown),
    ] {
        let out = slsvr().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{stderr}"
        );
    }
}

/// A value flag followed by another flag, or given last, has no value:
/// the command refuses it by name and writes nothing, instead of taking
/// the next flag as a file name or running at the default. A negative
/// number is still a value.
#[test]
fn a_value_flag_given_no_value_is_refused() {
    let dir = std::env::temp_dir().join("slsvr_cli_valueless");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let render = "render --dataset cube --dims 16,16,8 --procs 2";
    for (args, flag) in [
        (format!("{render} --size 32 --out --verbose"), "--out"),
        (format!("{render} --size"), "--size"),
    ] {
        let out = slsvr()
            .current_dir(&dir)
            .args(args.split(' '))
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{args}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("flag `{flag}` needs a value")),
            "{args}: {stderr}"
        );
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "{args}");
    }
    let out = slsvr()
        .current_dir(&dir)
        .args(format!("{render} --size 32 --rot-x -30 --out tilted.pgm").split(' '))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("tilted.pgm").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn distributed_rejects_the_flags_it_cannot_honour() {
    let out = render_small("rejected.pgm", &["--distributed", "--faults", "kill=1@0"]);
    assert!(!out.status.success(), "--faults was accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--distributed cannot honour"), "{stderr}");
    assert!(stderr.contains("USAGE"), "{stderr}");
}

/// `slsvr sweep` prints one CSV row per dataset × P × paper method, in
/// that nesting. Timing is modeled from exact counts, so the rows are
/// host-independent; the two below were recorded at `f158b00`, and the
/// FNV-1a digest of the whole stdout (every row's frame summary at four
/// decimals) at `2b021b5`.
#[test]
fn sweep_csv_header_and_a_data_line_are_pinned() {
    let out = slsvr()
        .args(["sweep", "--size", "32", "--dims", "16,16,8"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1 + 4 * 6 * 4);
    assert_eq!(
        lines[0],
        "dataset,image_size,processors,method,t_comp_ms,t_comm_ms,t_total_ms,m_max,total_bytes,composite_ops"
    );
    assert_eq!(
        lines[60],
        "Head,32,8,BSBRC,0.6667,0.1727,0.8394,1844,7104,412"
    );
    let digest = fnv1a_bytes(FNV_OFFSET, out.stdout.iter().copied());
    assert_eq!(digest, 0xbc758c66b851c547, "sweep CSV digest");
}
