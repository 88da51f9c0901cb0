//! Integration tests for the `slsvr` CLI binary.

use std::process::Command;

use slsvr::compositing::Method;

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

/// The shared-volume render has two arms — ranks render in turn on a
/// pool, or one thread each — and the distributed render is the third
/// way to the same frame.
#[test]
fn three_pipelines_print_one_digest() {
    let mut digests = Vec::new();
    for (name, extra) in [
        ("pooled.pgm", &["--render-threads", "2"][..]),
        ("per_rank.pgm", &["--render-threads", "1"][..]),
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
    assert_eq!(digests[0], digests[1], "thread-per-rank frame differs");
    assert_eq!(digests[0], digests[2], "distributed frame differs");
}

#[test]
fn degraded_line_has_one_format_in_both_shared_volume_runners() {
    for (name, threads) in [("kill_pooled.pgm", "2"), ("kill_per_rank.pgm", "1")] {
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

/// A flag no command reads is refused by name before any work starts:
/// a typo (`--proc` for `--procs`) and the fused runner's retired switch
/// alike.
#[test]
fn unknown_flags_are_refused_by_name() {
    let retired = concat!("--", "stream");
    for (args, flag) in [
        (
            &["render", "--size", "64", "--proc", "2", "--method", "bs"][..],
            "--proc",
        ),
        (&["render", "--size", "64", retired][..], retired),
        (&["compare", "--sized", "32"][..], "--sized"),
        (&["info", "--verbose"][..], "--verbose"),
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

#[test]
fn distributed_rejects_the_flags_it_cannot_honour() {
    for extra in [&["--balanced"][..], &["--faults", "kill=1@0"][..]] {
        let mut flags = vec!["--distributed"];
        flags.extend_from_slice(extra);
        let out = render_small("rejected.pgm", &flags);
        assert!(!out.status.success(), "{extra:?} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--distributed cannot honour"), "{stderr}");
        assert!(stderr.contains("USAGE"), "{stderr}");
    }
}

/// `slsvr sweep` prints one CSV row per dataset × P × paper method, in
/// that nesting. Timing is modeled from exact counts, so the rows are
/// host-independent; the two below were recorded at `f158b00`.
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
}
