//! Black-box tests of the `mmio` binary.

use std::process::Command;

fn mmio(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mmio"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn list_shows_builtins() {
    let out = mmio(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in ["strassen", "winograd", "laderman", "classical2"] {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn verify_builtin() {
    let out = mmio(&["verify", "strassen"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("correct"));
}

#[test]
fn verify_unknown_fails() {
    let out = mmio(&["verify", "nonsense"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown algorithm"));
}

#[test]
fn export_import_roundtrip() {
    let exported = mmio(&["export", "winograd"]);
    assert!(exported.status.success());
    let dir = std::env::temp_dir().join("mmio_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("winograd.json");
    std::fs::write(&path, &exported.stdout).unwrap();
    let verified = mmio(&["verify", path.to_str().unwrap()]);
    assert!(verified.status.success());
    assert!(String::from_utf8(verified.stdout)
        .unwrap()
        .contains("correct"));
}

#[test]
fn corrupted_import_rejected() {
    let exported = mmio(&["export", "strassen"]);
    let json = String::from_utf8(exported.stdout).unwrap();
    // Flip a coefficient: "−1" → "−2" somewhere.
    let corrupted = json.replacen("\"-1\"", "\"-2\"", 1);
    assert_ne!(json, corrupted, "fixture must contain a -1 coefficient");
    let dir = std::env::temp_dir().join("mmio_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.json");
    std::fs::write(&path, corrupted).unwrap();
    let out = mmio(&["verify", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("not a matrix multiplication algorithm"));
}

#[test]
fn simulate_reports_io() {
    let out = mmio(&["simulate", "strassen", "3", "16"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("I/Os"));
    assert!(stdout.contains("ratio"));
}

#[test]
fn certify_reports_bound() {
    let out = mmio(&["certify", "strassen", "4", "8"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("certified I/O ≥"));
}

#[test]
fn routing_verifies() {
    let out = mmio(&["routing", "strassen", "2"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("VERIFIED"));
}

#[test]
fn info_emits_json() {
    let out = mmio(&["info", "laderman"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"omega0\""));
    assert!(stdout.contains("\"edge_expansion_applies\""));
}

#[test]
fn no_args_prints_usage() {
    let out = mmio(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("usage"));
}

#[test]
fn analyze_json_is_thread_count_invariant() {
    // The determinism contract: `--threads N` must never change output.
    // One clean algorithm, one with a different matching structure, and
    // the disconnected-decoding pathology.
    for algo in ["strassen", "winograd", "strassen+dummy"] {
        let serial = mmio(&["--threads", "1", "analyze", algo, "2", "--json"]);
        assert!(serial.status.success(), "{algo}");
        for threads in ["2", "8"] {
            let par = mmio(&["--threads", threads, "analyze", algo, "2", "--json"]);
            assert_eq!(par.status.code(), serial.status.code(), "{algo}");
            assert_eq!(
                par.stdout, serial.stdout,
                "{algo}: analyze --json diverges at {threads} threads"
            );
        }
    }
}

#[test]
fn analyze_reads_r_wherever_json_stands() {
    let want = mmio(&["analyze", "strassen", "3", "--json"]);
    assert!(want.status.success());
    assert!(String::from_utf8_lossy(&want.stdout).contains("\"r\": 3"));
    for args in [
        ["analyze", "strassen", "--json", "3"],
        ["--json", "analyze", "strassen", "3"],
    ] {
        let got = mmio(&args);
        assert_eq!(got.status.code(), want.status.code(), "{args:?}");
        assert_eq!(got.stdout, want.stdout, "{args:?}");
    }
}

#[test]
fn distsim_reads_operands_wherever_flags_stand() {
    let want = mmio(&["distsim", "strassen", "2", "--procs", "8", "--topo", "ring"]);
    assert!(want.status.success());
    assert!(String::from_utf8_lossy(&want.stdout).contains("P=8"));
    for args in [
        ["distsim", "--procs", "8", "strassen", "2", "--topo", "ring"],
        ["distsim", "--topo", "ring", "strassen", "--procs", "8", "2"],
    ] {
        let got = mmio(&args);
        assert_eq!(got.status.code(), want.status.code(), "{args:?}");
        assert_eq!(got.stdout, want.stdout, "{args:?}");
    }
}

#[test]
fn flag_without_value_is_a_usage_error() {
    let socket = std::env::temp_dir().join(format!("mmio_cli_novalue_{}", std::process::id()));
    let socket = socket.to_str().unwrap();
    for args in [
        &["distsim", "strassen", "2", "--procs"][..],
        &["distsim", "strassen", "2", "--mem"],
        &["distsim", "strassen", "2", "--assign"],
        &["distsim", "strassen", "2", "--topo"],
        &["serve", "--socket", socket, "--workers"],
        &["serve", "--socket", socket, "--queue-cap"],
        &["serve", "--socket", socket, "--deadline-ms"],
        &["serve", "--socket", socket, "--cache"],
        &["serve", "--socket"],
        &["audit", "--baseline"],
    ] {
        let out = mmio(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("missing value for"),
            "{args:?}"
        );
    }
}

#[test]
fn cert_emit_reads_r_wherever_flags_stand() {
    let dir = std::env::temp_dir().join(format!("mmio_cli_emit_order_{}", std::process::id()));
    let out = dir.to_str().unwrap();
    let emit = |args: &[&str]| -> (Vec<u8>, Vec<String>) {
        let _ = std::fs::remove_dir_all(&dir);
        let o = mmio(args);
        assert!(o.status.success(), "{args:?}");
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        (o.stdout, files)
    };
    let want = emit(&["cert", "emit", "strassen", "3", "--out", out, "--json"]);
    assert!(want.1.iter().all(|f| f.contains("_r3")), "{:?}", want.1);
    for args in [
        ["cert", "emit", "strassen", "--json", "3", "--out", out],
        ["cert", "emit", "strassen", "--out", out, "3", "--json"],
    ] {
        assert_eq!(emit(&args), want, "{args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn threads_env_var_matches_flag() {
    let flag = mmio(&["--threads", "3", "routing", "strassen", "1", "3"]);
    assert!(flag.status.success());
    let env = Command::new(env!("CARGO_BIN_EXE_mmio"))
        .env("MMIO_THREADS", "3")
        .args(["routing", "strassen", "1", "3"])
        .output()
        .expect("binary runs");
    assert_eq!(flag.stdout, env.stdout);
    // And the explicit flag wins over the environment.
    let both = Command::new(env!("CARGO_BIN_EXE_mmio"))
        .env("MMIO_THREADS", "2")
        .args(["--threads", "1", "routing", "strassen", "1", "3"])
        .output()
        .expect("binary runs");
    assert_eq!(both.stdout, flag.stdout);
}

#[test]
fn routing_transport_verifies() {
    let out = mmio(&["routing", "winograd", "1", "3"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("49 copies"), "{stdout}");
    assert!(stdout.contains("uniform true"), "{stdout}");
    assert!(!stdout.contains("VIOLATED"), "{stdout}");
}

#[test]
fn check_passes_clean() {
    let out = mmio(&["check"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("check: PASS"), "{stdout}");
    assert!(!stdout.contains("DIVERGES"), "{stdout}");
    assert!(!stdout.contains("MISSED"), "{stdout}");
}

#[test]
fn check_json_is_thread_count_invariant() {
    // The suite fixes its own thread counts; `--threads` must be inert.
    let serial = mmio(&["--threads", "1", "check", "--json"]);
    assert!(serial.status.success());
    for threads in ["2", "8"] {
        let par = mmio(&["--threads", threads, "check", "--json"]);
        assert!(par.status.success());
        assert_eq!(
            par.stdout, serial.stdout,
            "check --json diverges at {threads} threads"
        );
    }
    // And across repeat runs of the same configuration.
    let again = mmio(&["--threads", "1", "check", "--json"]);
    assert_eq!(again.stdout, serial.stdout);
}

#[test]
fn check_json_reports_exact_planted_codes() {
    let out = mmio(&["check", "--json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"ok\": true"), "{stdout}");
    // The seeded defect traces fire their exact codes (plus the
    // explorer's own planted-bug self-test).
    for code in ["MMIO-C001", "MMIO-C002", "MMIO-D005"] {
        assert!(stdout.contains(code), "missing selftest code {code}");
    }
    // MMIO-C003 (routing-memo double fill) is retired.
    assert!(!stdout.contains("MMIO-C003"), "{stdout}");
    assert!(!stdout.contains("\"fired\": false"), "{stdout}");
}

#[test]
fn unparsable_threads_env_warns_and_falls_back() {
    for bad in ["0", "abc"] {
        let out = Command::new(env!("CARGO_BIN_EXE_mmio"))
            .env("MMIO_THREADS", bad)
            .args(["verify", "strassen"])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "MMIO_THREADS={bad} must not be fatal");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("warning: MMIO_THREADS") && stderr.contains(bad),
            "MMIO_THREADS={bad}: {stderr}"
        );
    }
}

#[test]
fn bad_threads_value_fails() {
    let out = mmio(&["--threads", "zero", "list"]);
    assert!(!out.status.success());
    let out = mmio(&["--threads"]);
    assert!(!out.status.success());
}

#[test]
fn certify_golden_across_views_and_threads() {
    // The view-equivalence contract: `--view explicit` and `--view
    // implicit` (and `auto`, which resolves to one of them) produce
    // byte-identical certify output at every thread count. The expected
    // bytes are pinned so a drift in either path fails loudly.
    let golden = "n = 8, M = 4: 36 complete segments, certified I/O ≥ 1422\n\
                  (k = 1, feasible = false, disjoint subcomputations = 49 ≥ target 1)\n";
    for view in ["explicit", "implicit", "auto"] {
        for threads in ["1", "2", "8"] {
            let out = mmio(&[
                "--threads",
                threads,
                "--view",
                view,
                "certify",
                "strassen",
                "3",
                "4",
            ]);
            assert!(out.status.success(), "view={view} threads={threads}");
            assert_eq!(
                String::from_utf8(out.stdout).unwrap(),
                golden,
                "certify bytes diverge at view={view} threads={threads}"
            );
        }
    }
}

#[test]
fn certify_huge_cache_is_infeasible_not_wrapped() {
    // `M` near `u64::MAX` used to overflow `multiplier·M` and the segment
    // threshold: 2^62 panicked, 2^63 wrapped to a zero threshold and
    // certified one segment per step. Every such `M` must print what any
    // `M` too large for `r` prints: infeasible `k`, no complete segment.
    for m in [
        "4611686018427387904",
        "9223372036854775808",
        "18446744073709551615",
    ] {
        let out = mmio(&["certify", "strassen", "3", m]);
        assert!(out.status.success(), "M = {m}");
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            format!(
                "n = 8, M = {m}: 0 complete segments, certified I/O ≥ 0\n\
                 (k = 1, feasible = false, disjoint subcomputations = 49 ≥ target 1)\n"
            ),
            "M = {m}"
        );
    }
}

#[test]
fn simulate_identical_across_views() {
    let explicit = mmio(&["--view", "explicit", "simulate", "strassen", "3", "64"]);
    let implicit = mmio(&["--view", "implicit", "simulate", "strassen", "3", "64"]);
    assert!(explicit.status.success() && implicit.status.success());
    assert_eq!(explicit.stdout, implicit.stdout);
}

#[test]
fn routing_transport_identical_across_views() {
    let explicit = mmio(&["--view", "explicit", "routing", "winograd", "1", "3"]);
    let implicit = mmio(&["--view", "implicit", "routing", "winograd", "1", "3"]);
    assert!(explicit.status.success() && implicit.status.success());
    assert_eq!(explicit.stdout, implicit.stdout);
    assert!(String::from_utf8(implicit.stdout)
        .unwrap()
        .contains("VERIFIED"));
}

#[test]
fn bad_view_value_fails() {
    let out = mmio(&["--view", "lazy", "list"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("invalid --view"));
    let out = mmio(&["--view"]);
    assert!(!out.status.success());
}

#[test]
fn degenerate_r0_legal_under_every_view() {
    // r = 0 (n = 1) has no closed-form view; the CLI must fall back to
    // the explicit graph rather than panic, whatever `--view` says.
    let golden = mmio(&["simulate", "strassen", "0", "4"]);
    assert!(golden.status.success());
    for view in ["explicit", "implicit", "auto"] {
        let out = mmio(&["--view", view, "simulate", "strassen", "0", "4"]);
        assert!(out.status.success(), "view={view} at r=0");
        assert_eq!(out.stdout, golden.stdout, "view={view} at r=0");
    }
}

#[test]
fn stray_arguments_are_usage_errors() {
    // A flag the command does not read, or an operand past its last one,
    // exits 2 with the usage text instead of being dropped silently.
    for args in [
        &["list", "--bogus"][..],
        &["verify", "strassen", "junk"],
        &["certify", "strassen", "3", "64", "--procs", "4"],
        &["simulate", "strassen", "3", "64", "--out", "unused-dir"],
        &["certify", "strassen", "3", "64", "5"],
        &["routing", "strassen", "1", "2", "9"],
    ] {
        let out = mmio(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: mmio"),
            "{args:?}"
        );
    }
}

#[test]
fn cert_emit_witness_depth_depends_on_view() {
    // The schedule and sweep witnesses replay explicit schedules, so the
    // implicit view caps their depth at 4; the routing certificate keeps
    // the requested depth under both views.
    for (view, depth) in [("implicit", 4), ("explicit", 5)] {
        let dir = std::env::temp_dir().join(format!("mmio_cli_emit_{view}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_str().unwrap();
        let o = mmio(&[
            "--view", view, "cert", "emit", "strassen", "5", "--out", out,
        ]);
        assert!(o.status.success(), "view={view}");
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        let want = [
            "strassen__routing_k2_r5.json".to_string(),
            format!("strassen__schedule_r{depth}_m9.json"),
            format!("strassen__sweep_r{depth}.json"),
        ];
        assert_eq!(files, want, "view={view}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn simulate_below_operand_floor_is_bad_input() {
    // Strassen needs 5 slots to hold an operand set plus its result; a
    // smaller M is malformed input (exit 4), not a panic, under both views.
    for view in ["explicit", "implicit"] {
        for m in ["2", "0"] {
            let out = mmio(&["--view", view, "simulate", "strassen", "2", m]);
            assert_eq!(out.status.code(), Some(4), "view={view} M={m}");
            assert!(out.stdout.is_empty(), "view={view} M={m}");
            assert_eq!(
                String::from_utf8(out.stderr).unwrap(),
                format!("error: cache size {m} cannot hold an operand set (5 needed)\n"),
                "view={view} M={m}"
            );
        }
    }
}

#[test]
fn report_below_operand_floor_is_bad_input() {
    // `report` times the recursive schedule at M: below the operand floor
    // it exits 4 with `simulate`'s message, before any output.
    let out = mmio(&["report", "strassen", "2", "1"]);
    assert_eq!(out.status.code(), Some(4));
    assert!(out.stdout.is_empty());
    assert_eq!(
        String::from_utf8(out.stderr).unwrap(),
        "error: cache size 1 cannot hold an operand set (5 needed)\n"
    );
}

#[test]
fn distsim_mem_below_operand_floor_is_bad_input() {
    // An out-of-range `--mem` is malformed input like `simulate`'s M (exit
    // 4, one line, no usage text), under both views.
    for view in ["explicit", "implicit"] {
        let out = mmio(&["--view", view, "distsim", "strassen", "2", "--mem", "1"]);
        assert_eq!(out.status.code(), Some(4), "view={view}");
        assert!(out.stdout.is_empty(), "view={view}");
        assert_eq!(
            String::from_utf8(out.stderr).unwrap(),
            "error: cache size 1 cannot hold an operand set (5 needed)\n",
            "view={view}"
        );
    }
}

#[test]
fn too_deep_r_is_bad_input() {
    // Strassen G_40 overflows dense u32 vertex ids. Every command that
    // takes a depth rejects it where it parses it: exit 4, one line, no
    // partial output, nothing written.
    let dir = std::env::temp_dir().join(format!("mmio_cli_deep_{}", std::process::id()));
    let out_dir = dir.to_str().unwrap();
    for args in [
        &["simulate", "strassen", "40", "64"][..],
        &["certify", "strassen", "40", "64"],
        &["distsim", "strassen", "40"],
        &["report", "strassen", "40", "64"],
        &["cert", "emit", "strassen", "40", "--out", out_dir],
        &["routing", "strassen", "1", "40"],
        &["routing", "strassen", "40"],
        &["analyze", "strassen", "40"],
    ] {
        let out = mmio(args);
        assert_eq!(out.status.code(), Some(4), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert_eq!(
            String::from_utf8(out.stderr).unwrap(),
            "error: strassen: r = 40 is too deep (G_r exceeds u32 vertex ids)\n",
            "{args:?}"
        );
    }
    assert!(!dir.exists(), "cert emit wrote before rejecting r");
}

#[test]
fn cert_emit_at_r_zero_is_bad_input() {
    // G_0 has no certificate the verifier accepts (MMIO-V004), so `cert
    // emit` refuses r = 0 up front: exit 4, one line, nothing written.
    let dir = std::env::temp_dir().join(format!("mmio_cli_r0_{}", std::process::id()));
    let out_dir = dir.to_str().unwrap();
    for target in ["strassen", "all"] {
        let out = mmio(&["cert", "emit", target, "0", "--out", out_dir]);
        assert_eq!(out.status.code(), Some(4), "{target}");
        assert!(out.stdout.is_empty(), "{target}");
        assert_eq!(
            String::from_utf8(out.stderr).unwrap(),
            "error: cert emit: r = 0 has no certificates (the verifier requires r ≥ 1)\n",
            "{target}"
        );
    }
    assert!(!dir.exists(), "cert emit wrote before rejecting r = 0");
}
