//! CLI-level tests of the `cool` binary: `cool check` must reject
//! malformed specifications with a diagnostic and a failing exit code —
//! never a panic — and accept well-formed ones; `cool watch` must re-run
//! on edits and honour `--max-runs`; the `--expect-node-*` flags must
//! turn the warm-edit reuse contract into exit codes; two workers must
//! share one `cool serve` daemon's cache through `--cache-remote`.

use std::io::Write;
use std::process::Command;
use std::time::{Duration, Instant};

fn cool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cool"))
}

fn write_spec(dir: &std::path::Path, name: &str, content: &str) -> std::path::PathBuf {
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

/// Replace a watched spec atomically (write + rename) so the polling
/// watcher can never observe a half-written file.
fn replace_spec(path: &std::path::Path, content: &str) {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, content).unwrap();
    std::fs::rename(&tmp, path).unwrap();
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cool-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn check_accepts_well_formed_spec() {
    let dir = temp_dir("ok");
    let spec = write_spec(
        &dir,
        "adder.cool",
        "design adder; input a : 16; input b : 16; node s = add; output y : 16;\n\
         connect a -> s.0; connect b -> s.1; connect s -> y;\n",
    );
    let out = cool().arg("check").arg(&spec).output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok: design `adder`"), "{stdout}");
}

#[test]
fn check_rejects_malformed_specs_without_panicking() {
    let dir = temp_dir("bad");
    let cases: &[(&str, &str, &str)] = &[
        (
            "negative_width.cool",
            "design d; input a : -16;",
            "bit width",
        ),
        (
            "bad_char.cool",
            "design d; input a @ 16;",
            "unexpected character",
        ),
        (
            "unknown_node.cool",
            "design d; input a : 8; connect a -> nosuch;",
            "unknown node",
        ),
        (
            "unknown_behavior.cool",
            "design d; node f = frobnicate;",
            "unknown behaviour",
        ),
        ("truncated.cool", "design", "expected"),
        (
            "bad_arity.cool",
            "design d; node f = expr(-1) { in0 };",
            "arity",
        ),
        (
            "invalid_graph.cool",
            "design d; node f = neg;",
            "invalid graph",
        ),
    ];
    for (name, content, needle) in cases {
        let spec = write_spec(&dir, name, content);
        let out = cool().arg("check").arg(&spec).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "`{name}` was accepted; stderr: {stderr}"
        );
        assert!(
            stderr.to_lowercase().contains(&needle.to_lowercase()),
            "`{name}`: diagnostic lacks `{needle}`: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "`{name}` panicked: {stderr}");
    }
}

#[test]
fn check_reports_missing_file() {
    let out = cool()
        .arg("check")
        .arg("/nonexistent/x.cool")
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn flow_jobs_flag_is_validated() {
    let dir = temp_dir("jobs");
    let spec = write_spec(
        &dir,
        "adder.cool",
        "design adder; input a : 16; input b : 16; node s = add; output y : 16;\n\
         connect a -> s.0; connect b -> s.1; connect s -> y;\n",
    );
    let out = cool()
        .arg("flow")
        .arg(&spec)
        .args(["--quick", "--jobs", "banana"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs"));
}

#[test]
fn flow_warns_on_node_limit_truncated_milp() {
    // The branching instance of tests/optimality.rs, rendered back to
    // specification text: MILP at comm weight 0.1 needs 23 B&B nodes, so
    // a 12-node budget truncates with an incumbent. The CLI must
    // succeed AND warn — on stderr and in the --trace table — instead
    // of silently presenting the incumbent as the optimum.
    let dir = temp_dir("truncated");
    let g = cool_spec::workloads::random_dag(cool_spec::workloads::RandomDagConfig {
        nodes: 8,
        seed: 7,
        ..Default::default()
    });
    let spec = write_spec(&dir, "dag.cool", &cool_spec::print_spec(&g));
    let out_dir = dir.join("out");
    let out = cool()
        .arg("flow")
        .arg(&spec)
        .args([
            "--quick",
            "--partitioner",
            "milp",
            "--objective",
            "blend:1,0.1,0.05",
            "--milp-max-nodes",
            "12",
            "--trace",
            "--out",
        ])
        .arg(&out_dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(
        stderr.contains("not proven optimal"),
        "stderr must carry the truncation warning: {stderr}"
    );
    assert!(
        stdout.contains("warning:") && stdout.contains("node limit"),
        "--trace output must include the truncation warning:\n{stdout}"
    );
    assert!(
        stdout.contains("node-limit truncated"),
        "the report must label the partition:\n{stdout}"
    );

    // A completed solve over the same spec stays quiet.
    let out = cool()
        .arg("flow")
        .arg(&spec)
        .args([
            "--quick",
            "--partitioner",
            "milp",
            "--objective",
            "blend:1,0.1,0.05",
            "--trace",
            "--out",
        ])
        .arg(&out_dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(!stderr.contains("not proven optimal"), "{stderr}");
    assert!(!stdout.contains("warning:"), "{stdout}");
}

#[test]
fn flow_trace_prints_stage_table() {
    let dir = temp_dir("trace");
    let spec = write_spec(
        &dir,
        "adder.cool",
        "design adder; input a : 16; input b : 16; node s = add; output y : 16;\n\
         connect a -> s.0; connect b -> s.1; connect s -> y;\n",
    );
    let out_dir = dir.join("out");
    let out = cool()
        .arg("flow")
        .arg(&spec)
        .args(["--quick", "--jobs", "2", "--trace", "--out"])
        .arg(&out_dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for stage in [
        "spec",
        "cost",
        "partition",
        "schedule",
        "stg",
        "hls",
        "rtl",
        "codegen",
    ] {
        assert!(stdout.contains(stage), "trace lacks `{stage}`:\n{stdout}");
    }
    assert!(stdout.contains("engine trace (2 worker(s))"), "{stdout}");
}

/// Shared flags for the incremental-synthesis CLI tests: a raised board
/// budget (the incremental workload's nodes do not fit two XC4005s) and
/// a pinned all-hardware mapping so nothing stochastic moves a node
/// between invocations.
const DETERMINISTIC: &[&str] = &["--quick", "--target", "fuzzy@100000", "--pin", "*=hw0"];

#[test]
fn expectation_flags_gate_the_warm_edit_contract() {
    let dir = temp_dir("expect");
    let cache_dir = dir.join("cache");
    let out_dir = dir.join("out");
    let base = cool_spec::workloads::incremental(4, 19);
    let edited = cool_spec::workloads::incremental(4, 23);
    let spec = write_spec(&dir, "incr.cool", &cool_spec::print_spec(&base));

    // Process 1: cold populate of the shared cache directory.
    let out = cool()
        .arg("flow")
        .arg(&spec)
        .args(DETERMINISTIC)
        .args(["--cache-dir"])
        .arg(&cache_dir)
        .args(["--out"])
        .arg(&out_dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "cold run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Process 2: warm edit. Every stage key misses (graph digest moved),
    // so the expectations can only be met by the node tier: at least one
    // artifact served from disk, at most one node through fresh HLS.
    write_spec(&dir, "incr.cool", &cool_spec::print_spec(&edited));
    let out = cool()
        .arg("flow")
        .arg(&spec)
        .args(DETERMINISTIC)
        .args(["--cache-dir"])
        .arg(&cache_dir)
        .args(["--out"])
        .arg(&out_dir)
        .args([
            "--expect-node-disk-hits",
            "3",
            "--expect-node-synth-max",
            "1",
            "--trace",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "warm edit violated the node-reuse contract\nstdout: {stdout}\nstderr: {stderr}"
    );

    // Process 3: the same edited spec again now hits at *stage* level, so
    // the node tier is never consulted — an absurd disk-hit expectation
    // must fail with a diagnostic, not a panic.
    let out = cool()
        .arg("flow")
        .arg(&spec)
        .args(DETERMINISTIC)
        .args(["--cache-dir"])
        .arg(&cache_dir)
        .args(["--out"])
        .arg(&out_dir)
        .args(["--expect-node-disk-hits", "1000"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "expectation should have failed");
    assert!(
        stderr.contains("expected at least 1000 node-level disk hit(s)"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");

    // `cool cache stats` decodes the mixed-kind directory.
    let out = cool()
        .args(["cache", "stats", "--cache-dir"])
        .arg(&cache_dir)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("stage entries") && stdout.contains("node entries"),
        "stats must break entries down by kind:\n{stdout}"
    );
    assert!(stdout.contains("0 invalid"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pin_flag_is_validated() {
    let dir = temp_dir("pins");
    let spec = write_spec(
        &dir,
        "adder.cool",
        "design adder; input a : 16; input b : 16; node s = add; output y : 16;\n\
         connect a -> s.0; connect b -> s.1; connect s -> y;\n",
    );
    for (pin, needle) in [
        ("nosuch=hw0", "no node named `nosuch`"),
        ("s=gpu0", "hw<i> or sw<i>"),
        ("s", "NODE=RES"),
    ] {
        let out = cool()
            .arg("flow")
            .arg(&spec)
            .args(["--quick", "--pin", pin])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "`--pin {pin}` was accepted");
        assert!(stderr.contains(needle), "`--pin {pin}`: {stderr}");
    }
}

#[test]
fn watch_reruns_on_edit_and_stops_at_max_runs() {
    let dir = temp_dir("watch");
    let base = cool_spec::workloads::incremental(2, 19);
    let edited = cool_spec::workloads::incremental(2, 23);
    let spec = write_spec(&dir, "incr.cool", &cool_spec::print_spec(&base));

    let mut child = cool()
        .arg("watch")
        .arg(&spec)
        .args(DETERMINISTIC)
        .args(["--poll-ms", "25", "--max-runs", "2"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();

    // Stream the watcher's stdout from a thread so waiting for a line
    // can time out instead of blocking the test forever.
    let stdout = child.stdout.take().unwrap();
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    std::thread::spawn(move || {
        use std::io::BufRead;
        for line in std::io::BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
        {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut seen = Vec::new();
    let wait_for = |needle: &str, seen: &mut Vec<String>| loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok(line) => {
                seen.push(line);
                if seen.last().unwrap().contains(needle) {
                    break;
                }
            }
            Err(_) => panic!(
                "timed out waiting for `{needle}`; saw:\n{}",
                seen.join("\n")
            ),
        }
    };

    // Run #1 fires immediately on the initial file.
    wait_for("run #1: ok", &mut seen);
    // The edit triggers run #2 against the same in-process cache; with
    // --max-runs 2 the loop then exits cleanly.
    replace_spec(&spec, &cool_spec::print_spec(&edited));
    wait_for("run #2: ok", &mut seen);
    wait_for("stopping", &mut seen);

    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!(
                "watcher did not exit after --max-runs; saw:\n{}",
                seen.join("\n")
            );
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(status.success(), "watcher exited with {status}");
    // The warm run reused node artifacts rather than re-synthesizing the
    // whole graph: the run #2 summary line carries non-zero reuse.
    let run2 = seen.iter().find(|l| l.contains("run #2: ok")).unwrap();
    assert!(
        !run2.contains(" 0 node artifact(s) reused"),
        "run #2 should have reused node artifacts: {run2}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_second_watch_process_counts_each_disk_hit_once() {
    // Two watch processes over one cache directory: the second restores
    // every stage of the flow from disk, and its summary counts each of
    // those hits once, not once as a hit and again as a disk hit.
    let dir = temp_dir("watch-disk");
    let cache_dir = dir.join("cache");
    let graph = cool_spec::workloads::incremental(4, 19);
    let spec = write_spec(&dir, "incr.cool", &cool_spec::print_spec(&graph));
    let watch_one_run = || {
        let out = cool()
            .arg("watch")
            .arg(&spec)
            .args(DETERMINISTIC)
            .arg("--cache-dir")
            .arg(&cache_dir)
            .args(["--max-runs", "1"])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "watch failed\nstdout: {stdout}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        stdout
    };
    let cold = watch_one_run();
    assert!(cold.contains(" 0 stage hit(s) (0 disk)"), "{cold}");
    let warm = watch_one_run();
    assert!(warm.contains(" 9 stage hit(s) (9 disk"), "{warm}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watch_survives_a_broken_edit() {
    let dir = temp_dir("watch-bad");
    let good = "design adder; input a : 16; input b : 16; node s = add; output y : 16;\n\
                connect a -> s.0; connect b -> s.1; connect s -> y;\n";
    let spec = write_spec(&dir, "adder.cool", good);

    let mut child = cool()
        .arg("watch")
        .arg(&spec)
        .args(["--quick", "--poll-ms", "25", "--max-runs", "3"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let stdout = child.stdout.take().unwrap();
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    std::thread::spawn(move || {
        use std::io::BufRead;
        for line in std::io::BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
        {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut seen = Vec::new();
    let wait_for = |needle: &str, seen: &mut Vec<String>| loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok(line) => {
                seen.push(line);
                if seen.last().unwrap().contains(needle) {
                    break;
                }
            }
            Err(_) => panic!(
                "timed out waiting for `{needle}`; saw:\n{}",
                seen.join("\n")
            ),
        }
    };

    wait_for("run #1: ok", &mut seen);
    // A half-saved spec parses bad; the loop must report and keep going.
    replace_spec(&spec, "design adder; input a :");
    wait_for("still watching", &mut seen);
    // The next good save recovers.
    replace_spec(&spec, good);
    wait_for("run #3: ok", &mut seen);

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            assert!(status.success(), "watcher exited with {status}");
            break;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("watcher did not exit; saw:\n{}", seen.join("\n"));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flow_milp_max_pivots_flag_is_parsed_and_enforced() {
    // A starved per-LP pivot budget must surface the solver's truthful
    // PivotLimit diagnostic through the CLI (not a panic, not a silent
    // fallback), and a malformed value must name the flag.
    let dir = temp_dir("max-pivots");
    let g = cool_spec::workloads::random_dag(cool_spec::workloads::RandomDagConfig {
        nodes: 8,
        seed: 7,
        ..Default::default()
    });
    let spec = write_spec(&dir, "dag.cool", &cool_spec::print_spec(&g));
    let out = cool()
        .arg("flow")
        .arg(&spec)
        .args(["--quick", "--partitioner", "milp", "--milp-max-pivots", "2"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "starved pivots must fail the flow");
    assert!(
        stderr.contains("pivot limit"),
        "diagnostic must name the pivot limit: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "panicked: {stderr}");

    let out = cool()
        .arg("flow")
        .arg(&spec)
        .args(["--quick", "--milp-max-pivots", "banana"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--milp-max-pivots"));
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    // A removed flag (`--milp-pricing`) and a misspelt one must fail
    // the run and name the flag, never be silently ignored.
    let dir = temp_dir("unknown-flag");
    let spec = write_spec(
        &dir,
        "adder.cool",
        "design adder; input a : 16; input b : 16; node s = add; output y : 16;\n\
         connect a -> s.0; connect b -> s.1; connect s -> y;\n",
    );
    for (flag, value) in [("--milp-pricing", "bland"), ("--partioner", "milp")] {
        let out = cool()
            .arg("flow")
            .arg(&spec)
            .args(["--quick", flag, value, "--out"])
            .arg(dir.join("out"))
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} must fail the run");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{flag}: {stderr}"
        );
    }
}

#[test]
fn watch_reports_an_unreadable_spec_and_keeps_polling() {
    // Satellite contract: a read failure (deleted file, mid-rename
    // window) is treated exactly like a parse failure — reported once,
    // watched through. The loop must survive the file vanishing
    // entirely and pick up the atomic-rename replacement that follows.
    let dir = temp_dir("watch-unreadable");
    let base = cool_spec::workloads::incremental(2, 19);
    let edited = cool_spec::workloads::incremental(2, 23);
    let spec = write_spec(&dir, "incr.cool", &cool_spec::print_spec(&base));

    let mut child = cool()
        .arg("watch")
        .arg(&spec)
        .args(DETERMINISTIC)
        .args(["--poll-ms", "25", "--max-runs", "2"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let stdout = child.stdout.take().unwrap();
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    std::thread::spawn(move || {
        use std::io::BufRead;
        for line in std::io::BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
        {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut seen = Vec::new();
    let wait_for = |needle: &str, seen: &mut Vec<String>| loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok(line) => {
                seen.push(line);
                if seen.last().unwrap().contains(needle) {
                    break;
                }
            }
            Err(_) => panic!(
                "timed out waiting for `{needle}`; saw:\n{}",
                seen.join("\n")
            ),
        }
    };

    wait_for("run #1: ok", &mut seen);
    // Delete the spec out from under the watcher: it must say so and
    // keep polling rather than dying or staying silent.
    std::fs::remove_file(&spec).unwrap();
    wait_for("cannot read", &mut seen);
    assert!(
        seen.last().unwrap().contains("still watching"),
        "the read-failure report must promise to keep polling: {}",
        seen.last().unwrap()
    );
    // An atomic-rename replacement (the save style editors use) is the
    // recovery path: the next poll sees new bytes and run #2 fires.
    replace_spec(&spec, &cool_spec::print_spec(&edited));
    wait_for("run #2: ok", &mut seen);
    wait_for("stopping", &mut seen);

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            assert!(status.success(), "watcher exited with {status}");
            break;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("watcher did not exit; saw:\n{}", seen.join("\n"));
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    // One report per error streak, not one per poll tick.
    let reports = seen.iter().filter(|l| l.contains("cannot read")).count();
    assert_eq!(
        reports,
        1,
        "expected exactly one read-failure report; saw:\n{}",
        seen.join("\n")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_connect_round_trip_is_warm_on_the_second_client() {
    // End-to-end through the CLI: `cool serve` on an ephemeral port,
    // then two `cool flow --cache-remote` workers for the same spec,
    // each with its own empty cache directory. The first computes every
    // stage and writes it through to the daemon; the second computes
    // nothing, every hit coming from the daemon, and both write the
    // same files.
    let dir = temp_dir("serve");
    let g = cool_spec::workloads::incremental(2, 19);
    let spec = write_spec(&dir, "incr.cool", &cool_spec::print_spec(&g));

    let mut daemon = cool()
        .arg("serve")
        .args(["--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let stdout = daemon.stdout.take().unwrap();
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    std::thread::spawn(move || {
        use std::io::BufRead;
        for line in std::io::BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
        {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let banner = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("serve banner");
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner: {banner}"))
        .to_string();

    let run_worker = |name: &str| {
        let out = cool()
            .arg("flow")
            .arg(&spec)
            .args(DETERMINISTIC)
            .args(["--trace", "--cache-remote", &addr, "--cache-dir"])
            .arg(dir.join(format!("{name}-cache")))
            .arg("--out")
            .arg(dir.join(name))
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "worker failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let first = run_worker("out1");
    assert!(
        first.contains("remote tier: 0 hit(s)"),
        "the first worker must find the daemon empty: {first}"
    );
    let second = run_worker("out2");
    let warm = second
        .lines()
        .find(|l| l.contains("/ 0 miss(es)"))
        .unwrap_or_else(|| panic!("the second worker must compute nothing: {second}"));
    let hits: usize = warm
        .strip_prefix("stage cache: ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no hit count in: {warm}"));
    assert!(
        hits > 0 && warm.contains(&format!("(0 from disk, {hits} remote)")),
        "every hit of the second worker must be remote: {warm}"
    );

    // Both workers wrote byte-identical files.
    let read_all = |out_dir: &std::path::Path| {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(out_dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    };
    let a = read_all(&dir.join("out1"));
    assert!(!a.is_empty(), "no files written");
    assert_eq!(a, read_all(&dir.join("out2")), "the workers' files differ");

    let _ = daemon.kill();
    let _ = daemon.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connect_is_rejected_where_it_does_nothing() {
    // Only `ping` and `cache stats` talk to a daemon directly. Every
    // other command must refuse `--connect` and name `--cache-remote`,
    // rather than run locally as if the flag were not there.
    let dir = temp_dir("connect");
    let spec = write_spec(
        &dir,
        "adder.cool",
        "design adder; input a : 16; input b : 16; node s = add; output y : 16;\n\
         connect a -> s.0; connect b -> s.1; connect s -> y;\n",
    );
    let spec = spec.to_str().unwrap();
    for args in [
        vec!["flow", spec, "--quick"],
        vec!["simulate", spec, "a=1", "--quick"],
        vec!["pareto", spec, "--budgets", "16,32", "--quick"],
        vec!["watch", spec, "--quick", "--max-runs", "1"],
    ] {
        let out = cool()
            .args(&args)
            .args(["--connect", "127.0.0.1:1"])
            .current_dir(&dir)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(stderr.contains("--cache-remote ADDR"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_reader_that_closes_stdout_early_ends_cool_quietly() {
    // `cool flow … | head -1`: after the first line the reader goes
    // away, and `cool` must end with status 0 and no panic. `watch`
    // prints its banner before the flow runs and its report after, so
    // the report always meets the closed pipe.
    let dir = temp_dir("closed-stdout");
    let spec = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/specs/incremental16.cool");
    let out_dir = dir.join("out");
    let commands: [Vec<&std::ffi::OsStr>; 2] = [
        vec![
            "flow".as_ref(),
            spec.as_os_str(),
            "--quick".as_ref(),
            "--trace".as_ref(),
            "--out".as_ref(),
            out_dir.as_os_str(),
        ],
        vec![
            "watch".as_ref(),
            spec.as_os_str(),
            "--quick".as_ref(),
            "--max-runs".as_ref(),
            "1".as_ref(),
        ],
    ];
    for args in commands {
        let mut child = cool()
            .args(&args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        let mut first = String::new();
        {
            use std::io::BufRead;
            let mut stdout = std::io::BufReader::new(child.stdout.take().unwrap());
            stdout.read_line(&mut first).unwrap();
        }
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!first.is_empty(), "{args:?} printed nothing: {stderr}");
        assert!(
            !stderr.contains("panicked") && !stderr.contains("Broken pipe"),
            "{args:?}: {stderr}"
        );
        assert!(out.status.success(), "{args:?}: {}: {stderr}", out.status);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
