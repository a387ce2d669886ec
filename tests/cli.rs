//! End-to-end tests of the `gpures` binary: campaign-to-disk, file-based
//! analysis, the streaming monitor, incidents, and the projection command.

use gpu_resilience::obs::json::Json;
use std::path::PathBuf;
use std::process::Command;

fn gpures() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gpures"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gpures-cli-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn read_metrics(path: &PathBuf) -> Json {
    let text = std::fs::read_to_string(path).expect("metrics file written");
    let doc = Json::parse(&text).expect("metrics parse");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("gpures-metrics/v1")
    );
    doc
}

fn stage_names(doc: &Json) -> Vec<String> {
    doc.get("stages")
        .and_then(Json::as_arr)
        .map(|stages| {
            stages
                .iter()
                .filter_map(|s| s.get("stage").and_then(Json::as_str))
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn campaign_analyze_round_trip() {
    let dir = temp_dir("roundtrip");

    let out = gpures()
        .args(["campaign", "--out"])
        .arg(&dir)
        .args(["--shape", "tiny", "--seed", "5", "--days", "10", "--metrics"])
        .arg(dir.join("campaign-metrics.json"))
        .output()
        .expect("run campaign");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("jobs.csv").exists());
    assert!(dir.join("downtime.csv").exists());
    assert!(dir.join("logs").read_dir().unwrap().count() >= 4);
    let metrics = read_metrics(&dir.join("campaign-metrics.json"));
    assert!(stage_names(&metrics).contains(&"campaign".to_string()));
    assert!(stage_names(&metrics).contains(&"schedule".to_string()));

    let dot_dir = dir.join("dot");
    let out = gpures()
        .args(["analyze", "--logs"])
        .arg(dir.join("logs"))
        .arg("--jobs")
        .arg(dir.join("jobs.csv"))
        .arg("--downtime")
        .arg(dir.join("downtime.csv"))
        .args(["--nodes", "6", "--hours", "240", "--dot"])
        .arg(&dot_dir)
        .arg("--metrics")
        .arg(dir.join("analyze-metrics.json"))
        .output()
        .expect("run analyze");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table 1"), "missing Table 1:\n{stdout}");
    assert!(stdout.contains("Table 2"));
    assert!(stdout.contains("Study summary"));
    assert!(dot_dir.join("fig5.dot").exists());
    let metrics = read_metrics(&dir.join("analyze-metrics.json"));
    for want in ["extract", "coalesce", "stats", "job_impact"] {
        assert!(
            stage_names(&metrics).contains(&want.to_string()),
            "stage {want} missing from analyze metrics"
        );
    }
    // The jobs-table load is the job_impact stage's `parse` span, and the
    // stage counts every job once.
    let job_impact = metrics
        .get("stages")
        .and_then(Json::as_arr)
        .and_then(|stages| {
            stages
                .iter()
                .find(|s| s.get("stage").and_then(Json::as_str) == Some("job_impact"))
        })
        .expect("job_impact stage");
    let spans: Vec<&str> = job_impact
        .get("spans")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    assert!(spans.contains(&"parse"), "no parse span in {spans:?}");
    let rows = std::fs::read_to_string(dir.join("jobs.csv"))
        .expect("jobs.csv")
        .lines()
        .count()
        - 1;
    assert_eq!(
        job_impact
            .get("counters")
            .and_then(|c| c.get("jobs"))
            .and_then(Json::as_u64),
        Some(rows as u64)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_jobs_csv_fails_naming_its_line() {
    let dir = temp_dir("damaged-jobs");
    std::fs::create_dir_all(dir.join("logs")).expect("logs dir");
    std::fs::write(
        dir.join("logs/gpub000.log"),
        "Jan 16 13:04:57 gpub000 kernel: NVRM: Xid (PCI:0000:0f:00): 13, pid=48241, \
         Graphics Exception: ESR 0x5f6ad=0x1000e\n\
         Jan 16 13:05:09 gpub000 sshd[9911]: Accepted publickey for ops\n",
    )
    .expect("write log");
    let analyze = |jobs: &[u8]| {
        std::fs::write(dir.join("jobs.csv"), jobs).expect("write jobs");
        gpures()
            .args(["analyze", "--logs"])
            .arg(dir.join("logs"))
            .arg("--jobs")
            .arg(dir.join("jobs.csv"))
            .args(["--nodes", "1", "--hours", "720"])
            .output()
            .expect("run analyze")
    };
    let head = b"id,start_us,end_us,state,exit_code,ml,gpus\n\
                 1,0,60000000,COMPLETED,0,0,0/0000:0f:00\n";
    let last = b"3,1296000000000,1296000100000,FAILED,13,1,0/0000:0f:00";

    // A byte that is not UTF-8 fails its own line, not the whole file.
    let mut damaged = head.to_vec();
    damaged.extend_from_slice(b"2,0,60000000,COMPL\xffETED,0,0,0/0000:0f:00\n");
    damaged.extend_from_slice(last);
    let out = analyze(&damaged);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("jobs csv line 3: bad state"), "{stderr}");

    // A last row without a newline parses like one with it.
    let mut unterminated = head.to_vec();
    unterminated.extend_from_slice(last);
    let mut terminated = unterminated.clone();
    terminated.push(b'\n');
    let (a, b) = (analyze(&unterminated), analyze(&terminated));
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    assert!(b.status.success(), "{}", String::from_utf8_lossy(&b.stderr));
    assert_eq!(a.stdout, b.stdout);
    assert!(String::from_utf8_lossy(&a.stdout).contains("Table 2"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn monitor_streams_a_log_file() {
    let dir = temp_dir("monitor");
    let out = gpures()
        .args(["campaign", "--out"])
        .arg(&dir)
        .args(["--shape", "tiny", "--seed", "6", "--days", "8"])
        .output()
        .expect("run campaign");
    assert!(out.status.success());

    // Pick the largest node log and stream it.
    let log = std::fs::read_dir(dir.join("logs"))
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .max_by_key(|p| p.metadata().map(|m| m.len()).unwrap_or(0))
        .expect("a log file");
    let out = gpures()
        .args(["monitor", "--log"])
        .arg(&log)
        .args(["--nodes", "6", "--every", "50"])
        .output()
        .expect("run monitor");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("live Table 1"), "no live table:\n{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("scanned"), "no scan summary:\n{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn incidents_and_project_commands() {
    let out = gpures().arg("incidents").output().expect("run incidents");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Figure 1"));
    assert!(stdout.contains("17-day"));

    let out = gpures()
        .args(["project", "--gpus", "800", "--recovery-min", "40", "--runs", "10"])
        .output()
        .expect("run project");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("overprovision"), "{stdout}");
}

#[test]
fn degenerate_stream_flags_are_usage_errors() {
    let dir = temp_dir("degenerate");
    // `--chunk-bytes 0` once silently disabled chunking; it must now
    // fail fast with a usage hint, before any log I/O happens.
    let out = gpures()
        .args(["analyze", "--logs"])
        .arg(&dir)
        .args(["--chunk-bytes", "0"])
        .output()
        .expect("run analyze");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--chunk-bytes") && stderr.contains("positive"),
        "expected a usage hint naming the flag, got:\n{stderr}"
    );

    let out = gpures()
        .args(["analyze", "--logs"])
        .arg(&dir)
        .args(["--workers", "0"])
        .output()
        .expect("run analyze");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--workers") && stderr.contains("positive"),
        "expected a usage hint naming the flag, got:\n{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn record_store_write_and_replay_round_trip() {
    let dir = temp_dir("records");
    let out = gpures()
        .args(["campaign", "--out"])
        .arg(&dir)
        .args(["--shape", "tiny", "--seed", "9", "--days", "6", "--records"])
        .arg(dir.join("campaign.grcs"))
        .output()
        .expect("run campaign");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("campaign.grcs").exists());

    // Text analysis with the store tee.
    let store = dir.join("records.grcs");
    let text = gpures()
        .args(["analyze", "--logs"])
        .arg(dir.join("logs"))
        .args(["--nodes", "6", "--hours", "144", "--records"])
        .arg(&store)
        .output()
        .expect("run analyze with tee");
    assert!(text.status.success(), "{}", String::from_utf8_lossy(&text.stderr));
    assert!(String::from_utf8_lossy(&text.stderr).contains("record store written"));

    // Replay must print byte-identical tables from the store alone.
    let replay = gpures()
        .args(["analyze", "--from-records"])
        .arg(&store)
        .args(["--nodes", "6", "--hours", "144"])
        .output()
        .expect("run replay");
    assert!(
        replay.status.success(),
        "{}",
        String::from_utf8_lossy(&replay.stderr)
    );
    assert!(String::from_utf8_lossy(&replay.stderr).contains("replaying"));
    assert_eq!(
        String::from_utf8_lossy(&text.stdout),
        String::from_utf8_lossy(&replay.stdout),
        "replayed tables must match the text-path tables byte for byte"
    );

    // Mixing replay with text-path flags is a usage error.
    let out = gpures()
        .args(["analyze", "--from-records"])
        .arg(&store)
        .arg("--logs")
        .arg(dir.join("logs"))
        .output()
        .expect("run bad mix");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--from-records"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_runs_a_user_battery_and_reports_scn_errors_with_positions() {
    let dir = temp_dir("sweep");
    let scn = dir.join("smoke.scn");
    std::fs::write(
        &scn,
        "scenario \"smoke\"\nfleet tiny\nduration_days = 12\nseeds = [3]\nrates ampere_delta\n",
    )
    .expect("write scn");
    let out = gpures()
        .arg("sweep")
        .arg(&scn)
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("run sweep");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("smoke"), "row summary missing:\n{stdout}");
    let doc = Json::parse(&std::fs::read_to_string(dir.join("sweep.json")).expect("artifact"))
        .expect("artifact parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("gpures-sweep/v1")
    );
    assert_eq!(doc.get("runs").and_then(Json::as_u64), Some(1));

    // A malformed battery file fails naming the file and the position.
    let bad = dir.join("bad.scn");
    std::fs::write(&bad, "scenario \"bad\"\nfleet tiny\nbogus = 3\n").expect("write scn");
    let out = gpures()
        .arg("sweep")
        .arg(&bad)
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("run bad sweep");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("bad.scn") && stderr.contains("3:1"),
        "expected file + line:col in the error, got:\n{stderr}"
    );

    // Unknown flags print the generated per-subcommand usage.
    let out = gpures()
        .args(["sweep", "tiny", "--nope", "x", "--out"])
        .arg(&dir)
        .output()
        .expect("run unknown flag");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown option") && stderr.contains("gpures sweep BATTERY..."),
        "expected the sweep usage block, got:\n{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = gpures().output().expect("run bare");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    let out = gpures().arg("frobnicate").output().expect("run unknown");
    assert!(!out.status.success());

    let out = gpures()
        .args(["analyze", "--logs", "/nonexistent-dir-xyz"])
        .output()
        .expect("run bad analyze");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}
