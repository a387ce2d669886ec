#!/usr/bin/env python3
"""The gpures benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gpures checkout. It builds the release `gpures`
binary and the `perfbench` helper (into $CARGO_TARGET_DIR, default
`.bench_build`), generates the workload's inputs from the seed with the
campaign generator, and then:

  --trace 0  runs the workload's `gpures` command as a closed loop (one at
             a time, the next after the previous exits) for S seconds and
             reports the end-to-end metrics, timed from outside and scaled
             to the reference host's speed by a probe run beside them
             (`perfbench calib`, see `Probe` and `measure`);
  --trace 1  runs the workload's pipeline in process with a span around
             every layer call (`perfbench trace`), alternating with the
             untraced command at one worker, and reports per-layer metrics.

Every output is checked (see `check`); a run that exits non-zero or fails
a check counts in `failed`. The last stdout line is the result object;
the line before it is the run manifest. A human-readable table goes to
stderr. `--smoke` shrinks every workload for the benchmark's own tests,
and `--wrong-reference` corrupts the reference digest, which must make
every checked run fail. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOADS = {
    "dense-campaign": "analyze --logs --jobs --downtime --records over a 6-node, 120-day campaign (97 % XID lines)",
    "fleet-noisy": "analyze --logs --jobs --downtime over a 206-node fleet, 40 noisy text nodes, 618 000 jobs",
    "store-replay": "analyze --from-records --jobs --downtime over an 855-day record store",
    "watch-drain": "watch --follow off over the dense-campaign logs",
}

# name -> unit. The same names, units and order as BENCHMARK.json.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "mb_per_s": "MB/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "source.read_s": "s",
    "source.bytes": "bytes",
    "source.chunks": "count",
    "logscan.extract_s": "s",
    "logscan.header_s": "s",
    "logscan.lines": "count",
    "logscan.xid_lines": "count",
    "logscan.prefilter_hit_pct": "%",
    "logscan.ns_per_line": "ns/line",
    "logscan.ns_per_xid_line": "ns/line",
    "shard.summarize_s": "s",
    "shard.merge_coalesce_s": "s",
    "shard.records_in": "count",
    "shard.episodes_out": "count",
    "shard.episodes_per_record": "ratio",
    "store.write_s": "s",
    "store.bytes_written": "bytes",
    "store.open_s": "s",
    "store.decode_s": "s",
    "store.records_read": "count",
    "store.blocks": "count",
    "slurm.jobs_parse_s": "s",
    "slurm.jobs": "count",
    "slurm.jobs_bytes": "bytes",
    "files.downtime_parse_s": "s",
    "engine.fold_s": "s",
    "job_impact.join_s": "s",
    "report.render_s": "s",
    "report.bytes": "bytes",
    "tail.read_s": "s",
    "watch.ingest_s": "s",
    "watch.release_s": "s",
    "watch.snapshot_us": "us",
    "watch.episodes": "count",
    "watch.alerts": "count",
    "watch.late_dropped": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_pct": "%",
}

# Set-up runs (the command on the emptied inputs) before the timed loop,
# and after each timed run.
SETUP_RUNS = 20
SETUP_RUNS_PER_RUN = 4

# After each timed run the host-speed probe runs for this share of the
# run's time. PROBE_REF_S is the probe's median time on the reference host
# (2-vCPU Intel Xeon VM, 2.0 GHz), on one thread and on two alike. The
# probe runs on one thread per core the command keeps busy: dense-campaign
# extracts on every worker; the others spend about one CPU second per
# wall second (`cpu_s` / `wall_s`).
PROBE_SHARE = 0.3
PROBE_REF_S = 0.4
PROBE_THREADS = {"fleet-noisy": 1, "store-replay": 1, "watch-drain": 1}


def log(msg=""):
    print(msg, file=sys.stderr, flush=True)


def sha256_file(path, h=None):
    h = h or hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h


class Run:
    """One finished process: exit status, rusage, wall time, output paths.

    On Linux a spawned child's ru_maxrss starts from the harness's own
    high-water resident size, so the harness streams every file it reads
    and stays near 15 MB, well under any workload's peak.
    """

    def __init__(self, argv, out, err):
        t0 = time.perf_counter()
        with open(out, "wb") as fo, open(err, "wb") as fe:
            pid = os.posix_spawn(
                argv[0],
                argv,
                os.environ,
                file_actions=[
                    (os.POSIX_SPAWN_DUP2, fo.fileno(), 1),
                    (os.POSIX_SPAWN_DUP2, fe.fileno(), 2),
                ],
            )
            _, status, ru = os.wait4(pid, 0)
        self.wall_s = time.perf_counter() - t0
        self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.peak_rss_mb = ru.ru_maxrss / 1024.0  # ru_maxrss is in KiB
        self.out, self.err = Path(out), Path(err)

    def stdout_digest(self):
        return sha256_file(self.out).hexdigest()

    def stderr(self):
        return self.err.read_text(errors="replace")


def build(target):
    """Build the release gpures binary and the perfbench helper."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "gpu-resilience", "--bin", "gpures"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(BENCH / "Cargo.toml")],
    ):
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True)
    return target / "release" / "gpures", target / "release" / "perfbench"


class Workload:
    """A workload's generated inputs and the commands run over them."""

    def __init__(self, name, work, gen, gpures, workers):
        self.name, self.work, self.gen = name, work, gen
        self.gpures, self.workers = str(gpures), workers
        self.window = ["--nodes", str(int(gen["nodes"])), "--hours", str(int(gen["hours"]))]

    def inputs(self, empty=False):
        """The files the command reads, by role."""
        base = self.work / "empty" if empty else self.work
        roles = {
            "dense-campaign": ["logs", "jobs.csv", "downtime.csv"],
            "fleet-noisy": ["logs", "jobs.csv", "downtime.csv"],
            "store-replay": ["store.grcs", "jobs.csv", "downtime.csv"],
            "watch-drain": ["logs"],
        }[self.name]
        return {r: base / r for r in roles}

    def command(self, empty=False, workers=None, extra=()):
        """The workload's gpures command; `empty` points it at the emptied inputs."""
        i = self.inputs(empty)
        w = ["--workers", str(workers or self.workers)]
        if self.name == "watch-drain":
            return [self.gpures, "watch", "--logs", str(i["logs"]), *self.window, "--follow", "off", *extra]
        tables = ["--jobs", str(i["jobs.csv"]), "--downtime", str(i["downtime.csv"]), *self.window, *w]
        if self.name == "store-replay":
            return [self.gpures, "analyze", "--from-records", str(i["store.grcs"]), *tables, *extra]
        tee = ["--records", str(self.work / ("empty-tee.grcs" if empty else "tee.grcs"))]
        if self.name == "fleet-noisy":
            tee = []
        return [self.gpures, "analyze", "--logs", str(i["logs"]), *tables, *tee, *extra]

    def input_bytes(self):
        total = 0
        for p in self.inputs().values():
            files = sorted(p.glob("*.log")) if p.is_dir() else [p]
            total += sum(f.stat().st_size for f in files)
        return total

    def fingerprint(self):
        """Bytes, lines, XID lines, jobs, records and a content hash of the inputs."""
        h = hashlib.sha256()
        size = lines = xid_lines = 0
        for role, p in sorted(self.inputs().items()):
            for f in sorted(p.glob("*.log")) if p.is_dir() else [p]:
                h.update(f"{role}/{f.name}\0{f.stat().st_size}\0".encode())
                size += f.stat().st_size
                if f.suffix != ".log":
                    sha256_file(f, h)
                    continue
                with open(f, "rb") as fh:
                    for line in fh:
                        h.update(line)
                        lines += 1
                        xid_lines += b"NVRM: Xid" in line
        return {
            "bytes": size,
            "lines": lines,
            "xid_lines": xid_lines,
            "jobs": int(self.gen["jobs"]),
            "records": int(self.gen["records"]),
            "sha256": h.hexdigest(),
        }


class Ledger:
    """Counts runs attempted and failed; a failure is reported, never raised."""

    def __init__(self, reference, wl):
        self.reference, self.wl = reference, wl
        self.attempted = self.failed = 0

    def check(self, run, digest=True):
        """Exit status, the reference digest, and the funnel line counts."""
        self.attempted += 1
        problems = []
        if run.code != 0:
            problems.append(f"exit {run.code}")
        elif digest:
            if run.stdout_digest() != self.reference:
                problems.append("stdout differs from the reference report")
            problems += self.line_counts(run.stderr())
        if problems:
            self.failed += 1
            log(f"  FAILED {run.out.name}: {'; '.join(problems)}")
        return not problems

    def line_counts(self, err):
        want = int(self.wl.gen["lines"])
        if self.wl.name in ("dense-campaign", "fleet-noisy"):
            m = re.search(r"^extraction: (\d+) lines", err, re.M)
            if not m or int(m.group(1)) != want:
                return [f"extraction line count {m and m.group(1)} != {want} lines generated"]
        if self.wl.name == "watch-drain":
            m = re.search(r"^watched \d+ polls: (\d+) lines, .* (\d+) late-dropped", err, re.M)
            if not m or int(m.group(1)) != want or int(m.group(2)) != 0:
                return [f"watch line/late counts {m and m.groups()} != ({want}, 0)"]
        return []


def reference_digest(wl, work):
    """The report the workload's command must print, from a second route.

    dense-campaign: replay of the store the first (warm-up) run teed;
    fleet-noisy: the same, with a one-off tee; store-replay: the batch
    coalescer over the same records (`perfbench gen` wrote it);
    watch-drain: `gpures analyze` over the same logs. Returns the digest
    and the warm-up run, if one was made.
    """
    if wl.name == "store-replay":
        return sha256_file(work / "expected.txt").hexdigest(), None
    if wl.name == "watch-drain":
        ref = Run([wl.gpures, "analyze", "--logs", str(wl.inputs()["logs"]), *wl.window,
                   "--workers", str(wl.workers)], work / "ref.out", work / "ref.err")
        return (ref.stdout_digest() if ref.code == 0 else None), None
    store = work / "tee.grcs"
    extra = ("--records", str(store)) if wl.name == "fleet-noisy" else ()
    warm = Run(wl.command(extra=extra), work / "warm.out", work / "warm.err")
    i = wl.inputs()
    replay = Run([wl.gpures, "analyze", "--from-records", str(store), "--jobs", str(i["jobs.csv"]),
                  "--downtime", str(i["downtime.csv"]), *wl.window],
                 work / "ref.out", work / "ref.err")
    ok = warm.code == 0 and replay.code == 0
    return (replay.stdout_digest() if ok else None), warm


def median(xs):
    return statistics.median(xs) if xs else 0.0


class Probe:
    """The host-speed probe, `perfbench calib` (perfbench/src/calib.rs).

    The probe is a fixed amount of work that uses none of the program's
    code, timed from outside like the command. It runs on as many threads
    as the command keeps busy. Every probe must print the same checksum.
    """

    def __init__(self, perfbench, threads, work):
        self.threads = threads
        self.argv = [str(perfbench), "calib", "--threads", str(threads), "--rounds", "1"]
        self.out, self.err = work / "probe.out", work / "probe.err"
        self.times = []
        self.checksum = None

    def run(self, ledger, covering=0.0):
        """Probe once, and again until the probes cover `covering` seconds;
        returns the median probe time of this call."""
        times = []
        while not times or sum(times) < covering:
            r = Run(self.argv, self.out, self.err)
            ledger.attempted += 1
            checksum = r.out.read_text().strip()
            self.checksum = self.checksum or checksum
            if r.code != 0 or checksum != self.checksum:
                ledger.failed += 1
                log(f"  FAILED probe: exit {r.code}, checksum {checksum!r} != {self.checksum!r}")
                break
            times.append(r.wall_s)
        self.times += times
        return median(times) if times else PROBE_REF_S


def measure(wl, ledger, seconds, warm, probe):
    """End-to-end metrics: set-up runs, then the timed closed loop.

    The reference run and the first set-up runs have loaded the binary
    and the inputs are in the page cache, so no further warm-up is made.
    The host-speed probe runs before the loop and after every timed run,
    for PROBE_SHARE of the run's time. Each timed run's times are scaled
    to the reference host's speed by PROBE_REF_S over the mean of the
    probe medians just before and just after it; the metric is the median
    of the scaled runs. Set-up runs are spread over the invocation, and
    each is scaled by the probe just before it. Returns the metrics and
    the raw medians.
    """
    work = wl.work
    if warm is not None:
        ledger.check(warm)

    setup, setup_speeds = [], []

    def setup_runs(n, probed):
        for _ in range(n):
            r = Run(wl.command(empty=True), work / "setup.out", work / "setup.err")
            ledger.check(r, digest=False)
            setup.append(r.wall_s)
            setup_speeds.append(PROBE_REF_S / probed)

    size = wl.input_bytes()
    runs, speeds = [], []
    before = probe.run(ledger)
    setup_runs(SETUP_RUNS, before)
    start = time.perf_counter()
    while not runs or time.perf_counter() - start + (1 + PROBE_SHARE) * median(
            [r.wall_s for r in runs]) <= seconds:
        r = Run(wl.command(), work / "run.out", work / "run.err")
        ledger.check(r)
        after = probe.run(ledger, PROBE_SHARE * r.wall_s)
        runs.append(r)
        speeds.append(2 * PROBE_REF_S / (before + after))
        setup_runs(SETUP_RUNS_PER_RUN, after)
        before = after

    raw = {
        "wall_s": median([r.wall_s for r in runs]),
        "cpu_s": median([r.cpu_s for r in runs]),
        "mb_per_s": size / 1e6 / median([r.wall_s for r in runs]),
        "peak_rss_mb": median([r.peak_rss_mb for r in runs]),
        "setup_s": median(setup),
    }
    metrics = {
        "wall_s": median([r.wall_s * k for r, k in zip(runs, speeds)]),
        "cpu_s": median([r.cpu_s * k for r, k in zip(runs, speeds)]),
        "mb_per_s": median([size / 1e6 / (r.wall_s * k) for r, k in zip(runs, speeds)]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": median([t * k for t, k in zip(setup, setup_speeds)]),
    }
    log(f"\n{wl.name}: {len(runs)} timed runs (closed loop, --workers {wl.workers}), "
        f"{len(setup)} set-up runs on the emptied inputs, {size} input bytes")
    log(f"  host speed {median(speeds):.4f} of the reference (median over the runs): "
        f"{len(probe.times)} probes on {probe.threads} thread(s), median "
        f"{median(probe.times):.4f} s, reference {PROBE_REF_S} s")
    log(f"  {'metric':<14}{'reported':>14}  {'unit':<6}{'raw median':>14}")
    for name, unit in END_TO_END.items():
        log(f"  {name:<14}{metrics[name]:>14.6g}  {unit:<6}{raw[name]:>14.6g}")
    return metrics, raw, median(speeds)


def metrics_cross_check(wl, ledger):
    """Stage totals from the program's own `--metrics` export, same inputs, one worker."""
    path = wl.work / "metrics.json"
    r = Run(wl.command(workers=1, extra=("--metrics", str(path))), wl.work / "m.out", wl.work / "m.err")
    if not ledger.check(r):
        return
    doc = json.loads(path.read_text())
    log(f"\n  cross-check: stage totals from `gpures {wl.command()[1]} --metrics` "
        f"({doc.get('schema')}), one worker, wall {r.wall_s:.4f} s")
    for stage in doc.get("stages", []):
        spans = ", ".join(f"{s['name']} {s['total_s']:.4f}" for s in stage.get("spans", []))
        log(f"    {stage['stage']:<12}{stage.get('wall_s', 0.0):>10.4f} s   {spans}")


def trace(wl, ledger, seconds, perfbench, warm):
    """Per-layer metrics: traced runs alternating with untraced one-worker runs."""
    work = wl.work
    if warm is not None:
        ledger.check(warm)
    traced, untraced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + median(
            [t["trace.wall_s"] + u for t, u in zip(traced, untraced)]) <= seconds:
        report = work / "trace-report.txt"
        p = subprocess.run([str(perfbench), "trace", "--workload", wl.name, "--dir", str(work),
                            "--report", str(report)], capture_output=True, text=True)
        ledger.attempted += 1
        if p.returncode != 0 or sha256_file(report).hexdigest() != ledger.reference:
            ledger.failed += 1
            log(f"  FAILED traced run: exit {p.returncode}, {p.stderr.strip()[-300:]}")
            break
        traced.append(json.loads(p.stdout))
        r = Run(wl.command(workers=1), work / "u.out", work / "u.err")
        ledger.check(r)
        untraced.append(r.wall_s)

    layers = {k: median([t[k] for t in traced]) for k in traced[0]} if traced else {}
    base = median(untraced)
    layers["trace.overhead_pct"] = 100.0 * (layers.get("trace.wall_s", 0.0) - base) / base if base else 0.0
    log(f"\n{wl.name}: {len(traced)} traced runs, one worker; traced wall "
        f"{layers.get('trace.wall_s', 0.0):.4f} s vs untraced {base:.4f} s (median of {len(untraced)})")
    log(f"  {'layer metric':<28}{'median':>16}  unit")
    for name, unit in PER_LAYER.items():
        log(f"  {name:<28}{layers.get(name, 0.0):>16.6g}  {unit}")
    metrics_cross_check(wl, ledger)
    spans = work / "trace-report.spans.json"
    if spans.exists():
        keep = work.parent / "last-trace"
        keep.mkdir(exist_ok=True)
        shutil.copy(spans, keep / f"{wl.name}.spans.json")
        log(f"  spans of the last traced run: {keep / (wl.name + '.spans.json')}")
    return {name: layers.get(name, 0.0) for name in PER_LAYER}


def source_identity():
    """git rev when the checkout is a repository, and a hash of the sources either way."""
    rev = None
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        rev = p.stdout.strip() or None
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for d in ("src", "crates", "vendor", "perfbench"):
        files += sorted(f for f in (ROOT / d).rglob("*") if f.is_file() and "__pycache__" not in f.parts)
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode() + b"\0")
            sha256_file(f, h)
    return rev, h.hexdigest()


def cpu_model():
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return None
    m = re.search(r"^model name\s*:\s*(.+)$", text, re.M)
    return m.group(1).strip() if m else None


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small inputs, for the benchmark's tests")
    ap.add_argument("--wrong-reference", action="store_true",
                    help="corrupt the reference digest; every checked run must then fail")
    args = ap.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "src" / "bin" / "gpures.rs").is_file():
        log(f"perfbench: {ROOT} is not a gpures checkout (no Cargo.toml / src/bin/gpures.rs)")
        return 2

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else ROOT / target
    gpures, perfbench = build(target)

    workers = len(os.sched_getaffinity(0))
    work = target / "perfbench" / f"{args.workload}-{args.seed}{'-smoke' if args.smoke else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        gen_cmd = [str(perfbench), "gen", "--workload", args.workload, "--seed", str(args.seed),
                   "--out", str(work)] + (["--smoke"] if args.smoke else [])
        gen = json.loads(subprocess.run(gen_cmd, check=True, capture_output=True, text=True).stdout)
        log(f"generated {args.workload} seed {args.seed} in {time.perf_counter() - t0:.2f} s")
        wl = Workload(args.workload, work, gen, gpures, workers)

        rev, source_hash = source_identity()
        manifest = {
            "host": {"cpus": os.cpu_count(), "affinity_cpus": workers, "cpu_model": cpu_model()},
            "git_rev": rev,
            "source_sha256": source_hash,
            "workload": args.workload,
            "command": WORKLOADS[args.workload],
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "workers": 1 if args.trace else workers,
            "corpus": wl.fingerprint(),
        }

        reference, warm = reference_digest(wl, work)
        # Write the generated inputs back now, so that the kernel's
        # writeback does not compete with the timed runs.
        os.sync()
        if args.wrong_reference and reference:
            reference = hashlib.sha256(reference.encode()).hexdigest()
        ledger = Ledger(reference, wl)
        if reference is None:
            ledger.attempted, ledger.failed = 1, 1
            log("  FAILED: the reference run did not succeed")

        if args.trace:
            metrics = trace(wl, ledger, args.seconds, perfbench, warm)
            units = PER_LAYER
        else:
            probe = Probe(perfbench, PROBE_THREADS.get(wl.name, workers), work)
            metrics, raw, speed = measure(wl, ledger, args.seconds, warm, probe)
            manifest["host"]["speed"] = speed
            manifest["raw_medians"] = raw
            units = END_TO_END
        failed_frac = ledger.failed / max(ledger.attempted, 1)
        log(f"  failed_frac {failed_frac:.6g} ({ledger.failed} of {ledger.attempted} runs)")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"manifest": manifest}))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
