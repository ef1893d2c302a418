#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds `repro` and the in-process
runners in `perfbench/harness` from source (release profile, into
`$CARGO_TARGET_DIR`, default `.bench_build`), runs one workload for about
S seconds, checks the program's outputs, and prints the metrics named in
`BENCHMARK.json`: the end-to-end ones with `--trace 0`, the per-layer ones
with `--trace 1`. The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--workload all` runs every
workload in turn. See `perfbench/README.md` for what each workload and
metric means.
"""

import argparse
import datetime
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_SEED = 0x1C0FFEE  # 29425646, `repro`'s default seed
WORKLOADS = ("snapshot-big4", "stream-churn", "rs-converge")
# the paper tables of `repro all`: from Table 1 up to the telemetry report;
# the pre-flight table before them counts workspace warnings, which change
# whenever a file is added
TABLES_START = b"== Table 1"
TABLES_END = b"=== run telemetry"


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


# -- statistics -------------------------------------------------------------


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """The q-th percentile (0-100), interpolating linearly between the
    closest ranks: numpy's default and `statistics.quantiles`'s
    'inclusive' method."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, as `statistics.quantiles(values, n=4)` gives the quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


# -- correctness ------------------------------------------------------------


def tables_of(stdout):
    """The paper tables in `repro all`'s stdout (bytes), or None."""
    start = stdout.find(TABLES_START)
    end = stdout.find(TABLES_END, start)
    if start < 0 or end < 0:
        return None
    return stdout[start:end]


def check_digest(stdout, seed, digests):
    """(ok, detail): the tables' SHA-256 against the committed digest for
    `seed`. Seeds without a committed digest pass with a note."""
    tables = tables_of(stdout)
    if tables is None:
        return False, "no paper tables in the output"
    got = hashlib.sha256(tables).hexdigest()
    want = digests.get(str(seed))
    if want is None:
        return True, f"no committed digest for seed {seed} (sha256 {got[:16]})"
    if got != want:
        return False, f"tables sha256 {got[:16]} != committed {want[:16]}"
    return True, f"tables sha256 {got[:16]} matches"


def table1_routes(stdout):
    """Sum of Table 1's Routes-v4 and Routes-v6 columns in `repro` output."""
    tables = tables_of(stdout) or b""
    lines = tables.decode("utf-8", "replace").splitlines()
    total = 0
    for line in lines[3:]:
        if not line.strip():
            break
        cells = line.split()
        total += int(cells[-2]) + int(cells[-1])
    return total


def conservation(chain):
    """None when every layer saw as many routes as the layer before it;
    otherwise a message naming the first layer that differs."""
    for (prev_layer, prev), (layer, count) in zip(chain, chain[1:]):
        if count != prev:
            return f"conservation broken at {layer}: {count} routes, {prev_layer} had {prev}"
    return None


# -- environment and build --------------------------------------------------


def nproc():
    return len(os.sched_getaffinity(0))


def capture(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(threads):
    return {
        "nproc": nproc(),
        "PAR_THREADS": threads,
        "rustc": capture(["rustc", "-V"]),
        "commit": capture(["git", "rev-parse", "HEAD"]),
        "profile": "release",
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def target_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Build `repro` and the harness; returns their paths."""
    for needed in ("Cargo.toml", "crates/bench", "perfbench/harness/Cargo.toml"):
        if not (ROOT / needed).exists():
            raise BenchError(f"{needed} not found: run from the root of a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "bench", "--bin", "repro"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         str(HERE / "harness" / "Cargo.toml")],
    ):
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=1500)
        except (OSError, subprocess.SubprocessError) as e:
            raise BenchError(f"build failed: {e}") from e
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return release / "repro", release / "perfbench-harness"


# -- running ----------------------------------------------------------------


def child_env(threads):
    return dict(os.environ, PAR_THREADS=str(threads))


def run_repro(repro, seed, workdir, threads):
    """One `repro all` child. Returns its wall time, time to Table 1, the
    latency of each later experiment, peak RSS, exit status, stdout and
    telemetry counters."""
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "telemetry.json").unlink(missing_ok=True)
    start = time.perf_counter()
    child = subprocess.Popen(
        [str(repro), "--seed", str(seed), "all"],
        cwd=workdir, env=child_env(threads), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    setup_s, last, last_key, op_ms, out = None, None, None, [], []
    for line in child.stdout:
        now = time.perf_counter() - start
        out.append(line)
        if not line.startswith(b"== "):
            continue
        # an experiment prints its tables when it is done; the tables of
        # one experiment share the title before the dash
        key = line.split(b" \xe2\x80\x94 ")[0]
        if setup_s is None:
            if line.startswith(TABLES_START):
                setup_s, last, last_key = now, now, key
            continue
        if key != last_key:
            op_ms.append((now - last) * 1e3)
            last, last_key = now, key
    _, status, usage = os.wait4(child.pid, 0)
    wall_s = time.perf_counter() - start
    try:
        telemetry = json.loads((workdir / "telemetry.json").read_text())["counters"]
    except (OSError, ValueError, KeyError):
        telemetry = {}
    return {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "op_ms": op_ms,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "status": os.waitstatus_to_exitcode(status),
        "stdout": b"".join(out),
        "telemetry": telemetry,
    }


def run_harness(harness, runner, args, threads):
    """One harness run. Returns its parsed report and exit status."""
    done = subprocess.run(
        [str(harness), runner, *args],
        cwd=ROOT, env=child_env(threads), stdout=subprocess.PIPE, timeout=600,
    )
    lines = done.stdout.decode("utf-8", "replace").strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        report = {"samples": {}, "checks": [], "attempted": 0, "failed": 0}
    if done.returncode != 0:
        report["checks"].append({"name": f"{runner} exited 0", "ok": False,
                                 "detail": f"exit status {done.returncode}"})
    return report


class Result:
    def __init__(self):
        self.checks = []
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.notes = {}

    def check(self, name, ok, detail=""):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def absorb(self, report):
        self.checks.extend(report["checks"])
        self.attempted += report["attempted"]
        self.failed += report["failed"]


def snapshot_checks(result, runs, conserve, seed, digests):
    """Outside checks of the `repro all` children: exit status, the paper
    tables' digest, and route conservation through every layer."""
    for i, run in enumerate(runs):
        result.check(f"snapshot-big4: repro all run {i + 1} exited 0", run["status"] == 0,
                     f"exit status {run['status']}")
        ok, detail = check_digest(run["stdout"], seed, digests)
        result.check(f"snapshot-big4: run {i + 1} paper tables digest", ok, detail)
    samples = conserve["samples"]
    chain = [
        ("route_server RIB", samples.get("conserve.rib_routes", [0])[0]),
        ("looking_glass routes served", samples.get("conserve.lg_routes_served", [0])[0]),
        ("collector snapshots", samples.get("conserve.snapshot_routes", [0])[0]),
        ("repro Table 1", table1_routes(runs[0]["stdout"])),
        ("analysis routes folded", samples.get("conserve.routes_folded", [0])[0]),
    ]
    broken = conservation(chain)
    result.check("snapshot-big4: route conservation", broken is None,
                 broken or f"{int(chain[0][1])} routes at every layer")


def failed_ops(telemetry):
    attempted = int(telemetry.get("lg.client.requests", 0))
    failed = int(telemetry.get("lg.client.retries", 0)) + int(
        telemetry.get("lg.client.snapshots_partial", 0))
    return attempted, failed


def snapshot_big4(bins, seed, seconds, trace, threads, digests):
    repro, harness = bins
    workdir = target_dir() / "perfbench" / "repro-run"
    result = Result()
    runs = []
    start = time.perf_counter()
    while not runs or (not trace and (len(runs) < 2 or time.perf_counter() - start < seconds)):
        runs.append(run_repro(repro, seed, workdir, threads))
    for run in runs:
        attempted, failed = failed_ops(run["telemetry"])
        result.attempted += attempted
        result.failed += failed
    args = ["--seed", str(seed), "--work", str(target_dir() / "perfbench")]
    layers = run_harness(harness, "snapshot-layers", args if trace else args + ["--conserve-only"],
                         threads)
    result.checks.extend(layers["checks"])
    snapshot_checks(result, runs, layers, seed, digests)
    if trace:
        result.metrics = per_layer(layers["samples"])
        if layers["samples"].get("traced_wall_s"):
            result.metrics["trace.overhead_s"] = (
                layers["samples"]["traced_wall_s"][0] - runs[0]["wall_s"])
    else:
        ok = all(r["setup_s"] is not None and r["op_ms"] for r in runs)
        result.check("snapshot-big4: every run printed its tables", ok)
        if ok:
            result.metrics = {
                "wall_s": median([r["wall_s"] for r in runs]),
                "setup_s": median([r["setup_s"] for r in runs]),
                "op_ms.p50": percentile([x for r in runs for x in r["op_ms"]], 50),
                "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
            }
            tail(result, [x for r in runs for x in r["op_ms"]])
        result.notes["repro_wall_s"] = (result.metrics.get("wall_s"), "s")
        result.notes["runs"] = (len(runs), "count")
    return result


def in_process(runner, bins, seed, seconds, trace, threads):
    """stream-churn and rs-converge: the harness does the work."""
    report = run_harness(bins[1], runner, ["--seed", str(seed), "--seconds", str(seconds),
                                           "--trace", "1" if trace else "0"], threads)
    result = Result()
    result.absorb(report)
    samples = report["samples"]
    if trace:
        result.metrics = per_layer(samples)
        if samples.get("traced_wall_s") and samples.get("untraced_wall_s"):
            result.metrics["trace.overhead_s"] = (
                median(samples["traced_wall_s"]) - median(samples["untraced_wall_s"]))
        return result
    needed = ("wall_s", "setup_s", "op_ms", "peak_rss_mb")
    if not all(samples.get(name) for name in needed):
        result.check(f"{runner}: produced every end-to-end sample", False,
                     f"have {sorted(samples)}")
        return result
    ops = samples["op_ms"]
    result.metrics = {
        "wall_s": median(samples["wall_s"]),
        "setup_s": median(samples["setup_s"]),
        "op_ms.p50": percentile(ops, 50),
        "peak_rss_mb": median(samples["peak_rss_mb"]),
    }
    tail(result, ops)
    if runner == "stream-churn":
        result.notes["day_latency_ms.p50"] = (result.metrics["op_ms.p50"], "ms")
        result.notes["day_latency_ms.p95"] = result.notes["op_ms.p95"]
        result.notes["churn_events_per_s"] = (
            sum(samples["churn_events"]) / sum(samples["wall_s"]), "1/s")
    else:
        result.notes["converge_s"] = (result.metrics["wall_s"], "s")
    return result


def tail(result, ops):
    """The 95th percentile of the operation latencies, printed with the
    sample count but not gated: on a shared machine it does not hold steady
    (see README.md)."""
    result.notes["op_ms.p95"] = (percentile(ops, 95), "ms")
    result.notes["op_samples"] = (len(ops), "count")


def per_layer(samples):
    """Each per-layer metric's median over the run's traced repetitions."""
    return {name: median(values) for name, values in samples.items()
            if not name.startswith(("conserve.", "table1.")) and not name.endswith("wall_s")
            and name not in ("setup_s", "op_ms", "peak_rss_mb", "churn_events")}


def run_workload(name, seed, seconds, trace, threads, bins, spec, digests):
    if name == "snapshot-big4":
        result = snapshot_big4(bins, seed, seconds, trace, threads, digests)
    else:
        result = in_process(name, bins, seed, seconds, trace, threads)
    names = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for metric in names:
        # a layer this workload never calls did no work: it reads 0
        value = result.metrics.get(metric["name"], 0.0 if trace else None)
        if value is None:
            result.check(f"{name}: measured {metric['name']}", False)
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    if result.attempted < 1:
        result.check(f"{name}: attempted at least one operation", False)
    correct = bool(result.checks) and all(c["ok"] for c in result.checks)
    return result, {
        "correct": correct,
        "attempted": max(result.attempted, 1),
        "failed": result.failed,
        "metrics": metrics,
    }


def report(name, env, result, line):
    print(f"== {name} ==")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for metric, body in line["metrics"].items():
        print(f"  {metric:40} {body['value']:.6g} {body['unit']}")
    for note, (value, unit) in result.notes.items():
        if value is not None:
            print(f"  {note:40} {value:.6g} {unit}")
    frac = line["failed"] / line["attempted"]
    print(f"  {'failed_ops_frac':40} {frac:.6g} ratio ({line['failed']} of {line['attempted']})")
    # repetitions repeat their checks: print each distinct outcome once
    seen = {}
    for c in result.checks:
        key = (c["name"], c["ok"], c["detail"])
        seen[key] = seen.get(key, 0) + 1
    for (name, ok, detail), times in seen.items():
        print(f"  [{'ok' if ok else 'FAIL'}] {name}" + (f" — {detail}" if detail else "") +
              (f" (x{times})" if times > 1 else ""))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = int(os.environ.get("PAR_THREADS", nproc()))
    if threads > nproc():
        print(f"warning: PAR_THREADS={threads} exceeds nproc={nproc()}", file=sys.stderr)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        digests = json.loads((HERE / "digests.json").read_text())
        bins = build()
    except (OSError, ValueError, BenchError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    env = environment(threads)
    lines = []
    for name in (WORKLOADS if args.workload == "all" else (args.workload,)):
        result, line = run_workload(name, args.seed, args.seconds, bool(args.trace), threads,
                                    bins, spec, digests)
        report(name, env, result, line)
        lines.append(line)
    for line in lines:
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
