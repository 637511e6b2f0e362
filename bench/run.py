"""liftzeta benchmark: time to exact verdicts on four workloads.

    python3 bench/run.py --workload verify-q3 --seed 1 --seconds 10 --trace 0

Runs passes of one workload, each in a fresh interpreter, one at a time,
until ``--seconds`` have gone by and at least ``MIN_PASSES`` ran, checks
every verdict, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of ``end_to_end``; with ``--trace 1``
untraced and traced passes alternate and the metrics are the per-layer
ones of ``tracing.py`` plus ``trace.overhead_s``.  README.md lists them.
Everything the benchmark writes goes to ``.bench_out/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

WORKLOADS = ("verify-q3", "double-star-q3", "epsilon-q5", "lift2d-measure")
# passes per run: verify-q3 has nine cases a pass, and its median and
# tail rest on the few suites near the middle of its time order; the
# median of double-star-q3's short cases moved 10% between runs at two
MIN_PASSES = {"verify-q3": 5, "double-star-q3": 3, "epsilon-q5": 2,
              "lift2d-measure": 2}
MIN_TRACED_PASSES = 2
MIN_SETUPS = 5
# p99 of lift2d-measure rests on about a dozen distinct heavy inputs and
# moved 22% between seeds; p95 moved 3%
TAIL_CAP = 95
# a run must end within 180 s; no child may outlast this from its start
RUN_LIMIT_S = 170


class ChildFailed(RuntimeError):
    pass


def percentile(values, pct):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_child(workload, seed, mode, deadline):
    out = OUT / ("child-%d.json" % os.getpid())
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", workload,
         "--seed", str(seed), "--mode", mode, "--out", str(out)],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()), text=True)
    if proc.returncode != 0 or not out.exists():
        raise ChildFailed("%s child failed (exit %d):\n%s"
                          % (mode, proc.returncode, proc.stderr[-4000:]))
    result = json.loads(out.read_text())
    out.unlink()
    return result


def environment():
    src = ROOT / "src" / "liftzeta"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_before": os.getloadavg(),
            "commit": commit, "src_sha256": digest.hexdigest()}


def measure(workload, seed, seconds, trace):
    """Run the passes; returns (passes, traced passes, set-up samples)."""
    min_passes = MIN_TRACED_PASSES if trace else MIN_PASSES[workload]
    start = time.monotonic()
    limit = start + RUN_LIMIT_S
    passes, traced = [], []
    while True:
        passes.append(run_child(workload, seed,
                                "plain" if trace else "pass", limit))
        if trace:
            traced.append(run_child(workload, seed, "trace", limit))
        if len(passes) >= min_passes and time.monotonic() >= start + seconds:
            break
    setups = passes[:]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(run_child(workload, seed, "setup", limit))
    return passes, traced, setups


def tail_pct(workload, passes):
    """The highest whole percentile with ten samples beyond it when only
    the guaranteed minimum of passes ran, capped at ``TAIL_CAP``."""
    n_min = MIN_PASSES[workload] * len(passes[0]["cases"])
    return max(50, min(TAIL_CAP, int(100 * (1 - 10 / n_min))))


def end_to_end(workload, passes, setups):
    """Medians of CPU times at the reference speed (see child.py): a pass
    scaled by its mean probe, a case by the probes nearest to it."""
    times = [c["cpu_s"] * c["speed"] for p in passes for c in p["cases"]]
    attempted = len(times)
    failed = sum(not c["ok"] for p in passes for c in p["cases"])
    return {
        "setup_s": (statistics.median(
            s["setup_cpu_s"] * s["burst_speed"] for s in setups), "s"),
        "pass_s": (statistics.median(
            p["cpu_s"] * p["speed"] for p in passes), "s"),
        "case_s_p50": (statistics.median(times), "s"),
        "case_s_tail": (percentile(times, tail_pct(workload, passes)), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB"),
        "passed_share": (1.0 - failed / attempted, "share"),
    }


def per_layer(passes, traced):
    first = traced[0]["layers"]
    repeat = all(
        t["layers"][k] == v for t in traced[1:]
        for k, v in first.items() if not k.endswith("_s"))
    metrics = {}
    for name, value in first.items():
        if name.endswith(".self_s"):
            value = statistics.median(t["layers"][name] for t in traced)
            metrics[name] = (value, "s")
        elif name.endswith(".calls"):
            metrics[name] = (value, "count")
        else:
            metrics[name] = (value, "ratio")
    metrics["trace.overhead_s"] = (
        statistics.median(t["cpu_s"] * t["burst_speed"] for t in traced)
        - statistics.median(p["cpu_s"] * p["burst_speed"] for p in passes),
        "s")
    return metrics, repeat


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "liftzeta" / "__init__.py").is_file():
        print("no liftzeta sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = environment()
    try:
        passes, traced, setups = measure(
            args.workload, args.seed, args.seconds, args.trace)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    env["loadavg_after"] = os.getloadavg()
    env["passes"] = len(passes)
    env["traced_passes"] = len(traced)

    all_cases = [c for p in passes + traced for c in p["cases"]]
    attempted = len(all_cases)
    failed = [c for c in all_cases if not c["ok"]]
    if args.trace:
        metrics, repeat = per_layer(passes, traced)
        env["calls_repeat_exactly"] = repeat
    else:
        metrics = end_to_end(args.workload, passes, setups)
        env["case_samples"] = sum(len(p["cases"]) for p in passes)
        env["setup_samples"] = len(setups)
        env["tail_pct"] = tail_pct(args.workload, passes)
        for key in ("cpu_s", "wall_s", "speed"):
            env["raw_pass_" + key] = statistics.median(p[key] for p in passes)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "passes": passes, "traced": [
                  {k: v for k, v in t.items() if k != "cases"}
                  for t in traced]}
    (OUT / ("%s.trace%d.json" % (args.workload, args.trace))).write_text(
        json.dumps(record, indent=1))

    print("env %s" % json.dumps(env, sort_keys=True))
    for c in failed[:20]:
        print("FAIL %s %s" % (c["id"], c["error"] or "wrong verdict"))
    for name, (value, unit) in metrics.items():
        print("%-52s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": not failed, "attempted": attempted, "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
