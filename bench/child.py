"""One pass of one workload in a fresh interpreter.

Started by ``run.py``; writes its result as JSON to ``--out``.  Modes:
``setup`` imports liftzeta and builds the inputs only; ``pass`` also runs
every case; ``trace`` runs every case with spans recorded around the calls
into each layer; ``plain`` runs every case with neither probes nor spans
among them, as the baseline that ``trace`` is compared with.

Times are CPU seconds of this process.  Set-up runs from interpreter start
until all nine modules are imported and the inputs are built.  The program
is single-threaded and does no I/O worth the name, so on an idle machine
its CPU time and wall time agree; CPU time leaves out the time the host
gives to other tenants.

The host's speed still drifts by 10-20% from minute to minute, and within
a pass (other tenants share its cores and caches).  So in ``pass`` mode a
speed probe, a fixed piece of pure-Python work, runs every
``PROBE_EVERY_S`` seconds from an interval timer, and its own CPU time is
subtracted from the case it interrupted.  The timer is a wall-clock one:
arming a CPU-time timer coarsens the process CPU clock to scheduler
ticks.  The pass reports ``speed = PROBE_REF_S / mean probe time``, and
each case the same ratio over the probes nearest to it; ``run.py``
multiplies CPU times by them, which gives CPU seconds at the reference
speed.  Set-up, one long import, is scaled instead by ``burst_speed``,
from ``BURST_S`` of probes run back to back right after it, and so are
traced passes, whose spans must not contain probes, and their ``plain``
baseline.
"""

import argparse
import bisect
import importlib
import json
import os
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

PROBE_EVERY_S = 0.06
# about one probe's CPU time on the machine the baseline was taken on
# (2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.7)
PROBE_REF_S = 0.0022
LOCAL_PROBES = 4
BURST_S = 0.3
# back to back, a probe runs faster than between the program's calls
BURST_REF_S = 0.0015


_PROBE_TABLE = list(range(256))


def _probe_work():
    # creates no container, so it never moves the garbage collector's
    # allocation counts and with them the collections inside a case
    x, acc, table = 1, 0, _PROBE_TABLE
    for i in range(6000):
        x = (x * 1103515245 + 12345) % 2147483648
        acc += table[x & 255] ^ (i & 7)
    return acc


class SpeedProbe:
    """Samples the machine's speed between and inside the timed calls."""

    def __init__(self):
        self.spent = 0.0  # CPU seconds inside probes
        self.count = 0
        self.log = []  # (CPU clock at start, CPU seconds) since start()
        self._busy = False

    def run(self, *_):
        if self._busy:  # the timer fired inside an explicit probe
            return
        self._busy = True
        t0 = time.process_time()
        try:
            _probe_work()
        finally:
            dt = time.process_time() - t0
            self.spent += dt
            self.count += 1
            self.log.append((t0, dt))
            self._busy = False

    def start(self):
        self.log = []
        signal.signal(signal.SIGALRM, self.run)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def speed(self, ref_s, since=(0.0, 0)):
        """``ref_s`` over the mean time of the probes run after
        ``since = (spent, count)``."""
        return ref_s * (self.count - since[1]) / (self.spent - since[0])

    def near(self, c0, c1, k=LOCAL_PROBES):
        """``PROBE_REF_S`` over the mean time of the probes that ran
        inside ``[c0, c1]`` on the CPU clock, or of the ``k`` nearest to
        it if fewer did: the host's speed changes within a pass, and a
        short case follows the speed around it."""
        times = [t for t, _ in self.log]
        lo, hi = bisect.bisect_left(times, c0), bisect.bisect_right(times, c1)
        while hi - lo < k and (lo > 0 or hi < len(times)):
            if hi == len(times) or (lo > 0
                                    and c0 - times[lo - 1] <= times[hi] - c1):
                lo -= 1
            else:
                hi += 1
        window = self.log[lo:hi]
        return PROBE_REF_S * len(window) / sum(dt for _, dt in window)


def import_liftzeta():
    """Import all nine modules from this checkout's ``src`` and no other
    copy of the package."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import liftzeta
    src = (ROOT / "src" / "liftzeta").resolve()
    if Path(liftzeta.__file__).resolve().parent != src:
        raise ImportError("liftzeta imported from %s, not %s"
                          % (liftzeta.__file__, src))
    for name in liftzeta.__all__:
        importlib.import_module("liftzeta." + name)


def run_cases(cases, probe=None, tracer=None):
    """Time each case in CPU seconds, less any probe that interrupted it.
    A case that raises or returns a wrong verdict is recorded as failed
    and the pass goes on."""
    rows = []
    cpu = time.process_time
    for i, case in enumerate(cases):
        error = None
        p0 = probe.spent if probe else 0.0
        c0 = cpu()
        try:
            if tracer is None:
                ok = case.run() is True
            else:
                with tracer.region("bench.case", i):
                    ok = case.run() is True
        except Exception as exc:  # a raising case is a failed case
            ok = False
            error = "%s: %s" % (type(exc).__name__, exc)
        c1 = cpu()
        p1 = probe.spent if probe else 0.0
        rows.append({"id": case.case_id, "cpu_s": (c1 - c0) - (p1 - p0),
                     "at": [c0, c1], "ok": ok, "error": error})
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "trace", "plain"),
                    required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    probe = SpeedProbe()
    try:
        result = measure(args, probe)
    finally:
        probe.stop()
    Path(args.out).write_text(json.dumps(result))
    return 0


def measure(args, probe):
    import_liftzeta()
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads  # after install, so its imported names are wrapped

    work_dir = ROOT / ".bench_out" / ("reports-%d" % os.getpid())
    if tracer is None:
        cases = workloads.build(args.workload, args.seed, work_dir)
    else:
        with tracer.region("bench.setup"):
            cases = workloads.build(args.workload, args.seed, work_dir)
    result = {"setup_cpu_s": time.process_time()}
    while probe.spent < BURST_S:
        probe.run()
    result["burst_speed"] = probe.speed(BURST_REF_S)

    if args.mode != "setup":
        since = (probe.spent, probe.count)
        if args.mode == "pass":
            probe.start()
        t0 = time.perf_counter()
        rows = run_cases(cases, probe, tracer)
        probe.stop()
        result.update(cases=rows, cpu_s=sum(r["cpu_s"] for r in rows),
                      wall_s=time.perf_counter() - t0
                      - (probe.spent - since[0]))
        if tracer is not None:
            result["layers"] = tracer.summary()
            tracer.save(ROOT / ".bench_out"
                        / ("%s.spans.npz" % args.workload))
    if args.mode == "pass":
        probe.run()  # at least one
        result["speed"] = probe.speed(PROBE_REF_S, since)
        for row in rows:
            row["speed"] = probe.near(*row["at"])
    shutil.rmtree(work_dir, ignore_errors=True)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return result


if __name__ == "__main__":
    sys.exit(main())
