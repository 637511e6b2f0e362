"""Tests of the benchmark's correctness gate and tracing.

    python3 -m pytest bench/test_bench.py
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from liftzeta.exactnum import ZetaValue  # noqa: E402
from tracing import SUITES  # noqa: E402


def passed_share(rows):
    rows = [dict(r, speed=1.0) for r in rows]
    one_pass = {"cases": rows, "cpu_s": 1.0, "speed": 1.0,
                "peak_rss_mb": 1.0}
    metrics = run.end_to_end("verify-q3", [one_pass],
                             [{"setup_cpu_s": 1.0, "burst_speed": 1.0}])
    return metrics["passed_share"][0]


def test_raising_case_is_counted_and_the_pass_goes_on():
    cases = [workloads.Case("boom", lambda: 1 // 0),
             workloads.Case("fine", lambda: True)]
    rows = child.run_cases(cases)
    assert [r["ok"] for r in rows] == [False, True]
    assert rows[0]["error"].startswith("ZeroDivisionError")
    assert passed_share(rows) == 0.5


def test_wrong_report_digest_fails_the_case(tmp_path):
    right = {c.case_id: c for c in workloads.verify_cases(1, tmp_path / "a")}
    wrong = {c.case_id: c for c in workloads.verify_cases(
        1, tmp_path / "b", golden={s: "0" * 64 for s in SUITES})}
    rows = child.run_cases([right["verify-archfe"],
                               wrong["verify-archfe"]])
    assert [r["ok"] for r in rows] == [True, False]
    assert rows[1]["error"] is None
    assert passed_share(rows) == 0.5


def test_wrong_epsilon_closed_form_fails_the_case():
    def doubled(om, psi, pi, mu):
        return (workloads.epsilon_closed_form(om, psi, pi, mu)
                * ZetaValue.constant(om.q, 2))

    right = workloads.epsilon_cases()[0]
    wrong = workloads.epsilon_cases(closed_form=doubled)[0]
    rows = child.run_cases([right, wrong])
    assert [r["ok"] for r in rows] == [True, False]
    assert passed_share(rows[:1]) == 1.0
    assert passed_share(rows) == 0.5


def test_every_case_passes_on_other_seeds():
    cases = workloads.lift2d_measure_cases(7)[::37]
    rows = child.run_cases(cases)
    assert all(r["ok"] for r in rows), [r for r in rows if not r["ok"]]


def test_tracer_rebinds_names_imported_elsewhere():
    # in a fresh interpreter: install() patches the package in place
    code = textwrap.dedent("""
        import sys
        sys.path[:0] = [%r, %r]
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        from liftzeta import cli, zeta1d, zeta2d
        from liftzeta.exactnum import CycRat
        assert zeta2d.epsilon_star is zeta1d.epsilon_star
        assert cli.SUITE_FUNCS["FE2"] is cli.suite_fe2
        assert CycRat.__radd__ is CycRat.__add__
        assert all(hasattr(f, "__wrapped__")
                   for f in cli.SUITE_FUNCS.values())
        import workloads
        cases = workloads.epsilon_cases()
        assert cases[0].run() is True
        out = tracer.summary()
        assert out["zeta1d.epsilon_star.calls"] == 1, out
        assert out["localfield.enumerate_characters.calls"] == 1, out
        assert out["zeta1d.rho0.calls"] == 0, out
        assert out["exactnum.calls"] > 0, out
        print("ok")
    """ % (str(BENCH.parent / "src"), str(BENCH)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_self_time_excludes_wrapped_children():
    from tracing import Tracer
    tracer = Tracer()
    name = "zeta1d.zeta"
    inner = tracer.wrap(lambda: sum(range(20000)), "exactnum.CycRat.add")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], name)
    outer()
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    out = tracer.summary()
    assert out["exactnum.CycRat.add.calls"] == 3
    assert out["zeta1d.zeta.calls"] == 1
    assert abs(out["zeta1d.zeta.self_s"] - (dur[0] - dur[1:].sum())) < 1e-9
    assert out["zeta1d.self_s"] == out["zeta1d.zeta.self_s"]


def test_case_speed_follows_the_probes_nearest_to_it():
    probe = child.SpeedProbe()
    ref = child.PROBE_REF_S
    # the host is twice as slow from CPU second 4 on
    probe.log = [(t, ref if t < 4 else 2 * ref) for t in range(8)]
    assert probe.near(1.2, 1.3) == pytest.approx(1.0)
    assert probe.near(6.2, 6.3) == pytest.approx(0.5)
    assert probe.near(3.5, 3.6) == pytest.approx(2 / 3)  # probes 2 to 5
