import csv
import hashlib
import json
from pathlib import Path

import pytest

from liftzeta.cli import SUITES, _row, build_parser, main
from liftzeta.exactnum import CycRat, ZetaValue

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "bench" / "golden.json").read_text())

# sha256 of the report file, seed blanked, for the standard runs besides
# `verify --q 3` (pinned per suite in bench/golden.json): their printed
# values go through sqrt(q) at orders 8, 12 and 20, other measures and
# negative conductors
PINNED = {
    "q2": (
        ("verify", "--q", "2"),
        "c0a0ea1ea4b5fdb0fd3c8c3f1b1d9384693483c99d1c5fc0415dca2654d05c1a"),
    "q5-epsilon": (
        ("verify", "--q", "5", "--suite", "zeta1d-epsilon", "--rmax", "2",
         "--d", "1"),
        "82241571e6a952f7f457f2c91d6dbfc73ee8620f221dcfc548e7113b4759c682"),
    "q5-epsilon-mu": (
        ("verify", "--q", "5", "--suite", "zeta1d-epsilon", "--rmax", "2",
         "--d", "0", "--mu", "5/4"),
        "72ab59b21b7ef94389c39fe596ee1af1615fd14a65a9089dbd56c59c552fe1ae"),
    "q5-rho2": (
        ("verify", "--q", "5", "--suite", "rho2"),
        "289f264538ccad4cb6bb91a5f49d1a8a6e99c313cfa91a3824ee686c539533bd"),
    "q3-epsilon-rmax3": (
        ("verify", "--q", "3", "--suite", "zeta1d-epsilon", "--rmax", "3",
         "--d", "-1"),
        "a631ea545331f287b99be2acccb1c127c13b846cec8f7d598acf0a37e30d5eeb"),
    "table-q5": (
        ("epsilon-table", "--q", "5", "--rmax", "2", "--d", "1"),
        "c1935cfe402f58fb8b1a2584aeb4e04849bdc42cb2bac1e7c848488551e91204"),
    "table-q3": (
        ("epsilon-table", "--q", "3", "--rmax", "3", "--d", "-1"),
        "27d91a43b169dbebd5a8d252d2cd03dc49ac47fc5a025ffef9b2b731d0959af1"),
    "table-q2": (
        ("epsilon-table", "--q", "2", "--rmax", "3", "--d", "0"),
        "56e08848130c80e60c5d5f69740c905590dbc6d33bf1e3a4e092f06b7bd07830"),
}


def run(argv):
    return main(argv)


class TestArgs:
    def test_defaults(self):
        cfg = build_parser().parse_args(["verify"])
        assert cfg.q == 3 and cfg.suite == "all"
        assert cfg.format == "json" and cfg.out_dir == "reports"

    def test_composite_q_rejected(self, capsys):
        assert run(["verify", "--q", "4"]) == 2
        assert "q must be prime" in capsys.readouterr().err

    def test_range_validation(self, capsys):
        assert run(["verify", "--q", "3", "--level", "9"]) == 2
        assert run(["verify", "--q", "3", "--rmax", "7"]) == 2
        assert "out of supported range" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "epsilon-table"])
    @pytest.mark.parametrize("mu,message", [
        ("0", "must be positive"),
        ("-1", "must be positive"),
        ("1/0", "not a rational number"),
    ])
    def test_bad_measure_rejected(self, command, mu, message, tmp_path,
                                  capsys):
        with pytest.raises(SystemExit) as exc:
            run([command, "--q", "2", "--mu", mu,
                 "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--mu" in err and message in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["verify", "epsilon-table"])
    def test_no_prime_override(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run([command, "--q", "3", "--p", "2", "--rmax", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --p 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "--q", "23", "--rmax", "3", "--suite", "zeta1d-epsilon"],
        ["epsilon-table", "--q", "10007"],
    ])
    def test_enumeration_bound(self, argv, tmp_path, capsys):
        assert run(argv + ["--out-dir", str(tmp_path)]) == 2
        assert "enumeration bound" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["verify", "epsilon-table"])
    @pytest.mark.parametrize("tol,message", [
        ("nan", "must be positive and finite"),
        ("inf", "must be positive and finite"),
        ("0", "must be positive and finite"),
        ("-1", "must be positive and finite"),
        ("x", "not a number"),
    ])
    def test_bad_tolerance_rejected(self, command, tol, message, tmp_path,
                                    capsys):
        with pytest.raises(SystemExit) as exc:
            run([command, "--q", "2", "--tol", tol,
                 "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--tol" in err and message in err
        assert not list(tmp_path.iterdir())


class TestRow:
    def test_verdict_is_exact_equality(self):
        # the same value built in two cyclotomic orders prints two ways
        z3 = CycRat.root_of_unity(3)
        expected = ZetaValue.constant(3, z3)
        got = ZetaValue.constant(3, z3.embed(6))
        row = _row("s", "c", {}, expected, got)
        assert row["expected"] == str(expected)
        assert row["got"] == str(got)
        assert row["expected"] != row["got"]
        assert row["pass"] is True
        assert _row("s", "c", {}, expected, got + 1)["pass"] is False


class TestVerify:
    @pytest.mark.parametrize("suite", SUITES)
    def test_each_suite_passes(self, suite, tmp_path, capsys):
        code = run(["verify", "--q", "3", "--suite", suite,
                    "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 failed" in out
        text = (tmp_path / "report.json").read_text()
        text = text.replace('"seed": 20260823', '"seed": "SEED"')
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[suite]

    @pytest.mark.parametrize("name", list(PINNED))
    def test_pinned_report(self, name, tmp_path):
        args, digest = PINNED[name]
        assert run([*args, "--out-dir", str(tmp_path)]) == 0
        report = "report.json" if args[0] == "verify" else "epsilon-table.json"
        # blanked as in test_each_suite_passes
        text = (tmp_path / report).read_text()
        text = text.replace('"seed": 20260823', '"seed": "SEED"')
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_report_schema(self, tmp_path):
        run(["verify", "--q", "2", "--suite", "measure",
             "--out-dir", str(tmp_path)])
        rows = json.loads((tmp_path / "report.json").read_text())
        assert rows
        for r in rows:
            assert set(r) == {"suite", "case_id", "inputs", "expected",
                              "got", "pass"}
            assert r["pass"] is True
            assert r["inputs"]["q"] == 2

    def test_reports_are_byte_stable(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        args = ["verify", "--q", "3", "--suite", "lift2d-invariance",
                "--seed", "7"]
        run(args + ["--out-dir", str(a)])
        run(args + ["--out-dir", str(b)])
        assert (a / "report.json").read_bytes() == \
            (b / "report.json").read_bytes()

    def test_csv_format(self, tmp_path):
        run(["verify", "--q", "3", "--suite", "measure", "--format",
             "csv", "--out-dir", str(tmp_path)])
        with open(tmp_path / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["pass"] == "True" for r in rows)
        assert json.loads(rows[0]["inputs"])["q"] == 3

    def test_q_five(self, tmp_path):
        assert run(["verify", "--q", "5", "--suite", "zeta1d-epsilon",
                    "--out-dir", str(tmp_path)]) == 0


class TestEpsilonTable:
    def test_counts_characters(self, tmp_path, capsys):
        code = run(["epsilon-table", "--q", "3", "--d", "1", "--rmax",
                    "2", "--out-dir", str(tmp_path)])
        assert code == 0
        rows = json.loads((tmp_path / "epsilon-table.json").read_text())
        # (q-1) tame classes times q^(rmax-1) wild classes
        assert len(rows) == (3 - 1) * 3
        for r in rows:
            assert "*T^" in r["got"]

    def test_csv_output(self, tmp_path):
        run(["epsilon-table", "--q", "5", "--d", "0", "--format", "csv",
             "--out-dir", str(tmp_path)])
        with open(tmp_path / "epsilon-table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
