import contextlib
import csv
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import liftzeta
from liftzeta import archfe, cli, zeta1d, zeta2d
from liftzeta.cli import SUITE_FUNCS, SUITES, _row, build_parser, main
from liftzeta.exactnum import CycRat, ZetaValue
from liftzeta.localfield import AdditiveCharacter, KElement
from liftzeta.schwartz import SBFunction
from builders import clear_caches

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
    # q = 7 reaches characters of order 42 and sqrt 7 in Q(zeta_28)
    "q7": (
        ("verify", "--q", "7", "--rmax", "2"),
        "5f2732c3d5c6fe2e771ac5aae84a627e6cbb33553d41d646c0dc524411caf383"),
    "table-q7": (
        ("epsilon-table", "--q", "7", "--rmax", "2", "--d", "1"),
        "06951811f39ac4c7de4ee18d41453bbc1a12f27ae221c94174c068d3c21c3ce4"),
    # the largest epsilon test functions, of conductor 3, and their stars
    "q5-epsilon-rmax3": (
        ("verify", "--q", "5", "--suite", "zeta1d-epsilon", "--rmax", "3"),
        "9f3e97c9c81fab8722b285e3071f0e60a6c946e5b1a34cac121ae3dbb9eafd48"),
    # the scale target: all nine suites at q = 11
    "q11": (
        ("verify", "--q", "11"),
        "6cc701f7ed32222e586fa887b488662c984663f58f6c46699a992295d59dab5c"),
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

    def test_main_builds_one_parser(self, tmp_path, capsys):
        clear_caches()
        argv = ["verify", "--q", "2", "--suite", "archfe",
                "--out-dir", str(tmp_path)]
        assert run(argv) == run(argv) == 0
        assert build_parser.cache_info().misses == 1
        # a good run leaves the kept parser able to reject bad input
        capsys.readouterr()
        assert run(["verify", "--q", "4"]) == 2
        assert "q must be prime" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--p", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --p 2" in capsys.readouterr().err
        assert run(argv) == 0
        assert build_parser.cache_info().misses == 1
        clear_caches()
        assert not build_parser.cache_info().currsize

    @pytest.mark.parametrize("argv", [
        ["verify", "--q", "23", "--rmax", "3", "--suite", "zeta1d-epsilon"],
        ["epsilon-table", "--q", "10007"],
    ])
    def test_enumeration_bound(self, argv, tmp_path, capsys):
        assert run(argv + ["--out-dir", str(tmp_path)]) == 2
        assert "enumeration bound" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["verify"])
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

    @pytest.mark.parametrize("option", [
        ("--tol", "1e-6"), ("--level", "2"), ("--seed", "7")])
    def test_epsilon_table_takes_no_verify_options(self, option, tmp_path,
                                                   capsys):
        # the table reads no tolerance, basis level or seed
        with pytest.raises(SystemExit) as exc:
            run(["epsilon-table", "--q", "2", *option,
                 "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: %s %s" % option \
            in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["verify", "--q", "3", "--suite", "archfe"],
        ["epsilon-table", "--q", "2"],
    ])
    def test_unwritable_out_dir(self, argv, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run(argv + ["--out-dir", str(blocker / "x")]) == 2
        assert "cannot write report" in capsys.readouterr().err
        assert blocker.read_text() == ""


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

    def test_fe2_stars_each_basis_function_once(self, monkeypatch):
        basis, starred = [], []
        coset_basis, star = cli._coset_basis, SBFunction.star

        def kept_basis(*args):
            basis.extend(coset_basis(*args))
            return basis

        def counted_star(f, psi, pi):
            starred.append(f)
            return star(f, psi, pi)
        monkeypatch.setattr(cli, "_coset_basis", kept_basis)
        monkeypatch.setattr(SBFunction, "star", counted_star)
        cfg = build_parser().parse_args(["verify", "--q", "3"])
        assert all(case[3] for case in cli.suite_fe2(cfg))
        # epsilon_star stars test functions of its own
        of_basis = [f for f in starred if any(f is b for b in basis)]
        assert len(of_basis) == len({id(f) for f in of_basis}) == 4

    @pytest.mark.parametrize("q,zetas,tables,epsilons,duals,checks", [
        ("3", 24, 16, 2, 12, 64), ("11", 120, 80, 10, 60, 320)])
    def test_fe2_computes_each_zeta_factor_once(
            self, q, zetas, tables, epsilons, duals, checks, monkeypatch):
        # the suite integrates each basis function under each character
        # and each star under its inverse once, and takes one epsilon_star
        # per character; epsilon_star integrates its own test functions
        # and substitutes into two of them.  Each check multiplies sides
        # built once per (function, character)
        counts, in_epsilon, table_inputs = Counter(), [], []
        zeta, epsilon_star = zeta1d.zeta, zeta1d.epsilon_star
        verify_FE2, subst_dual = zeta2d.verify_FE2, ZetaValue.subst_dual

        def counted_zeta(g, omega):
            counts["zeta"] += 1
            if not in_epsilon:
                table_inputs.append((g, omega))
            return zeta(g, omega)

        def counted_epsilon(*args):
            counts["epsilon_star"] += 1
            in_epsilon.append(True)
            try:
                return epsilon_star(*args)
            finally:
                in_epsilon.pop()

        def counted_check(*args):
            counts["verify_FE2"] += 1
            return verify_FE2(*args)

        def counted_dual(value):
            counts["subst_dual"] += 1
            return subst_dual(value)
        for module, attr, fn in (
                (zeta1d, "zeta", counted_zeta),
                (zeta2d, "zeta_k", counted_zeta),
                (zeta1d, "epsilon_star", counted_epsilon),
                (zeta2d, "epsilon_star", counted_epsilon),
                (zeta2d, "verify_FE2", counted_check),
                (ZetaValue, "subst_dual", counted_dual)):
            monkeypatch.setattr(module, attr, fn)
        cfg = build_parser().parse_args(["verify", "--q", q])
        assert all(case[3] for case in cli.suite_fe2(cfg))
        assert counts == {"zeta": zetas, "epsilon_star": epsilons,
                          "subst_dual": duals, "verify_FE2": checks}
        # table_inputs keeps every input alive, so their ids are distinct
        assert len({tuple(map(id, args)) for args in table_inputs}) == \
            len(table_inputs) == tables

    @pytest.mark.parametrize("q,zetas,tables", [
        ("3", 52, 26), ("11", 2660, 266)])
    def test_identity_a_builds_one_key_table_per_function(
            self, q, zetas, tables, monkeypatch):
        # each basis function and its double star is integrated under
        # every character; zeta builds the key table of each normal form
        # on the first of those integrals, and the others read it
        counts, built, normal_forms = Counter(), [], {}
        zeta, key_table = zeta1d.zeta, zeta1d._key_table

        def counted_zeta(g, omega):
            counts["zeta"] += 1
            f = g.normalize()
            normal_forms[id(f)] = f
            return zeta(g, omega)

        def counted_table(g):
            built.append(g)
            return key_table(g)
        monkeypatch.setattr(zeta1d, "zeta", counted_zeta)
        monkeypatch.setattr(zeta1d, "_key_table", counted_table)
        cfg = build_parser().parse_args(
            ["verify", "--q", q, "--suite", "identity-A"])
        assert all(case[3] for case in cli.suite_identity_a(cfg))
        assert counts["zeta"] == zetas
        # built and normal_forms keep every function alive, so their ids
        # are distinct
        assert len(built) == len({id(g) for g in built}) == \
            len(normal_forms) == tables

    @pytest.mark.parametrize("suite,shell_maps,fouriers", [
        ("double-star", 117, 78), ("identity-A", 39, 26)])
    def test_a_double_star_runs_five_term_maps(
            self, suite, shell_maps, fouriers, tmp_path, monkeypatch):
        # 39 and 13 double stars, each W, fourier, one shell map for the
        # nabla of the first star and the W of the second, fourier and
        # nabla; as two stars they ran four shell maps each (156 and 52)
        counts = Counter()
        shell_map, fourier_terms = SBFunction._shell_map, \
            SBFunction._fourier_terms

        def counted_shell_map(*args):
            counts["_shell_map"] += 1
            return shell_map(*args)

        def counted_fourier_terms(*args):
            counts["fourier"] += 1
            return fourier_terms(*args)
        monkeypatch.setattr(SBFunction, "_shell_map", counted_shell_map)
        monkeypatch.setattr(SBFunction, "_fourier_terms",
                            counted_fourier_terms)
        assert main(["verify", "--q", "3", "--suite", suite,
                     "--out-dir", str(tmp_path)]) == 0
        assert counts == {"_shell_map": shell_maps, "fourier": fouriers}

    def test_archfe_integrand_evaluations(self, tmp_path, monkeypatch):
        # the finer halving levels sum only where the level-0 terms reach
        # 1e-20 of the largest, and the rule stops a level early on the
        # DE error estimate; the full-window rule evaluated 20,671
        calls = Counter()
        quad = archfe._complex_quad

        def counted_quad(fn, tol):
            def counted_fn(x):
                calls["integrand"] += 1
                return fn(x)
            return quad(counted_fn, tol)
        monkeypatch.setattr(archfe, "_complex_quad", counted_quad)
        assert main(["verify", "--q", "3", "--suite", "archfe",
                     "--out-dir", str(tmp_path)]) == 0
        assert calls["integrand"] == 7752

    def test_fe2_passes_at_a_measure_other_than_one(self):
        cfg = build_parser().parse_args(["verify", "--q", "3", "--mu", "5/4"])
        cases = cli.suite_fe2(cfg)
        assert cases and all(case[3] for case in cases)

    def test_closed_form_reads_the_character_at_the_stars_pi(self):
        # omega(pi) is omega's pi_value only at pi = u; the suite's pi is
        # u, so no report sees another pi
        q = 3
        u = KElement.uniformizer(q)
        one = KElement.one(q)
        chars = cli._characters(q, 2)
        assert {w.r for w in chars} == {0, 1, 2}
        for pi in (u * (one + u), u * (KElement.constant(q, 2) + u * u),
                   KElement(q, {1: 2})):
            for d in range(-1, 3):
                psi = AdditiveCharacter(q, d)
                for mu in (Fraction(1), Fraction(5, 4)):
                    for w in chars:
                        assert cli._epsilon_closed_form(w, psi, pi, mu) == \
                            zeta1d.epsilon_star(w, psi, pi, mu)

    @pytest.mark.parametrize("args", [
        ("verify", "--q", "5", "--suite", "zeta1d-epsilon", "--rmax", "2"),
        ("epsilon-table", "--q", "5", "--rmax", "2", "--d", "1"),
    ], ids=["verify", "epsilon-table"])
    def test_epsilon_stars_two_test_functions_per_conductor(
            self, args, monkeypatch, tmp_path):
        starred, star = [], SBFunction.star

        def counted_star(f, psi, pi):
            starred.append(f)
            return star(f, psi, pi)
        clear_caches()
        monkeypatch.setattr(SBFunction, "star", counted_star)
        assert run([*args, "--out-dir", str(tmp_path)]) == 0
        conductors = {w.r for w in cli._characters(5, 2)}
        assert conductors == {0, 1, 2}
        assert len(starred) == 2 * len(conductors)

    def test_epsilon_table_cold_and_warm_write_the_pinned_bytes(
            self, tmp_path):
        args, digest = PINNED["table-q5"]
        clear_caches()
        texts = []
        for run_dir in ("cold", "warm"):
            assert run([*args, "--out-dir", str(tmp_path / run_dir)]) == 0
            texts.append((tmp_path / run_dir / "epsilon-table.json")
                         .read_bytes())
        assert texts[0] == texts[1]
        assert hashlib.sha256(texts[0]).hexdigest() == digest

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

    @pytest.mark.parametrize("suite", SUITES)
    def test_every_suite_reads_mu(self, suite, tmp_path, monkeypatch):
        # every SBFunction is made through __init__, normal forms included
        seen = []
        init = SBFunction.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            seen.append(self.mu)

        monkeypatch.setattr(SBFunction, "__init__", spy)
        assert run(["verify", "--q", "2", "--suite", suite, "--mu", "5/4",
                    "--out-dir", str(tmp_path)]) == 0
        # measure works on F and archfe on the real line: no SBFunction
        want = set() if suite in ("measure", "archfe") else {Fraction(5, 4)}
        assert set(seen) == want

    def test_q_five(self, tmp_path):
        assert run(["verify", "--q", "5", "--suite", "zeta1d-epsilon",
                    "--out-dir", str(tmp_path)]) == 0

    def test_raising_suite_becomes_an_error_row(self):
        # takes no fixtures: tests/test_mutants.py runs it as a named check
        def boom(g, omega):
            raise RuntimeError("boom")

        zeta_rho2 = zeta2d.zeta_rho2
        zeta2d.zeta_rho2 = boom
        try:
            with tempfile.TemporaryDirectory() as out, \
                    contextlib.redirect_stdout(io.StringIO()) as printed:
                code = run(["verify", "--q", "2", "--out-dir", out])
                rows = json.loads((Path(out) / "report.json").read_text())
        finally:
            zeta2d.zeta_rho2 = zeta_rho2
        assert code == 1
        assert [r for r in rows if not r["pass"]] == [
            {"suite": "rho2", "case_id": "error", "inputs": {},
             "expected": "no exception", "got": "RuntimeError: boom",
             "pass": False}]
        # the suites after rho2 still ran
        assert list(dict.fromkeys(r["suite"] for r in rows)) == list(SUITES)
        assert "1 failed" in printed.getvalue()
        assert ("FAIL rho2/error expected=no exception got=RuntimeError: boom"
                in printed.getvalue())

    def test_suites_are_eager_functions_the_tracer_wraps(self):
        # bench/tracing.py wraps cli.suite_<name> (found through vars(cli)
        # and SUITE_FUNCS) and times each suite as the span of its call,
        # so a suite must do all its work before it returns
        assert SUITES == tuple(SUITE_FUNCS)
        cfg = build_parser().parse_args(["verify", "--q", "2"])
        for name, suite in SUITE_FUNCS.items():
            assert suite is getattr(
                cli, "suite_" + name.lower().replace("-", "_"))
            assert not inspect.isgeneratorfunction(suite)
            cases = suite(cfg)
            assert type(cases) is list and cases
            for case in cases:
                assert type(case) is tuple and len(case) == 4
                if case[2] is True:
                    # a yes/no case prints its verdict as True or False
                    assert type(case[3]) is bool


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


class TestStandardLibraryOnly:
    """liftzeta imports and runs, its archfe suite included, on the
    standard library alone."""

    def run_python(self, code):
        src = str(Path(liftzeta.__file__).resolve().parents[1])
        path = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)

    def test_archfe_suite_runs_with_scipy_blocked(self, tmp_path):
        proc = self.run_python(
            'import sys\n'
            'sys.modules["scipy"] = None\n'
            'import liftzeta.cli\n'
            'sys.exit(liftzeta.cli.main(["verify", "--q", "2", "--suite",'
            ' "archfe", "--out-dir", %r]))' % str(tmp_path))
        assert proc.returncode == 0, proc.stderr

    def test_cli_import_loads_no_float_stack(self):
        proc = self.run_python(
            'import sys\n'
            'import liftzeta.cli\n'
            'print(sorted({"scipy", "numpy"} & set(sys.modules)))')
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
