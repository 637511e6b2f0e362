"""Batch verification driver.

Two commands: "verify" runs the selected identity suites at the given
parameters and writes a JSON or CSV report with one row per checked
case, exiting 0 only if every case passes; "epsilon-table" tabulates the
exponential factor of every enumerated character.
"""

import argparse
import csv
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from .exactnum import CycRat, ZetaValue
from .localfield import (
    ENUMERATION_BOUND, AdditiveCharacter, KCoset, KElement, QuasiCharacter,
    enumerate_characters, is_prime,
)
from .schwartz import SBFunction
from . import archfe, lift2d, zeta1d, zeta2d
from .setring import DddSet

SUITES = ("schwartz-oracle", "zeta1d-epsilon", "identity-A", "double-star",
          "lift2d-invariance", "measure", "FE2", "rho2", "archfe")


def _row(suite, case_id, inputs, expected, got):
    return {"suite": suite, "case_id": case_id, "inputs": inputs,
            "expected": str(expected), "got": str(got),
            "pass": expected == got}


def _flag_row(suite, case_id, inputs, ok):
    return {"suite": suite, "case_id": case_id, "inputs": inputs,
            "expected": "True", "got": str(bool(ok)), "pass": bool(ok)}


def _coset_basis(q, maxlev):
    out = [SBFunction.char_ideal(q, n) for n in range(0, maxlev + 1)]
    for lev in range(1, maxlev + 1):
        for c in KCoset.ideal(q, 0).subcosets(lev):
            if not c.rep.is_zero():
                out.append(SBFunction.char(c))
    return out


def _measure(text):
    """--mu: the Haar measure of the ring of integers, a positive
    rational number."""
    try:
        mu = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "not a rational number: %r" % text) from None
    if mu <= 0:
        raise argparse.ArgumentTypeError("must be positive: %r" % text)
    return mu


def _tolerance(text):
    """--tol: a positive finite number."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not a number: %r" % text) from None
    if not 0 < tol < math.inf:
        raise argparse.ArgumentTypeError(
            "must be positive and finite: %r" % text)
    return tol


def _characters(q, rmax):
    pi4 = CycRat.root_of_unity(4)
    return [w.with_pi_value(pi4) for w in enumerate_characters(q, rmax)]


def suite_schwartz_oracle(cfg):
    q, d, mu = cfg.q, cfg.d, cfg.mu
    psi = AdditiveCharacter(q, d)
    pi = KElement.uniformizer(q)
    rows = []
    for r in range(-2, 3):
        g = SBFunction.char_ideal(q, r, 1, mu)
        want = SBFunction.char_ideal(q, d - r, mu * Fraction(q) ** (-r), mu)
        rows.append(_flag_row(
            "schwartz-oracle", "fourier-ideal-r%+d" % r,
            {"q": q, "d": d, "r": r}, g.fourier(psi).equals(want)))
        k = -((-d) // 2)  # ceil(d/2)
        want2 = SBFunction.char_ideal(
            q, k - r, mu * Fraction(q) ** (-2 * r), mu)
        rows.append(_flag_row(
            "schwartz-oracle", "star-ideal-r%+d" % r,
            {"q": q, "d": d, "r": r},
            g.star(psi, pi).equals(want2, psi)))
    return rows


def suite_zeta1d_epsilon(cfg):
    q, d, mu = cfg.q, cfg.d, cfg.mu
    psi = AdditiveCharacter(q, d)
    pi = KElement.uniformizer(q)
    rows = []
    for om in _characters(q, cfg.rmax):
        eps = zeta1d.epsilon_star(om, psi, pi, mu)
        et = eps.is_exponential_type()
        rows.append(_flag_row(
            "zeta1d-epsilon", "exp-type-%s" % om.label,
            {"q": q, "d": d, "r": om.r}, et is not None))
        if om.r == 0:
            k = -((-d) // 2)
            want = ZetaValue.monomial(
                q, CycRat.from_rational(mu * Fraction(q) ** (-2 * k))
                * om.pi_value ** (-k), t_exp=-k)
        else:
            r = om.r
            k = -((d - r) // 2)
            delta = Fraction(1) if (d - r) % 2 == 0 else Fraction(1, q)
            want = ZetaValue.monomial(
                q, CycRat.from_rational(mu * Fraction(q) ** (2 * k) * delta)
                * om.pi_value ** k * CycRat.sqrt_q(q, -r)
                * zeta1d.rho0(om.inverse(), psi, pi), t_exp=k)
        rows.append(_row("zeta1d-epsilon", "closed-form-%s" % om.label,
                         {"q": q, "d": d, "r": om.r}, want, eps))
    return rows


def suite_identity_a(cfg):
    q, d = cfg.q, cfg.d
    psi = AdditiveCharacter(q, d)
    pi = KElement.uniformizer(q)
    rows = []
    basis = _coset_basis(q, cfg.level)
    for om in _characters(q, cfg.rmax):
        ok = all(zeta1d.check_identity_A(f, om, psi, pi) for f in basis)
        rows.append(_flag_row("identity-A", "basis-%s" % om.label,
                              {"q": q, "d": d, "r": om.r}, ok))
    return rows


def suite_double_star(cfg):
    q, d = cfg.q, cfg.d
    psi1 = AdditiveCharacter(q, d)
    psi2 = AdditiveCharacter(q, d + 1)
    pi1 = KElement.uniformizer(q)
    pi2 = KElement(q, {1: 1, 2: 1})  # u(1+u)
    rows = []
    for i, f in enumerate(_coset_basis(q, cfg.level)):
        rows.append(_flag_row(
            "double-star", "basis-%d" % i, {"q": q, "d": d},
            zeta1d.double_star_invariance(f, pi1, pi2, psi1, psi2)))
    return rows


def suite_lift2d_invariance(cfg):
    q, d = cfg.q, cfg.d
    psi = lift2d.GoodCharacter(q, d)
    rng = random.Random(cfg.seed)
    rows = []
    for i in range(20):
        terms = []
        for _ in range(rng.randrange(1, 3)):
            g = SBFunction.char(
                KCoset(q, KElement(q, {k: rng.randrange(q)
                                       for k in (-1, 0)}),
                       rng.randrange(-1, 2)))
            a = lift2d.FElement(q, {e: KElement(q, {0: rng.randrange(q)})
                                    for e in (-1, 0, 1)
                                    if rng.random() < 0.6})
            terms.append((g, a, rng.randrange(-1, 2), None, 1))
        f = lift2d.LiftedFn(q, terms)
        tau = lift2d.FElement(q, {e: KElement(q, {0: rng.randrange(q)})
                                  for e in (-2, 0, 1)})
        rows.append(_flag_row(
            "lift2d-invariance", "translate-%02d" % i, {"q": q, "d": d},
            f.translate_var(tau, psi).integrate(psi) == f.integrate(psi)))
        alpha = lift2d.FElement(
            q, {rng.randrange(-1, 2):
                KElement.uniformizer(q, rng.randrange(-1, 2))})
        rows.append(_flag_row(
            "lift2d-invariance", "scale-%02d" % i, {"q": q, "d": d},
            f.scale_var(alpha).integrate(psi)
            == f.integrate(psi) * lift2d.abs_F(alpha).inverse()))
    return rows


def suite_measure(cfg):
    q, mu = cfg.q, cfg.mu
    fam = lift2d.DistinguishedFamily(q, mu)
    rng = random.Random(cfg.seed)
    rows = []

    def rand_atom():
        a = lift2d.FElement(
            q, {e: KElement(q, {k: rng.randrange(q) for k in (-1, 0, 1)})
                for e in (-1, 0, 1) if rng.random() < 0.7})
        gamma = rng.randrange(-1, 3)
        if rng.random() < 0.15:
            return lift2d.DistinguishedSetF.null_ideal(q, gamma, a)
        S = None
        for _ in range(rng.randrange(1, 3)):
            piece = DddSet.atom(fam.kfam, KCoset(
                q, KElement(q, {k: rng.randrange(q) for k in (-1, 0, 1)}),
                rng.randrange(-1, 3)))
            S = piece if S is None else S.union(piece)
        return lift2d.DistinguishedSetF(q, a, gamma, S)

    A = lift2d.DistinguishedSetF(
        q, lift2d.FElement.zero(q), 1,
        DddSet.atom(fam.kfam, KCoset.ideal(q, 1)))
    rows.append(_row("measure", "atom",
                     {"q": q, "mu": str(mu)},
                     ZetaValue.monomial(q, mu * Fraction(1, q), x_exp=1),
                     lift2d.measure_F(DddSet.atom(fam, A), fam)))
    rows.append(_flag_row(
        "measure", "full-ideal-zero", {"q": q},
        lift2d.measure_F(DddSet.atom(
            fam, lift2d.DistinguishedSetF.null_ideal(q, 1)), fam).is_zero()))
    ok = True
    for _ in range(40):
        x = DddSet.atom(fam, rand_atom())
        y = DddSet.atom(fam, rand_atom()).difference(x)
        u = x.union(y)
        if lift2d.measure_F(u, fam) != lift2d.measure_F(x, fam) + \
                lift2d.measure_F(y, fam):
            ok = False
    rows.append(_flag_row("measure", "additivity-random",
                          {"q": q, "seed": cfg.seed}, ok))
    return rows


def suite_fe2(cfg):
    q, d = cfg.q, cfg.d
    psi = AdditiveCharacter(q, d)
    pi = KElement.uniformizer(q)
    chars = _characters(q, min(cfg.rmax, 1))
    basis = _coset_basis(q, min(cfg.level, 2))
    rows = []
    for om1 in chars:
        for om2 in chars[:2]:
            chi = zeta2d.ChiCharacter(om1, om2)
            ok = all(zeta2d.verify_FE2(
                zeta1d.SBTensor.pure(a, b), chi, psi, pi)
                for a in basis[:4] for b in basis[:4])
            rows.append(_flag_row(
                "FE2", "chi-%s-%s" % (om1.label, om2.label),
                {"q": q, "d": d, "r": (om1.r, om2.r)}, ok))
    return rows


def suite_rho2(cfg):
    q = cfg.q
    rows = []
    gs = [("char-O", SBFunction.char_ideal(q, 0)),
          ("char-units", SBFunction.char_ideal(q, 0)
           - SBFunction.char_ideal(q, 1)),
          ("char-1+pi", SBFunction.char(
              KCoset(q, KElement.one(q), 1)))]
    oms = [QuasiCharacter.trivial(q, pi_value=CycRat.from_rational(1)),
           QuasiCharacter.trivial(q, pi_value=CycRat.root_of_unity(4))]
    oms += _characters(q, min(cfg.rmax, 1))
    for name, g in gs:
        for om in oms:
            _, _, equal = zeta2d.zeta_rho2(g, om)
            rows.append(_flag_row(
                "rho2", "%s-%s" % (name, om.label or "unram"),
                {"q": q, "r": om.r}, equal))
    return rows


def suite_archfe(cfg):
    tol = cfg.tol
    rows = []
    g = archfe.gaussian()
    worst = max(abs(archfe.star_numeric(g, -2.0 + 0.2 * k)
                    - g.star_closed_form(-2.0 + 0.2 * k))
                for k in range(20))
    rows.append(_flag_row("archfe", "star-grid", {"tol": tol},
                          worst < max(tol, 1e-6)))
    gn = archfe.gaussian_nabla()
    for s in (2, 4, 6):
        err = abs(archfe.zeta_numeric(gn, 1, s)
                  - archfe.gamma_zeta_closed_form(s))
        rows.append(_flag_row("archfe", "gamma-s%d" % s, {"s": s},
                              err < max(tol, 1e-8)))
    for s in (1, 1 + 0.3j):
        rows.append(_flag_row(
            "archfe", "product-fe-s%s" % s, {"s": str(s)},
            archfe.fe_product_check(gn, g, 1, s, tol=max(tol, 1e-6))))
    return rows


SUITE_FUNCS = {
    "schwartz-oracle": suite_schwartz_oracle,
    "zeta1d-epsilon": suite_zeta1d_epsilon,
    "identity-A": suite_identity_a,
    "double-star": suite_double_star,
    "lift2d-invariance": suite_lift2d_invariance,
    "measure": suite_measure,
    "FE2": suite_fe2,
    "rho2": suite_rho2,
    "archfe": suite_archfe,
}


def _write_report(rows, out_dir, fmt, name):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        path = out_dir / ("%s.json" % name)
        path.write_text(json.dumps(rows, indent=2, sort_keys=True,
                                   default=str) + "\n")
    else:
        path = out_dir / ("%s.csv" % name)
        buf = io.StringIO()
        fields = ["suite", "case_id", "inputs", "expected", "got", "pass"]
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for r in rows:
            r = dict(r)
            r["inputs"] = json.dumps(r["inputs"], sort_keys=True,
                                     default=str)
            writer.writerow(r)
        path.write_text(buf.getvalue())
    return path


def cmd_verify(cfg):
    suites = SUITES if cfg.suite == "all" else (cfg.suite,)
    rows = []
    for name in suites:
        rows.extend(SUITE_FUNCS[name](cfg))
    path = _write_report(rows, cfg.out_dir, cfg.format, "report")
    failed = [r for r in rows if not r["pass"]]
    print("%d cases, %d failed; report: %s"
          % (len(rows), len(failed), path))
    for r in failed:
        print("FAIL %s/%s expected=%s got=%s"
              % (r["suite"], r["case_id"], r["expected"], r["got"]))
    return 1 if failed else 0


def cmd_epsilon_table(cfg):
    psi = AdditiveCharacter(cfg.q, cfg.d)
    pi = KElement.uniformizer(cfg.q)
    rows = []
    for om in _characters(cfg.q, cfg.rmax):
        eps = zeta1d.epsilon_star(om, psi, pi, cfg.mu)
        a, b = eps.is_exponential_type()
        rows.append({"suite": "epsilon-table", "case_id": om.label,
                     "inputs": {"q": cfg.q, "d": cfg.d, "r": om.r},
                     "expected": "exponential type",
                     "got": "(%s)*T^%d" % (a, b), "pass": True})
    path = _write_report(rows, cfg.out_dir, cfg.format, "epsilon-table")
    print("wrote %s (%d characters)" % (path, len(rows)))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="liftzeta",
        description="exact verification of lifted zeta-integral "
                    "identities")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "epsilon-table"):
        p = sub.add_parser(name)
        p.add_argument("--q", type=int, default=3,
                       help="residue field size (prime)")
        p.add_argument("--mu", type=_measure, default=Fraction(1),
                       help="Haar measure of the ring of integers")
        p.add_argument("--d", type=int, default=0,
                       help="conductor of the additive character")
        p.add_argument("--rmax", type=int, default=1,
                       help="largest character conductor")
        p.add_argument("--level", type=int, default=2,
                       help="largest coset level in test bases")
        p.add_argument("--tol", type=_tolerance, default=1e-6,
                       help="numeric tolerance (archfe suite)")
        p.add_argument("--seed", type=int, default=20260823,
                       help="seed for randomized cases")
        p.add_argument("--out-dir", default="reports")
        p.add_argument("--format", choices=("json", "csv"),
                       default="json")
        if name == "verify":
            p.add_argument("--suite", default="all",
                           choices=("all",) + SUITES)
    return parser


def main(argv=None):
    cfg = build_parser().parse_args(argv)
    if cfg.rmax < 0 or cfg.level < 0 or cfg.level > 4 or cfg.rmax > 3:
        print("rmax/level out of supported range", file=sys.stderr)
        return 2
    size = cfg.q ** max(cfg.rmax, 1)
    if size > ENUMERATION_BOUND:
        print("q^rmax = %d is above the enumeration bound %d"
              % (size, ENUMERATION_BOUND), file=sys.stderr)
        return 2
    if not is_prime(cfg.q):
        print("q must be prime", file=sys.stderr)
        return 2
    if cfg.command == "verify":
        return cmd_verify(cfg)
    return cmd_epsilon_table(cfg)


if __name__ == "__main__":
    sys.exit(main())
