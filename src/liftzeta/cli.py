"""Batch verification driver.

Two commands: "verify" runs the selected identity suites at the given
parameters and writes a JSON or CSV report with one row per checked
case, exiting 0 only if every case passes; "epsilon-table" tabulates the
exponential factor of every enumerated character.

Each suite_<name>(cfg) does all its work when called and returns its
cases as tuples (case_id, inputs, expected, got); a yes/no check is
(case_id, inputs, True, ok) with ok a bool.  cmd_verify turns every case
into a row with _row, whose verdict is exact equality.  A suite that
raises becomes one failing row, case_id "error", expected "no
exception" and got "<exception type>: <message>", and the run goes on.
"""

import argparse
import csv
import io
import json
import math
import random
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .exactnum import CycRat, ZetaValue
from .localfield import (
    ENUMERATION_BOUND, AdditiveCharacter, KCoset, KElement, QuasiCharacter,
    enumerate_characters, is_prime,
)
from .schwartz import SBFunction
from . import archfe, lift2d, zeta1d, zeta2d
from .setring import DddSet


def _row(suite, case_id, inputs, expected, got):
    return {"suite": suite, "case_id": case_id, "inputs": inputs,
            "expected": str(expected), "got": str(got),
            "pass": expected == got}


def _coset_basis(q, maxlev, mu):
    out = [SBFunction.char_ideal(q, n, 1, mu) for n in range(0, maxlev + 1)]
    for lev in range(1, maxlev + 1):
        for c in KCoset.ideal(q, 0).subcosets(lev):
            if not c.rep.is_zero():
                out.append(SBFunction.char(c, 1, mu))
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
    cases = []
    for r in range(-2, 3):
        g = SBFunction.char_ideal(q, r, 1, mu)
        want = SBFunction.char_ideal(q, d - r, mu * Fraction(q) ** (-r), mu)
        cases.append(("fourier-ideal-r%+d" % r, {"q": q, "d": d, "r": r},
                      True, g.fourier(psi).equals(want)))
        k = -((-d) // 2)  # ceil(d/2)
        want2 = SBFunction.char_ideal(
            q, k - r, mu * Fraction(q) ** (-2 * r), mu)
        cases.append(("star-ideal-r%+d" % r, {"q": q, "d": d, "r": r},
                      True, g.star(psi, pi).equals(want2)))
    return cases


def _epsilon_closed_form(om, psi, pi, mu):
    """The exponential factor of om in closed form, om(pi) its value at
    the star's uniformizer.  For om of conductor r >= 1 and
    k = ceil((r - d)/2) it is
    mu q^(2k) delta(d - r) om(pi)^k q^(-r/2) rho0(om^-1, psi, pi) T^k;
    for r = 0 and k = ceil(d/2) it is mu q^(-2k) om(pi)^(-k) T^(-k)."""
    q, d, r = om.q, psi.d, om.r
    if r == 0:
        k = -((-d) // 2)
        return ZetaValue.monomial(
            q, CycRat.from_rational(mu * Fraction(q) ** (-2 * k))
            * om(pi) ** (-k), t_exp=-k)
    k = -((d - r) // 2)
    delta = Fraction(1) if (d - r) % 2 == 0 else Fraction(1, q)
    return ZetaValue.monomial(
        q, CycRat.from_rational(mu * Fraction(q) ** (2 * k) * delta)
        * om(pi) ** k * CycRat.sqrt_q(q, -r)
        * zeta1d.rho0(om.inverse(), psi, pi), t_exp=k)


def suite_zeta1d_epsilon(cfg):
    q, d, mu = cfg.q, cfg.d, cfg.mu
    psi = AdditiveCharacter(q, d)
    pi = KElement.uniformizer(q)
    cases = []
    for om in _characters(q, cfg.rmax):
        eps = zeta1d.epsilon_star(om, psi, pi, mu)
        inputs = {"q": q, "d": d, "r": om.r}
        cases.append(("exp-type-%s" % om.label, inputs, True,
                      eps.is_exponential_type() is not None))
        cases.append(("closed-form-%s" % om.label, inputs,
                      _epsilon_closed_form(om, psi, pi, mu), eps))
    return cases


def suite_identity_a(cfg):
    q, d = cfg.q, cfg.d
    psi = AdditiveCharacter(q, d)
    pi = KElement.uniformizer(q)
    basis = [(f, f.double_star(psi, pi))
             for f in _coset_basis(q, cfg.level, cfg.mu)]
    return [("basis-%s" % om.label, {"q": q, "d": d, "r": om.r}, True,
             all(zeta1d.check_identity_A(f, om, psi, ff)
                 for f, ff in basis))
            for om in _characters(q, cfg.rmax)]


def suite_double_star(cfg):
    q, d = cfg.q, cfg.d
    psi1 = AdditiveCharacter(q, d)
    psi2 = AdditiveCharacter(q, d + 1)
    pi1 = KElement.uniformizer(q)
    pi2 = KElement(q, {1: 1, 2: 1})  # u(1+u)
    return [("basis-%d" % i, {"q": q, "d": d}, True,
             zeta1d.double_star_invariance(f, pi1, pi2, psi1, psi2))
            for i, f in enumerate(_coset_basis(q, cfg.level, cfg.mu))]


def suite_lift2d_invariance(cfg):
    q, d = cfg.q, cfg.d
    psi = lift2d.GoodCharacter(q, d)
    rng = random.Random(cfg.seed)
    cases = []
    for i in range(20):
        terms = []
        for _ in range(rng.randrange(1, 3)):
            g = SBFunction.char(
                KCoset(q, KElement(q, {k: rng.randrange(q)
                                       for k in (-1, 0)}),
                       rng.randrange(-1, 2)), 1, cfg.mu)
            a = lift2d.FElement(q, {e: KElement(q, {0: rng.randrange(q)})
                                    for e in (-1, 0, 1)
                                    if rng.random() < 0.6})
            terms.append((g, a, rng.randrange(-1, 2), None, 1))
        f = lift2d.LiftedFn(q, terms)
        tau = lift2d.FElement(q, {e: KElement(q, {0: rng.randrange(q)})
                                  for e in (-2, 0, 1)})
        cases.append((
            "translate-%02d" % i, {"q": q, "d": d}, True,
            f.translate_var(tau, psi).integrate(psi) == f.integrate(psi)))
        alpha = lift2d.FElement(
            q, {rng.randrange(-1, 2):
                KElement.uniformizer(q, rng.randrange(-1, 2))})
        cases.append((
            "scale-%02d" % i, {"q": q, "d": d}, True,
            f.scale_var(alpha).integrate(psi)
            == f.integrate(psi) * lift2d.abs_F(alpha).inverse()))
    return cases


def suite_measure(cfg):
    q, mu = cfg.q, cfg.mu
    fam = lift2d.DistinguishedFamily(q, mu)
    rng = random.Random(cfg.seed)

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
    cases = [
        ("atom", {"q": q, "mu": str(mu)},
         ZetaValue.monomial(q, mu * Fraction(1, q), x_exp=1),
         lift2d.measure_F(DddSet.atom(fam, A), fam)),
        ("full-ideal-zero", {"q": q}, True,
         lift2d.measure_F(DddSet.atom(
             fam, lift2d.DistinguishedSetF.null_ideal(q, 1)), fam).is_zero()),
    ]
    ok = True
    for _ in range(40):
        x = DddSet.atom(fam, rand_atom())
        y = DddSet.atom(fam, rand_atom()).difference(x)
        u = x.union(y)
        if lift2d.measure_F(u, fam) != lift2d.measure_F(x, fam) + \
                lift2d.measure_F(y, fam):
            ok = False
    cases.append(("additivity-random", {"q": q, "seed": cfg.seed}, True, ok))
    return cases


def suite_fe2(cfg):
    q, d = cfg.q, cfg.d
    psi = AdditiveCharacter(q, d)
    pi = KElement.uniformizer(q)
    chars = _characters(q, min(cfg.rmax, 1))
    basis = _coset_basis(q, min(cfg.level, 2), cfg.mu)[:4]
    stars = [f.star(psi, pi) for f in basis]
    # per character omega, the two sides of its functional equation for
    # each basis function f: the dual side subst_dual(Z(f*, omega^-1) /
    # L(omega^-1)) and the epsilon side epsilon_star(omega) Z(f, omega) /
    # L(omega); a tensor a (x) b under chi = (omega1, omega2) has the
    # products of the sides of a under omega1 and of b under omega2
    sides = []
    for om in chars:
        inv = om.inverse()
        eps = zeta1d.epsilon_star(om, psi, pi, cfg.mu)
        sides.append((
            [zeta1d.z_normalized(fs, inv).subst_dual() for fs in stars],
            [eps * zeta1d.z_normalized(f, om) for f in basis]))
    cases = []
    for om1, (d1, e1) in zip(chars, sides):
        for om2, (d2, e2) in zip(chars[:2], sides):
            ok = all(zeta2d.verify_FE2([(da, db)], [(ea, eb)])
                     for da, ea in zip(d1, e1) for db, eb in zip(d2, e2))
            cases.append(("chi-%s-%s" % (om1.label, om2.label),
                          {"q": q, "d": d, "r": (om1.r, om2.r)}, True, ok))
    return cases


def suite_rho2(cfg):
    q, mu = cfg.q, cfg.mu
    gs = [("char-O", SBFunction.char_ideal(q, 0, 1, mu)),
          ("char-units", SBFunction.char_units(q, mu)),
          ("char-1+pi", SBFunction.char(
              KCoset(q, KElement.one(q), 1), 1, mu))]
    oms = [QuasiCharacter.trivial(q, pi_value=CycRat.from_rational(1)),
           QuasiCharacter.trivial(q, pi_value=CycRat.root_of_unity(4))]
    oms += _characters(q, min(cfg.rmax, 1))
    return [("%s-%s" % (name, om.label or "unram"), {"q": q, "r": om.r},
             True, zeta2d.zeta_rho2(g, om)[2])
            for name, g in gs for om in oms]


def suite_archfe(cfg):
    tol = cfg.tol
    worst = max(abs(archfe.star_numeric(archfe.gaussian, -2.0 + 0.2 * k)
                    - archfe.gaussian_star(-2.0 + 0.2 * k))
                for k in range(20))
    cases = [("star-grid", {"tol": tol}, True, worst < max(tol, 1e-6))]
    gn = archfe.gaussian_nabla
    for s in (2, 4, 6):
        err = abs(archfe.zeta_numeric(gn, 1, s)
                  - archfe.gamma_zeta_closed_form(s))
        cases.append(("gamma-s%d" % s, {"s": s}, True, err < max(tol, 1e-8)))
    for s in (1, 1 + 0.3j):
        ok = archfe.fe_product_check(gn, gn, archfe.gaussian,
                                     archfe.gaussian_star, s, max(tol, 1e-6))
        cases.append(("product-fe-s%s" % s, {"s": str(s)}, True, ok))
    return cases


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
SUITES = tuple(SUITE_FUNCS)


def _write_report(rows, out_dir, fmt, name):
    """Write the report and return its path; on a file-system error print
    the message and return None."""
    path = Path(out_dir) / ("%s.%s" % (name, fmt))
    if fmt == "json":
        text = json.dumps(rows, indent=2, sort_keys=True, default=str) + "\n"
    else:
        buf = io.StringIO()
        fields = ["suite", "case_id", "inputs", "expected", "got", "pass"]
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for r in rows:
            r = dict(r)
            r["inputs"] = json.dumps(r["inputs"], sort_keys=True,
                                     default=str)
            writer.writerow(r)
        text = buf.getvalue()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        print("cannot write report: %s" % exc, file=sys.stderr)
        return None
    return path


def cmd_verify(cfg):
    suites = SUITES if cfg.suite == "all" else (cfg.suite,)
    rows = []
    for name in suites:
        try:
            cases = SUITE_FUNCS[name](cfg)
        except Exception as exc:
            cases = [("error", {}, "no exception",
                      "%s: %s" % (type(exc).__name__, exc))]
        rows.extend(_row(name, *case) for case in cases)
    path = _write_report(rows, cfg.out_dir, cfg.format, "report")
    if path is None:
        return 2
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
    if path is None:
        return 2
    print("wrote %s (%d characters)" % (path, len(rows)))
    return 0


@lru_cache(maxsize=None)
def build_parser():
    """The parser of both commands, built on the first call and kept:
    parsing leaves it as it was, so every main call can share it."""
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
        p.add_argument("--out-dir", default="reports")
        p.add_argument("--format", choices=("json", "csv"),
                       default="json")
        if name == "verify":
            p.add_argument("--suite", default="all",
                           choices=("all",) + SUITES)
            p.add_argument("--level", type=int, default=2,
                           help="largest coset level in test bases")
            p.add_argument("--tol", type=_tolerance, default=1e-6,
                           help="numeric tolerance (archfe suite)")
            p.add_argument("--seed", type=int, default=20260823,
                           help="seed for randomized cases")
    return parser


def main(argv=None):
    cfg = build_parser().parse_args(argv)
    if not 0 <= cfg.rmax <= 3 or (cfg.command == "verify"
                                  and not 0 <= cfg.level <= 4):
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
