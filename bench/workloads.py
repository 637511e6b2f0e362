"""The four benchmark workloads: inputs from a seed, cases with checks.

A case is one outside call into liftzeta that returns one or more
verdicts, together with the check of those verdicts against their known
answer.  Every check uses exact ``==`` on the program's values (never
their ``str()`` forms, which differ between cyclotomic embeddings of one
number).  The benchmark reaches the program only through public names of
``liftzeta.*``; the small helpers below that mirror the CLI's input
builders are copied on purpose, so the inputs stay fixed when the CLI's
private helpers change.

Why these four workloads (sizes are for one pass):

- ``verify-q3``: the user's ``liftzeta verify --q 3`` with the workload
  seed, one case per suite.  The only workload that covers ``cli`` and
  ``zeta2d``.  FE2 dominates it, and there ``epsilon_star`` is called many
  times on few distinct inputs, so a memo shows here.
- ``double-star-q3``: ``double_star_invariance`` over the 40 level-3
  coset-basis functions of O at q=3, d in {0, 1}: 80 cases.  ``schwartz``
  and ``localfield`` cosets dominate it; it uses no quasi-characters and
  no ``ZetaValue`` division.
- ``epsilon-q5``: ``epsilon_star`` for the 20 characters of conductor <= 2
  at q=5 with pi-value z4, d in {0, 1}: 40 cases, each checked against the
  closed form.  The only workload where ``CycRat`` runs at cyclotomic
  order 20 with sqrt 5, and where conductor-2 Gauss sums occur.  Each
  input appears once, so a memo should not move it.
- ``lift2d-measure``: random lifted functions and distinguished sets on F
  at q in {3, 5}, checked for translation/scale invariance of the integral
  and additivity of the measure.  ``lift2d`` and ``setring`` are under 2%
  of every other workload.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

from liftzeta import cli, lift2d, zeta1d
from liftzeta.exactnum import CycRat, ZetaValue
from liftzeta.localfield import (
    AdditiveCharacter, KCoset, KElement, enumerate_characters,
)
from liftzeta.schwartz import SBFunction
from liftzeta.setring import DddSet
from tracing import SUITES

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# lift2d-measure: sub-seeds per pass and residue sizes per sub-seed
LIFT_SUBSEEDS = 12
LIFT_QS = (3, 5)


class Case:
    """One timed call; ``run()`` returns True when every verdict it
    produced matches the known answer."""

    __slots__ = ("case_id", "run")

    def __init__(self, case_id, run):
        self.case_id = case_id
        self.run = run


def coset_basis(q, maxlev):
    """Indicators of pi^n O (n <= maxlev) and of every coset of O of
    level 1..maxlev away from 0: the basis the verify suites use."""
    out = [SBFunction.char_ideal(q, n) for n in range(0, maxlev + 1)]
    for lev in range(1, maxlev + 1):
        for c in KCoset.ideal(q, 0).subcosets(lev):
            if not c.rep.is_zero():
                out.append(SBFunction.char(c))
    return out


def epsilon_closed_form(om, psi, pi, mu):
    """The exponential factor as the verify suite states it in closed
    form: a monomial whose coefficient carries rho0 for ramified
    characters."""
    q, d = om.q, psi.d
    if om.r == 0:
        k = -((-d) // 2)
        return ZetaValue.monomial(
            q, CycRat.from_rational(mu * Fraction(q) ** (-2 * k))
            * om.pi_value ** (-k), t_exp=-k)
    r = om.r
    k = -((d - r) // 2)
    delta = Fraction(1) if (d - r) % 2 == 0 else Fraction(1, q)
    return ZetaValue.monomial(
        q, CycRat.from_rational(mu * Fraction(q) ** (2 * k) * delta)
        * om.pi_value ** k * CycRat.sqrt_q(q, -r)
        * zeta1d.rho0(om.inverse(), psi, pi), t_exp=k)


# -- verify-q3 ----------------------------------------------------------------

def report_digest(text, seed):
    """sha256 of a report with its seed value blanked: the only bytes of a
    verify report that may depend on the seed."""
    text = text.replace('"seed": %d' % seed, '"seed": "SEED"')
    return hashlib.sha256(text.encode()).hexdigest()


def verify_cases(seed, out_dir, golden=None):
    golden = json.loads(GOLDEN.read_text()) if golden is None else golden
    cases = []
    for suite in SUITES:
        sub = Path(out_dir) / suite
        argv = ["verify", "--q", "3", "--seed", str(seed),
                "--suite", suite, "--out-dir", str(sub)]

        def run(argv=argv, sub=sub, suite=suite):
            code = cli.main(argv)
            text = (sub / "report.json").read_text()
            rows = json.loads(text)
            return (code == 0 and rows and all(r["pass"] is True for r in rows)
                    and report_digest(text, seed) == golden[suite])
        cases.append(Case("verify-%s" % suite, run))
    return cases


# -- double-star-q3 -----------------------------------------------------------

def double_star_cases():
    q = 3
    pi1 = KElement.uniformizer(q)
    pi2 = KElement(q, {1: 1, 2: 1})  # u(1+u)
    basis = coset_basis(q, 3)
    cases = []
    for d in (0, 1):
        psi1 = AdditiveCharacter(q, d)
        psi2 = AdditiveCharacter(q, d + 1)
        for i, f in enumerate(basis):
            def run(f=f, psi1=psi1, psi2=psi2):
                return zeta1d.double_star_invariance(
                    f, pi1, pi2, psi1, psi2) is True
            cases.append(Case("dstar-d%d-%02d" % (d, i), run))
    return cases


# -- epsilon-q5 ---------------------------------------------------------------

def epsilon_cases(closed_form=epsilon_closed_form):
    q, mu = 5, Fraction(1)
    pi = KElement.uniformizer(q)
    pi4 = CycRat.root_of_unity(4)
    chars = [w.with_pi_value(pi4) for w in enumerate_characters(q, 2)]
    cases = []
    for d in (0, 1):
        psi = AdditiveCharacter(q, d)
        for om in chars:
            def run(om=om, psi=psi):
                eps = zeta1d.epsilon_star(om, psi, pi, mu)
                return (eps.is_exponential_type() is not None
                        and eps == closed_form(om, psi, pi, mu))
            cases.append(Case("eps-d%d-%s" % (d, om.label), run))
    return cases


# -- lift2d-measure -----------------------------------------------------------

def _random_lifted(q, rng):
    """A lifted function with a translation and a scaling, drawn as the
    lift2d-invariance suite draws them."""
    terms = []
    for _ in range(rng.randrange(1, 3)):
        g = SBFunction.char(
            KCoset(q, KElement(q, {k: rng.randrange(q) for k in (-1, 0)}),
                   rng.randrange(-1, 2)))
        a = lift2d.FElement(q, {e: KElement(q, {0: rng.randrange(q)})
                                for e in (-1, 0, 1) if rng.random() < 0.6})
        terms.append((g, a, rng.randrange(-1, 2), None, 1))
    f = lift2d.LiftedFn(q, terms)
    tau = lift2d.FElement(q, {e: KElement(q, {0: rng.randrange(q)})
                              for e in (-2, 0, 1)})
    alpha = lift2d.FElement(
        q, {rng.randrange(-1, 2):
            KElement.uniformizer(q, rng.randrange(-1, 2))})
    return f, tau, alpha


def _random_dset(q, fam, rng):
    """A distinguished set on F, drawn as the measure suite draws them."""
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


def lift2d_measure_cases(seed):
    cases = []
    for sub in range(seed * LIFT_SUBSEEDS, (seed + 1) * LIFT_SUBSEEDS):
        for q in LIFT_QS:
            psi = lift2d.GoodCharacter(q, 0)
            rng = random.Random("lift-%d-%d" % (sub, q))
            for i in range(20):
                f, tau, alpha = _random_lifted(q, rng)

                def translate(f=f, tau=tau, psi=psi):
                    return (f.translate_var(tau, psi).integrate(psi)
                            == f.integrate(psi))

                def scale(f=f, alpha=alpha, psi=psi):
                    return (f.scale_var(alpha).integrate(psi)
                            == f.integrate(psi)
                            * lift2d.abs_F(alpha).inverse())
                cases.append(Case("translate-%d-q%d-%02d" % (sub, q, i),
                                  translate))
                cases.append(Case("scale-%d-q%d-%02d" % (sub, q, i), scale))
            fam = lift2d.DistinguishedFamily(q, Fraction(1))
            rng = random.Random("measure-%d-%d" % (sub, q))
            for i in range(40):
                x = DddSet.atom(fam, _random_dset(q, fam, rng))
                y = DddSet.atom(fam, _random_dset(q, fam, rng))

                def additive(x=x, y=y, fam=fam):
                    m = lambda s: lift2d.measure_F(s, fam)
                    y_out = y.difference(x)
                    return (m(x.union(y_out)) == m(x) + m(y_out)
                            and m(x) == m(x.intersection(y))
                            + m(x.difference(y)))
                cases.append(Case("measure-%d-q%d-%02d" % (sub, q, i),
                                  additive))
    return cases


def build(workload, seed, out_dir):
    """The cases of one pass of a workload, built from its seed;
    double-star-q3 and epsilon-q5 have no random input."""
    if workload == "verify-q3":
        return verify_cases(seed, out_dir)
    if workload == "double-star-q3":
        return double_star_cases()
    if workload == "epsilon-q5":
        return epsilon_cases()
    if workload == "lift2d-measure":
        return lift2d_measure_cases(seed)
    raise ValueError("unknown workload %r" % workload)

