"""Per-atom and per-term references for the summed values of lift2d.

``measure_F`` counts the cosets of every residue set at one level and
builds one value per call; ``LiftedFn.integrate`` adds its terms per X
exponent and settles each exponent once.  The references here are the
sums those replace, shared by the tests: one ``ZetaValue`` monomial per
atom, each residue set measured by ``KCosetFamily.haar`` through
``DddSet.measure``, and one ``ZetaValue`` product per term, each added
to the running total as it comes.
"""

from liftzeta.exactnum import ZetaValue, cyc_one


def measure_reference(W, family):
    """The measure of W as the signed sum over its atoms of
    mu(S) X^gamma, a null atom giving 0."""
    q = family.q

    def atom_measure(A):
        if A.is_null():
            return ZetaValue.zero(q)
        return ZetaValue.monomial(q, A.S.measure(family.kfam.haar),
                                  x_exp=A.gamma)
    value = W.measure(atom_measure)
    return ZetaValue.zero(q) if value == 0 else value


def integrate_reference(f, psi):
    """The F integral of the lifted function f as the sum over its terms
    of coeff * X^gamma * (the term's K integral)."""
    q = f.q
    total = ZetaValue.zero(q)
    for g, a, gamma, b, coeff in f.terms:
        xg = ZetaValue.monomial(q, 1, x_exp=gamma)
        if b is None or gamma > -b.nu():
            const = cyc_one() if b is None else psi(b * a)
            val = g.haar_integral()
        elif gamma == -b.nu():
            const = psi(b * a)
            val = g.twisted(b.eta(), psi.base).haar_integral()
        else:
            continue
        total = total + coeff * xg * ZetaValue.constant(q, const * val)
    return total
