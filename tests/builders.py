"""Literal readers and constructors that only the tests use.

The library builds its values from digits, cosets and coefficient
tuples.  The tests also write them as text or from a few numbers:

- ``parse_k``, ``parse_f`` and ``parse_sb`` read the literal syntax of
  K elements ("2*u^-1 + 1 + u^3"), F elements ("u^-1 + t*(1+u)") and
  Schwartz functions ("1*[1 + u^2*O] - 2*[u^-1 + u*O]");
- ``char_point`` is the point mass c Char({x});
- ``lift_finite`` lifts a function on the residue field to pi^r O;
- ``from_fraction`` is the ZetaValue num/den X^k from coefficient lists.
"""

from fractions import Fraction
import re

from liftzeta.exactnum import CycRat, ZetaValue
from liftzeta.lift2d import FElement
from liftzeta.localfield import KCoset, KElement, KSingleton
from liftzeta.schwartz import SBFunction


def parse_k(q, text):
    """Parse "2*u^-1 + 1 + u^3"."""
    text = text.strip()
    if text == "0":
        return KElement.zero(q)
    digits = {}
    for piece in text.split("+"):
        piece = piece.strip()
        m = re.fullmatch(r"(?:(\d+)\*?)?(?:u(?:\^(-?\d+))?)?", piece)
        if not m or not piece:
            raise ValueError("bad K element literal: %r" % piece)
        coeff = int(m.group(1)) if m.group(1) else 1
        if "u" in piece:
            exp = int(m.group(2)) if m.group(2) else 1
        else:
            exp = 0
        digits[exp] = digits.get(exp, 0) + coeff
    return KElement(q, digits)


def parse_f(q, text):
    """Literal syntax: "u^-1 + t*(1+u) + 2*t^3"."""
    text = text.strip()
    if text in ("", "0"):
        return FElement.zero(q)
    out = {}
    for piece in re.split(r"\+(?![^(]*\))", text):
        piece = piece.strip()
        m = re.fullmatch(
            r"(?:\(([^)]*)\)\*?|([^t()]*?)\*?)?(t(?:\^(-?\d+))?)?",
            piece)
        if m is None or not piece:
            raise ValueError("bad term %r" % piece)
        kpart = m.group(1) if m.group(1) is not None else m.group(2)
        e = 0
        if m.group(3):
            e = int(m.group(4)) if m.group(4) else 1
        if kpart is None or kpart.strip() in ("", "1"):
            k = KElement.one(q)
        else:
            k = parse_k(q, kpart.strip())
        k = out.get(e, KElement.zero(q)) + k
        out[e] = k
    return FElement(q, out)


def parse_sb(q, text, mu=Fraction(1)):
    """Literal syntax: "1*[1 + u^2*O] - 2*[u^-1 + u*O]"; "O" alone means
    the ring of integers, "u^k*O" the ideal pi^k O."""
    text = text.strip()
    if text in ("0", ""):
        return SBFunction.zero(q, mu)
    terms = []
    pat = re.compile(r"([+-])?\s*([^+\-\[\]]*)\[([^\]]*)\]")
    spans = list(pat.finditer(text))
    covered = "".join(m.group(0) for m in spans)
    if covered.replace(" ", "") != text.replace(" ", ""):
        raise ValueError("unparsable term in %r" % text)
    for m in spans:
        sign, head, bracket = m.groups()
        neg = sign == "-"
        head = head.rstrip("* ").strip()
        coeff = Fraction(head) if head else Fraction(1)
        if neg:
            coeff = -coeff
        parts = [s.strip() for s in bracket.split("+")]
        ideal_part = parts[-1]
        if not ideal_part.endswith("O"):
            raise ValueError("coset bracket must end with an ideal")
        ideal_part = ideal_part[:-1].rstrip("*").strip()
        if not ideal_part:
            level = 0
        elif ideal_part == "u":
            level = 1
        else:
            if not ideal_part.startswith("u^"):
                raise ValueError("bad ideal %r" % ideal_part)
            level = int(ideal_part[2:])
        rep_text = " + ".join(parts[:-1]) if len(parts) > 1 else "0"
        rep = parse_k(q, rep_text)
        terms.append((KCoset(q, rep, level), coeff))
    return SBFunction(q, terms, mu)


def char_point(q, point, coeff=1, mu=Fraction(1)):
    return SBFunction(q, [(KSingleton(q, point), coeff)], mu)


def lift_finite(h, r, q, mu=Fraction(1)):
    """The function on K vanishing off pi^r O with value h(residue) there:
    sum over digits c of h(c) Char(c pi^r + pi^(r+1) O).

    For an additive character psi of conductor 0 its star transform is a
    scaled Fourier transform plus a radial term,
        f* = q^(-r-1) f^ + q^(-2r-1) mu S(h) Char(pi^-r O),
    where S(h) is the sum of h(c) over c != 0; so f* = q^(-r-1) f^
    exactly when S(h) = 0."""
    terms = []
    for c in range(q):
        coeff = h.get(c, 0) if isinstance(h, dict) else h(c)
        terms.append((KCoset(q, KElement(q, {r: c}), r + 1), coeff))
    return SBFunction(q, terms, mu).normalize()


def from_fraction(q, num_coeffs, den_coeffs, x_exp=0):
    def mk(cs):
        return tuple(c if isinstance(c, CycRat) else CycRat.from_rational(c)
                     for c in cs)
    return ZetaValue(q, {x_exp: (mk(num_coeffs), mk(den_coeffs))})
