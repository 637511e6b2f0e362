"""Every check must be able to fail: mutants of the Schwartz layer.

Each mutant is a plausible one-line slip, made in process by compiling
one function from its own source with one statement or expression
replaced, and patched in by monkeypatch; no source file changes.  Each
must make a named fast check fail, either a `liftzeta verify` run at
small parameters or a named test function, and each check passes on the
program as it is.  This is mutation analysis in the sense of DeMillo,
Lipton and Sayward, "Hints on test data selection" (IEEE Computer, 1978).
"""

import inspect
import re
import textwrap

import pytest

import test_schwartz
from liftzeta import cli
from liftzeta.localfield import AdditiveCharacter
from liftzeta.schwartz import SBFunction


def mutant(func, old, new):
    """func compiled from its source with old replaced by new.  Runs of
    whitespace in old match any whitespace, and old must occur once."""
    src = textwrap.dedent(inspect.getsource(func))
    pattern = r"\s+".join(map(re.escape, old.split()))
    src, count = re.subn(pattern, new, src)
    assert count == 1, "mutation site %r not found once" % old
    namespace = {}
    exec(compile(src, "<mutant of %s>" % func.__qualname__, "exec"),
         func.__globals__, namespace)
    return namespace[func.__name__]


def verify(*argv):
    def check(tmp_path):
        return cli.main(["verify", *argv, "--out-dir", str(tmp_path)]) == 0
    return check


def named_test(cls, name):
    def check(tmp_path):
        try:
            getattr(cls(), name)()
        except AssertionError:
            return False
        return True
    return check


# check name -> callable(tmp_path) that is True when the check passes
CHECKS = {
    "verify-q2-double-star-level1": verify(
        "--q", "2", "--suite", "double-star", "--level", "1"),
    "verify-q2-schwartz-oracle-d1": verify(
        "--q", "2", "--suite", "schwartz-oracle", "--d", "1"),
    "test_schwartz-test_w_unit_coset": named_test(
        test_schwartz.TestWAndNabla, "test_w_unit_coset"),
}

# (mutant, owner, attribute, old, new, the check that kills it)
MUTANTS = [
    ("twist-digit-exponent-off-by-one", AdditiveCharacter, "twist_form",
     "k = self.d - 1", "k = self.d", "verify-q2-double-star-level1"),
    ("w-odd-shell-dropped", SBFunction, "w_operator",
     "out.append((KCoset(self.q, odd, atom.level + v + 1), None, coeff))",
     "pass", "test_schwartz-test_w_unit_coset"),
    ("nabla-rounds-down", SBFunction, "nabla_compose",
     "-(-m // 2)", "m // 2", "verify-q2-schwartz-oracle-d1"),
]


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_check_passes_unmutated(check, tmp_path):
    assert CHECKS[check](tmp_path)


@pytest.mark.parametrize(
    "owner,attr,old,new,check", [m[1:] for m in MUTANTS],
    ids=["%s-killed-by-%s" % (m[0], m[-1]) for m in MUTANTS])
def test_mutant_killed(owner, attr, old, new, check, monkeypatch, tmp_path):
    monkeypatch.setattr(owner, attr, mutant(getattr(owner, attr), old, new))
    assert not CHECKS[check](tmp_path)
