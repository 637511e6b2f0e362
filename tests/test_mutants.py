"""Every check must be able to fail: mutants of the Schwartz layer, of
the zeta integrals on K, of the shell decomposition of zeta2d, of exact
arithmetic, of the quasi-characters, of the set ring, of the
distinguished sets on F, of the real-place quadrature and of the verify
driver's one verdict path.

Each mutant is a plausible one-line slip, made in process by compiling
one function from its own source with one statement or expression
replaced, and patched in by monkeypatch wherever a liftzeta module or a
test module imported here binds that function, as a module-level name or
a value of a module-level dict, as an edit of its source file would be
(zeta2d integrates with `zeta` under its own name, `cli.SUITE_FUNCS`
holds the suites, and test_lift2d imports `measure_F` by name); no
source file changes.  Each must make a named fast check fail, either a
`liftzeta verify` run at small parameters or a named test function, and
each check passes on the program as it is.  A check that raises counts
as failed, and a hypothesis property run as a check under a mutant ends
at its first failing example (first_failure_ends).  Every cache of
every liftzeta module is emptied before and after each mutant
(`builders.clear_caches`), so that a mutant computes
its own cyclotomic polynomials, roots, unit powers, Haar scales, epsilon
test-function stars and quadrature nodes, is never hidden by values kept
before it was patched in, and leaves none behind.  A function keeps its
normal form, Haar integral and zeta key table on itself, not in a cache;
the only cache that holds functions is that of the epsilon test-function
stars, so emptying it drops their kept values too.
This is mutation analysis in the sense of DeMillo, Lipton and Sayward,
"Hints on test data selection" (IEEE Computer, 1978).
"""

import contextlib
import functools
import inspect
import re
import textwrap

import pytest
from hypothesis.errors import HypothesisException

import test_archfe
import test_cli
import test_exactnum
import test_lift2d
import test_localfield
import test_schwartz
import test_setring
import test_zeta1d
import test_zeta2d
from builders import clear_caches
from liftzeta import (
    archfe, cli, exactnum, lift2d, localfield, schwartz, setring, zeta1d,
    zeta2d,
)
from liftzeta.exactnum import CycRat, ZetaValue
from liftzeta.lift2d import DistinguishedFamily, DistinguishedSetF, FElement
from liftzeta.localfield import QuasiCharacter
from liftzeta.schwartz import SBFunction
from liftzeta.setring import DddSet


def mutant(func, old, new):
    """func compiled from its source with old replaced by new.  Runs of
    whitespace in old match any whitespace, and old must occur once."""
    src = textwrap.dedent(inspect.getsource(func))
    pattern = r"\s+".join(map(re.escape, old.split()))
    src, count = re.subn(pattern, new, src)
    assert count == 1, "mutation site %r not found once" % old
    namespace = {}
    exec(compile(src, "<mutant of %s>" % func.__qualname__, "exec"),
         inspect.unwrap(func).__globals__, namespace)
    return namespace[func.__name__]


MODULES = (archfe, cli, exactnum, lift2d, localfield, schwartz, setring,
           zeta1d, zeta2d, test_archfe, test_cli, test_exactnum, test_lift2d,
           test_localfield, test_schwartz, test_setring, test_zeta1d,
           test_zeta2d)


def verify(*argv):
    def check(tmp_path):
        try:
            return cli.main(["verify", *argv, "--out-dir", str(tmp_path)]) == 0
        except Exception:
            return False
    return check


class FirstFailure(BaseException):
    """The first failing example of a property under a mutant.  Hypothesis
    takes an Exception, an exit or pytest's Failed for a test failure, and
    this is none of them, so it leaves the run at once, before the shrink
    and explain phases."""


@contextlib.contextmanager
def first_failure_ends(test):
    """For the time of the block, run the hypothesis property test with
    only its explicit, reuse and generate phases, whatever its settings:
    its first failing example raises FirstFailure.  A mutant check needs
    the verdict that some example failed, not a shrunk and explained
    counterexample.  Hypothesis calls the inner test that the public
    attribute test.hypothesis.inner_test names when the property runs, so
    the block puts a wrapper there and restores the test after it.  Its
    max_examples, strategies and examples are unchanged, and so is a run
    outside the block.  A plain test runs as it is."""
    hyp = getattr(test, "hypothesis", None)
    if hyp is None:
        yield
        return
    inner = hyp.inner_test

    @functools.wraps(inner)
    def stop_at_failure(*args, **kwargs):
        try:
            return inner(*args, **kwargs)
        except HypothesisException:
            # assume() and the engine's own signals
            raise
        except (Exception, pytest.fail.Exception) as err:
            raise FirstFailure from err
    hyp.inner_test = stop_at_failure
    try:
        yield
    finally:
        hyp.inner_test = inner


def named_test(cls, name, **params):
    def check(tmp_path):
        try:
            obj = cls()
            if hasattr(obj, "setup_method"):
                obj.setup_method()
            getattr(obj, name)(**params)
        except (Exception, pytest.fail.Exception, FirstFailure):
            # pytest.raises reports a missing raise as pytest's Failed,
            # which is no Exception
            return False
        return True
    check.test = getattr(cls, name)
    return check


# check name -> callable(tmp_path) that is True when the check passes
CHECKS = {
    "verify-q2-double-star-level1": verify(
        "--q", "2", "--suite", "double-star", "--level", "1"),
    "verify-q2-double-star-d1": verify(
        "--q", "2", "--d", "1", "--suite", "double-star"),
    "verify-q2-schwartz-oracle-d1": verify(
        "--q", "2", "--suite", "schwartz-oracle", "--d", "1"),
    "test_schwartz-test_w_unit_coset": named_test(
        test_schwartz.TestWAndNabla, "test_w_unit_coset"),
    "test_schwartz-test_linear_maps_pointwise": named_test(
        test_schwartz.TestKeyMaps, "test_linear_maps_pointwise"),
    "test_schwartz-test_w_nabla_star_match_untruncated-d8": named_test(
        test_schwartz.TestTruncatedPowers,
        "test_w_nabla_star_match_untruncated", d=8, pi_text="u + u^2"),
    "test_schwartz-test_cached_constants_match_fresh_ones": named_test(
        test_schwartz.TestCachedConstants,
        "test_cached_constants_match_fresh_ones"),
    "verify-q2-zeta1d-epsilon": verify(
        "--q", "2", "--suite", "zeta1d-epsilon"),
    "verify-q2-zeta1d-epsilon-rmax2": verify(
        "--q", "2", "--suite", "zeta1d-epsilon", "--rmax", "2"),
    "verify-q2-zeta1d-epsilon-rmax3": verify(
        "--q", "2", "--suite", "zeta1d-epsilon", "--rmax", "3"),
    "verify-q2-identity-A-d1": verify(
        "--q", "2", "--suite", "identity-A", "--d", "1"),
    "verify-q2-measure": verify("--q", "2", "--suite", "measure"),
    "verify-q2-FE2": verify("--q", "2", "--suite", "FE2"),
    "verify-q2-rho2": verify("--q", "2", "--suite", "rho2"),
    "verify-q2-archfe": verify("--q", "2", "--suite", "archfe"),
    "test_archfe-test_quadrature_edges": named_test(
        test_archfe.TestZeta, "test_quadrature_edges"),
    "test_archfe-test_quadratures_match_the_reference_bit_for_bit":
        named_test(test_archfe.TestNodeTable,
                   "test_quadratures_match_the_reference_bit_for_bit"),
    "test_archfe-test_agrees_with_the_full_window_rule": named_test(
        test_archfe.TestNodeTable, "test_agrees_with_the_full_window_rule"),
    "test_exactnum-test_values_with_one_trace_compare_unequal": named_test(
        test_exactnum.TestCycRat, "test_values_with_one_trace_compare_unequal"),
    "test_exactnum-test_sqrt_q_lies_in_the_field": named_test(
        test_exactnum.TestCycRat, "test_sqrt_q_lies_in_the_field"),
    "test_exactnum-test_inverse": named_test(
        test_exactnum.TestCycRat, "test_inverse"),
    "test_exactnum-test_galois_is_a_field_automorphism": named_test(
        test_exactnum.TestCycRat, "test_galois_is_a_field_automorphism"),
    "test_exactnum-test_add": named_test(
        test_exactnum.TestZetaValue, "test_add"),
    "test_exactnum-test_inverse_cancellation": named_test(
        test_exactnum.TestZetaValue, "test_inverse_cancellation"),
    "test_exactnum-test_exponential_type": named_test(
        test_exactnum.TestZetaValue, "test_exponential_type"),
    "test_localfield-test_inverse": named_test(
        test_localfield.TestQuasiCharacter, "test_inverse"),
    "test_localfield-test_exact_conductors": named_test(
        test_localfield.TestQuasiCharacter, "test_exact_conductors"),
    "test_localfield-test_membership_by_digits": named_test(
        test_localfield.TestKCoset, "test_membership_by_digits"),
    "test_exactnum-test_arithmetic_keeps_every_fraction_settled": named_test(
        test_exactnum.TestSettledForm,
        "test_arithmetic_keeps_every_fraction_settled"),
    "test_lift2d-test_additivity_and_membership_on_random_pairs": named_test(
        test_lift2d.TestDistinguishedSets,
        "test_additivity_and_membership_on_random_pairs"),
    "test_lift2d-test_same_level_relations_match_membership": named_test(
        test_lift2d.TestDistinguishedSets,
        "test_same_level_relations_match_membership"),
    "test_lift2d-test_coset_counts_match_the_measure_oracle": named_test(
        test_lift2d.TestDistinguishedSets,
        "test_coset_counts_match_the_measure_oracle"),
    "test_lift2d-test_relation_is_mirrored": named_test(
        test_lift2d.TestDistinguishedSets, "test_relation_is_mirrored"),
    "test_lift2d-test_complement_inside_measure_zero_ideal": named_test(
        test_lift2d.TestDistinguishedSets,
        "test_complement_inside_measure_zero_ideal"),
    "test_lift2d-test_random_expression_membership": named_test(
        test_lift2d.TestDistinguishedSets,
        "test_random_expression_membership"),
    "test_lift2d-test_overlap_meet_at_the_base_of_A": named_test(
        test_lift2d.TestDistinguishedSets,
        "test_overlap_meet_at_the_base_of_A"),
    "test_lift2d-test_canonical_base_point_keeps_the_set": named_test(
        test_lift2d.TestDistinguishedSets,
        "test_canonical_base_point_keeps_the_set"),
    "test_lift2d-test_measure_matches_the_per_atom_sum": named_test(
        test_lift2d.TestDistinguishedSets,
        "test_measure_matches_the_per_atom_sum"),
    "test_lift2d-test_integrate_matches_the_per_term_sum": named_test(
        test_lift2d.TestIntegral, "test_integrate_matches_the_per_term_sum",
        q=3, d=0),
    "test_exactnum-test_division_by_a_constant": named_test(
        test_exactnum.TestModularImage, "test_division_by_a_constant"),
    "test_zeta1d-test_closed_form_over_d_mu_and_pi_with_stars_kept":
        named_test(test_zeta1d.TestEpsilonStar,
                   "test_closed_form_over_d_mu_and_pi_with_stars_kept"),
    "test_zeta2d-test_direct_path_agrees": named_test(
        test_zeta2d.TestZeta2, "test_direct_path_agrees"),
    "test_zeta2d-test_identity_on_examples": named_test(
        test_zeta2d.TestZetaRho2, "test_identity_on_examples"),
    "test_zeta2d-test_product_of_the_one_variable_factors_at_mu": named_test(
        test_zeta2d.TestEpsilon2,
        "test_product_of_the_one_variable_factors_at_mu"),
    "test_exactnum-test_value_has_the_image_of_its_tree": named_test(
        test_exactnum.TestModularImage, "test_value_has_the_image_of_its_tree"),
    "test_exactnum-test_ring_laws_agree_with_images": named_test(
        test_exactnum.TestModularImage, "test_ring_laws_agree_with_images"),
    "test_setring-test_three_atoms_keep_the_one_apart": named_test(
        test_setring.TestRefineDisjoint, "test_three_atoms_keep_the_one_apart"),
    "test_cli-test_raising_suite_becomes_an_error_row": named_test(
        test_cli.TestVerify, "test_raising_suite_becomes_an_error_row"),
}

# (mutant, owner, attribute, old, new, the check that kills it)
MUTANTS = [
    # a star keeps its twists stored, and FE2 expands them in normalize
    ("twist-digit-exponent-off-by-one", schwartz, "_twist_pairs",
     "k = d - 1", "k = d", "verify-q2-FE2"),
    # W reaches a coset of valuation v from the shells 2v and 2v + 1
    ("w-odd-shell-dropped", SBFunction, "_shell_map",
     "range(first(v), first(v + 1))", "range(first(v), first(v + 1) - 1)",
     "test_schwartz-test_w_unit_coset"),
    ("twist-level-from-atom-only", schwartz, "_twist_pairs",
     "lev = max(level, d - min(b))", "lev = level", "verify-q2-FE2"),
    # the second star's W splits the twisted ideals of f*
    ("ideal-tail-one-shell-early", SBFunction, "_shell_map",
     "top = first(v + len(tw))", "top = first(v + len(tw)) - 1",
     "verify-q2-double-star-level1"),
    # a coset pulled back by pi^power(s) where pi^-power(s) belongs; at
    # q = 2 and pi = u the unit U is 1, so only another pi shows it
    ("shell-coset-moved-the-wrong-way", SBFunction, "_shell_map",
     "tw, -power(s))", "tw, power(s))",
     "test_schwartz-test_w_nabla_star_match_untruncated-d8"),
    # the digits of U^k kept by unit and k alone, so a map that asks
    # more digits than an earlier one reads too few
    ("unit-powers-kept-without-prec", schwartz, "_unit_power",
     "@lru_cache(maxsize=4096)",
     "@lambda build, kept={}: lambda q, unit, k, prec:"
     " kept.get((q, unit, k)) or kept.setdefault((q, unit, k),"
     " build(q, unit, k, prec))",
     "test_schwartz-test_cached_constants_match_fresh_ones"),
    # the pi = u shortcut, a unchanged, taken for every unit
    ("unit-shortcut-for-every-unit", schwartz, "_times_unit_powers",
     "if unit == ((0, 1),):", "if True:",
     "test_schwartz-test_w_nabla_star_match_untruncated-d8"),
    # the W of a second star reads the nabla of the first only at even
    # valuations; a coset of odd valuation taken as read
    ("w-after-nabla-reaches-odd-valuations", SBFunction, "_w_after_nabla",
     "n + n % 2", "n", "verify-q2-double-star-d1"),
    # an odd shell moved out by pi, not in
    ("w-after-nabla-moves-the-wrong-way", SBFunction, "_w_after_nabla",
     "-(s % 2)", "s % 2", "verify-q2-double-star-d1"),
    ("nabla-rounds-down", SBFunction, "nabla_compose",
     "-(-n // 2)", "n // 2", "verify-q2-schwartz-oracle-d1"),
    ("translate-adds-tau", SBFunction, "translate",
     "(x - tau.digit(e)) % q", "(x + tau.digit(e)) % q",
     "test_schwartz-test_linear_maps_pointwise"),
    # A where A^-1 belongs, for alpha = u^w A
    ("dilate-by-the-unit", SBFunction, "dilate",
     "_moved(q, times, k, tw, -1)", "_moved(q, times, k, tw, 1)",
     "test_schwartz-test_linear_maps_pointwise"),
    ("add-drops-the-rebase-prefix", SBFunction, "__add__",
     "((0,) * (f._base - base) + k, tw, c)", "(k, tw, c)",
     "test_schwartz-test_linear_maps_pointwise"),
    ("double-star-composition-sign-of-d1", zeta1d, "double_star_invariance",
     "-d1 - d2 - 1", "d1 - d2 - 1", "verify-q2-double-star-d1"),
    ("eq-compares-trace-only", CycRat, "__eq__",
     "return x.d == y.d and x.n == y.n",
     "return sum(c * t for c, t in zip(x.n, _traces(x.m))) * y.d"
     " == sum(c * t for c, t in zip(y.n, _traces(x.m))) * x.d",
     "test_exactnum-test_values_with_one_trace_compare_unequal"),
    ("sqrt-negative-root-q3mod4", exactnum, "_sqrt_prime",
     "else -CycRat.root_of_unity(4) * g", "else CycRat.root_of_unity(4) * g",
     "test_exactnum-test_sqrt_q_lies_in_the_field"),
    ("fe2-starred-factors-at-omega-not-its-inverse", cli, "suite_fe2",
     "zeta1d.z_normalized(fs, inv)", "zeta1d.z_normalized(fs, om)",
     "verify-q2-FE2"),
    ("bool-always-true", CycRat, "__bool__", "return any(self.n)",
     "return True", "verify-q2-FE2"),
    ("geometric-start-off-by-one", ZetaValue, "geometric",
     "num = (z,) * start + (lead,)", "num = (z,) * (start + 1) + (lead,)",
     "verify-q2-zeta1d-epsilon"),
    ("delta-parity-always-1", zeta1d, "_delta_parity",
     "return Fraction(1) if k % 2 == 0 else Fraction(1, q)",
     "return Fraction(1)", "verify-q2-identity-A-d1"),
    # epsilon_star's test-function stars kept by the conductor alone, so
    # a later d, mu or pi reads the stars of an earlier one
    ("test-stars-kept-by-conductor-alone", zeta1d, "_test_stars",
     "@lru_cache(maxsize=None)",
     "@lambda build, kept={}: lambda q, r, *rest: kept.get((q, r))"
     " or kept.setdefault((q, r), build(q, r, *rest))",
     "test_zeta1d-test_closed_form_over_d_mu_and_pi_with_stars_kept"),
    ("test-stars-starred-at-u-not-pi", zeta1d, "_test_stars",
     "g.star(psi, pi)", "g.star(psi, KElement.uniformizer(q))",
     "test_zeta1d-test_closed_form_over_d_mu_and_pi_with_stars_kept"),
    ("rho0-shift-off-by-one", zeta1d, "rho0",
     "pi.power_mod(d - r, d)", "pi.power_mod(d - r + 1, d)",
     "verify-q2-zeta1d-epsilon-rmax2"),
    # a key with more unit digits than the conductor read at its last r
    ("zeta-unit-key-from-the-end", zeta1d, "zeta", "units[:r]",
     "units[len(units) - r:]", "test_zeta2d-test_direct_path_agrees"),
    # a key with exactly r unit digits taken for one that vanishes
    ("zeta-skips-keys-at-the-conductor", zeta1d, "zeta",
     "len(units) >= least", "len(units) > least",
     "verify-q2-zeta1d-epsilon-rmax2"),
    # a rational coefficient of a normal form rebuilt at order 1 from its
    # numerator alone
    ("order-one-rebuild-drops-the-denominator", schwartz, "_normal_form",
     "_cyc(1, c.n[:1], c.d)", "_cyc(1, c.n[:1])",
     "verify-q2-identity-A-d1"),
    # every constant divisor, not only 1, taken to leave the dividend as
    # it is
    ("divide-by-any-constant-skipped", ZetaValue, "__truediv__",
     "o._fr == _ONE_FR",
     "o._fr.keys() == {0} and len(o._fr[0][0]) == len(o._fr[0][1]) == 1",
     "test_exactnum-test_division_by_a_constant"),
    # at q = 2 and conductor <= 2 the steps L/n and L/q of gauss_sum are
    # equal; a character of conductor 3 has n = 4
    ("gauss-scales-t-by-the-character-step", localfield, "gauss_sum",
     "t * b", "t * a", "verify-q2-zeta1d-epsilon-rmax3"),
    ("shell-tail-one-shell-late", zeta2d, "_shell_zeta",
     "omega.pi_value, hi)", "omega.pi_value, hi + 1)", "verify-q2-rho2"),
    # the window opens at the shallowest level, not the least valuation
    ("shell-window-opens-at-the-level", zeta2d, "_shell_zeta",
     "lo = min(lo, atom.valuation())", "lo = min(lo, atom.level)",
     "test_zeta2d-test_direct_path_agrees"),
    # every rho2 input of level at most 1 hides the window's end
    ("shell-window-one-level-short", zeta2d, "_shell_zeta",
     "hi = max(hi, atom.level)", "hi = max(hi, atom.level - 1)",
     "test_zeta2d-test_identity_on_examples"),
    # verify-q2-FE2 runs at mu = 1, where the slip does not show
    ("epsilon2-second-factor-at-unit-measure", zeta2d, "epsilon2",
     "epsilon_star(omega2, psi, pi, mu)", "epsilon_star(omega2, psi, pi)",
     "test_zeta2d-test_product_of_the_one_variable_factors_at_mu"),
    # every element fixed, so sigma_-1 z is z, not 1/z
    ("galois-ignores-k", CycRat, "galois", "k % self.m", "1",
     "test_exactnum-test_galois_is_a_field_automorphism"),
    # x^phi(m) taken as plus the lower terms of Phi_m
    ("xpow-row-adds-the-top", exactnum, "_xpow_terms",
     "out[i] -= top * phi[i]", "out[i] += top * phi[i]",
     "test_exactnum-test_inverse"),
    ("ptrim-keeps-a-last-zero", exactnum, "_ptrim",
     "while n and not p[n - 1]:", "while n > 1 and not p[n - 1]:",
     "test_exactnum-test_inverse"),
    ("padd-drops-the-longer-tail", exactnum, "_padd",
     "if len(p) < len(q):", "if len(p) > len(q):",
     "test_exactnum-test_exponential_type"),
    ("pmul-overwrites-instead-of-adding", exactnum, "_pmul",
     "out[i + j] += a * b", "out[i + j] = a * b", "verify-q2-FE2"),
    ("pdivmod-adds-the-multiple", exactnum, "_pdivmod",
     "r[k + i] -= c * d[i]", "r[k + i] += c * d[i]",
     "test_exactnum-test_inverse"),
    ("add-keeps-a-cancelled-exponent", ZetaValue, "__add__",
     "for g, f in out.items() if f[0]}", "for g, f in out.items()}",
     "test_exactnum-test_add"),
    ("fadd-adds-over-denominators-of-one-length", exactnum, "_fadd",
     "if d1 == d2:", "if len(d1) == len(d2):",
     "test_exactnum-test_value_has_the_image_of_its_tree"),
    ("zeta-inverse-keeps-num-over-den", ZetaValue, "inverse",
     "{-g: (d, n)}", "{-g: (n, d)}",
     "test_exactnum-test_inverse_cancellation"),
    # a product whose terms meet at one X exponent and cancel there
    ("merged-product-left-unsettled", ZetaValue, "__mul__",
     "out[g] = _fadd(out[g], f) loose.add(g)", "out[g] = _fadd(out[g], f)",
     "test_exactnum-test_arithmetic_keeps_every_fraction_settled"),
    ("eq-cross-multiplies-the-wrong-way", ZetaValue, "__eq__",
     "_pmul(n1, d2, z) == _pmul(n2, d1, z)",
     "_pmul(n1, d1, z) == _pmul(n2, d2, z)",
     "test_exactnum-test_ring_laws_agree_with_images"),
    # the digit at the level read too, which a canonical representative
    # never has
    ("contains-reads-the-level-digit", localfield, "_digits_below",
     "if e < n", "if e <= n", "test_localfield-test_membership_by_digits"),
    ("character-inverse-keeps-exponents", QuasiCharacter, "inverse",
     "-k % self.n", "k", "test_localfield-test_inverse"),
    ("conductor-search-skips-0", localfield, "_at_conductor",
     "range(r + 1)", "range(1, r + 1)",
     "test_localfield-test_exact_conductors"),
    ("lower-level-always-contains", DistinguishedFamily, "relation",
     '("contains" if lo is A else "in")', '"contains"',
     "test_lift2d-test_relation_is_mirrored"),
    ("residue-in-read-from-m2", DistinguishedFamily, "_s_relation",
     "m == m1:", "m == m2:",
     "test_lift2d-test_same_level_relations_match_membership"),
    ("coset-count-drops-inner-pairs", lift2d, "_meet_count",
     "+ sum(n(a, b) for a in I1 for b in I2)", "",
     "test_lift2d-test_coset_counts_match_the_measure_oracle"),
    # the residue set moved by -c to the canonical base point; at q = 2
    # -c is c
    ("same-level-shift-read-backwards", DistinguishedSetF, "__init__",
     "_s_translate(q, S, c)", "_s_translate(q, S, -c)",
     "test_lift2d-test_canonical_base_point_keeps_the_set"),
    # the base point cut above the level keeps its t^gamma coefficient,
    # which the residue set has taken up as well
    ("truncate-keeps-the-level-coefficient", FElement, "truncate_t",
     "if e < n", "if e <= n",
     "test_lift2d-test_canonical_base_point_keeps_the_set"),
    # each residue count taken at its own depth, not at the deeper of
    # the two
    ("residue-size-not-rescaled-to-L", DistinguishedFamily, "_s_relation",
     "n1 * self.q ** (L - L1)", "n1",
     "test_lift2d-test_coset_counts_match_the_measure_oracle"),
    # the measure mu q^-L of a level-L coset taken as mu q^L
    ("measure-scaled-by-q-to-the-plus-L", lift2d, "measure_F",
     "mu.numerator * q ** max(-L, 0)", "mu.numerator * q ** max(L, 0)",
     "verify-q2-measure"),
    # the overlap handed on as the join
    ("overlap-meet-is-the-join", DistinguishedFamily, "_s_relation",
     '"overlap", S1.intersection(S2)', '"overlap", S1.union(S2)',
     "test_lift2d-test_overlap_meet_at_the_base_of_A"),
    ("bases-compared-at-the-level-of-A", DistinguishedFamily, "relation",
     "g = lo.gamma", "g = A.gamma", "test_lift2d-test_relation_is_mirrored"),
    # the higher base point's t^g coefficient lies in the lower set's
    # residue set, not in its base point
    ("base-points-compared-through-g", DistinguishedFamily, "relation",
     "if e < g", "if e <= g",
     "test_lift2d-test_random_expression_membership"),
    # only the lower base point's coefficients looked up in the higher
    # one, so an extra coefficient of the higher one below g goes unseen
    ("base-points-compared-one-sided", DistinguishedFamily, "relation",
     "{e: k for e, k in hi.a.coeffs.items() if e < g} != lo.a.coeffs",
     "not all(hi.a.coeffs.get(e) == k for e, k in lo.a.coeffs.items())",
     "test_lift2d-test_relation_is_mirrored"),
    # each count taken at its own depth, not at the deepest
    ("residue-count-not-rescaled-to-L", lift2d, "measure_F",
     "n * q ** (L - LA)", "n",
     "test_lift2d-test_measure_matches_the_per_atom_sum"),
    # an untwisted term's K integral added one power of X too high;
    # translation and scaling move both sides of an invariance row alike
    ("untwisted-integral-one-X-too-high", lift2d.LiftedFn, "integrate",
     "c = g.haar_integral()", "c, gamma = g.haar_integral(), gamma + 1",
     "test_lift2d-test_integrate_matches_the_per_term_sum"),
    ("null-ideal-one-level-too-deep", DistinguishedSetF, "null_ideal",
     "gamma - 1,", "gamma,",
     "test_lift2d-test_complement_inside_measure_zero_ideal"),
    ("ddd-contains-ignores-inners", DddSet, "contains",
     "and not any(a.contains(x) for a in inners)", "",
     "test_lift2d-test_random_expression_membership"),
    ("refine-moves-the-second-atom", setring, "refine_disjoint",
     "out[j] = out[-1]", "out[j] = out[1]",
     "test_setring-test_three_atoms_keep_the_one_apart"),
    ("inner-of-other-inside-taken-as-the-outer", DddSet,
     "_component_minus_component", 'if kind in ("equal", "in"):',
     'if kind in ("equal", "in", "contains"):',
     "test_lift2d-test_coset_counts_match_the_measure_oracle"),
    ("inner-containing-the-meet-does-not-cover-it", DddSet,
     "_component_minus_component", 'if kind in ("equal", "contains"):',
     'if kind == "equal":',
     "test_lift2d-test_coset_counts_match_the_measure_oracle"),
    ("exp-sinh-without-jacobian-cosh", archfe, "_node",
     "math.cosh(t)", "1.0", "verify-q2-archfe"),
    # the nodes of a finer level land on those of the coarser ones
    ("quad-nodes-at-even-multiples", archfe, "_nodes",
     "range(1, round(10 / h), 2)", "range(2, round(10 / h), 2)",
     "test_archfe-test_quadratures_match_the_reference_bit_for_bit"),
    ("quad-error-without-end-terms", archfe, "_complex_quad",
     "diff + abs(end_lo) + abs(end_hi) + dropped", "diff + dropped",
     "test_archfe-test_quadrature_edges"),
    # finer levels skip terms that still count
    ("quad-window-cut-at-1e-3", archfe, "_complex_quad",
     "cut = 1e-20 *", "cut = 1e-3 *",
     "test_archfe-test_agrees_with_the_full_window_rule"),
    # the first level has no earlier difference to shrink from
    ("quad-early-stop-without-shrinking-guard", archfe, "_complex_quad",
     "if diff < prev and diff * diff / prev <= bound:",
     "if diff * diff / prev <= bound:",
     "test_archfe-test_agrees_with_the_full_window_rule"),
    ("row-passes-everything", cli, "_row",
     '"pass": expected == got', '"pass": True',
     "test_cli-test_raising_suite_becomes_an_error_row"),
    ("suite-error-escapes", cli, "cmd_verify",
     "except Exception", "except ArithmeticError",
     "test_cli-test_raising_suite_becomes_an_error_row"),
]


def test_clear_caches_empties_the_quadrature_node_table():
    archfe.zeta_numeric(archfe.gaussian_nabla, 1, 2)
    assert archfe._nodes.cache_info().currsize
    clear_caches()
    assert not archfe._nodes.cache_info().currsize


def test_clear_caches_drops_the_key_tables_of_kept_stars(monkeypatch):
    # the stars that epsilon_star keeps carry the key tables that zeta
    # built on their normal forms; emptying the caches drops the stars
    # and their tables, so a mutant of the table builder shows on a
    # fresh call, where the kept tables hide it
    q = 3
    omega = next(w for w in localfield.enumerate_characters(q, 1)
                 if w.r == 1)
    psi = localfield.AdditiveCharacter(q, 0)
    u = localfield.KElement.uniformizer(q)
    clear_caches()
    try:
        want = zeta1d.epsilon_star(omega, psi, u)
        with monkeypatch.context() as patch:
            patch.setattr(zeta1d, "_key_table", mutant(
                zeta1d._key_table, "key[j:]", "key[j + 1:]"))
            assert zeta1d.epsilon_star(omega, psi, u) == want
            clear_caches()
            try:
                got = zeta1d.epsilon_star(omega, psi, u)
            except ArithmeticError:
                got = None
            assert got != want
        clear_caches()
        assert zeta1d.epsilon_star(omega, psi, u) == want
    finally:
        clear_caches()


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_check_passes_unmutated(check, tmp_path):
    assert CHECKS[check](tmp_path)


@pytest.mark.parametrize(
    "owner,attr,old,new,check", [m[1:] for m in MUTANTS],
    ids=["%s-killed-by-%s" % (m[0], m[-1]) for m in MUTANTS])
def test_mutant_killed(owner, attr, old, new, check, monkeypatch, tmp_path):
    try:
        with monkeypatch.context() as patch:
            real = getattr(owner, attr)
            fake = mutant(real, old, new)
            patch.setattr(owner, attr, fake)
            for module in MODULES:
                for name, value in list(vars(module).items()):
                    if value is real:
                        patch.setattr(module, name, fake)
                    elif type(value) is dict:
                        for key in [k for k, v in value.items()
                                    if v is real]:
                            patch.setitem(value, key, fake)
            clear_caches()
            with first_failure_ends(getattr(CHECKS[check], "test", None)):
                passed = CHECKS[check](tmp_path)
    finally:
        clear_caches()
    assert not passed
