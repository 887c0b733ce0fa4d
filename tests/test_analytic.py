"""Floating-point lane: fractional exponentials, tails, and the eps bijection.

Oracles
-------
* ``cmath.exp`` for the alpha = 1 series.
* ``scipy.special.erfc`` / ``erfcx`` / ``dawsn`` / ``wofz`` for the
  alpha = 1/2 family (completely independent implementations).
* ``mpmath`` at 50 digits for roots of eps and for exp(z^2) erfc(-z)
  beyond the double range of z^-n.
* Exact ``Fraction`` partial sums with certified geometric tail bounds for
  eps at negative arguments (the terms are positive and eventually decay
  faster than any geometric ratio, so a stdlib-only enclosure exists).

Every two-route comparison budgets the *sum* of both routes' reported
errors: each side is a double-precision computation with its own honestly
reported uncertainty, and on the imaginary axis the asymptotic terms share
a sign, so the classical first-omitted bound alone would be a lie by a few
ulps.
"""

import cmath
import csv
import hashlib
import io
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
import scipy.special as sp
from hypothesis import given, strategies as st

from qgenus import analytic
from qgenus.analytic import (
    FloatEval,
    asymptotic_tail,
    epsilon_inverse,
    epsilon_law,
    epsilon_num,
    epsilon_rows,
    infinity_law,
    ml_asymptotic,
    ml_exp,
    psi,
    psi_hom_check,
    sin_half,
    write_epsilon_csv,
)
from qgenus.errors import DomainError

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# ml_exp, alpha = 1: plain exponential
# ---------------------------------------------------------------------------

class TestOrdinaryExponential:
    def test_matches_cmath_on_disk(self):
        for r in (0.0, 0.3, 1.0, 2.5, 5.0):
            for k in range(12):
                z = r * cmath.exp(1j * k * math.pi / 6)
                got = ml_exp(1, z)
                assert abs(got.value - cmath.exp(z)) <= 1e-12
                assert got.method == "series"

    def test_real_argument_returns_real(self):
        got = ml_exp(1, -3.0)
        assert isinstance(got.value, float)
        assert abs(got.value - math.exp(-3.0)) <= 1e-14

    def test_radius_guard(self):
        with pytest.raises(DomainError):
            ml_exp(1, 35.0)


# ---------------------------------------------------------------------------
# ml_exp, alpha = 1/2: series window, real line, imaginary axis
# ---------------------------------------------------------------------------

class TestHalfExponential:
    def test_at_zero(self):
        got = ml_exp(0.5, 0)
        assert got.value == 1.0
        assert got.error == 0.0

    def test_series_window_against_erfc_identity(self):
        # exp_{1/2}(x) = e^{x^2} erfc(-x); the points live inside the pure
        # series window so the lane under test is the series, not the
        # identity shortcut.
        for i in range(81):
            x = -2.0 + 4.0 * i / 80
            got = ml_exp(0.5, x)
            assert got.method == "series"
            ref = math.exp(x * x) * sp.erfc(-x)
            assert abs(got.value - ref) <= 1e-10

    def test_real_line_beyond_series_window(self):
        for x in (-8.0, 5.0, 10.0, 24.0):
            got = ml_exp(0.5, x)
            ref = math.exp(x * x) * sp.erfc(-x)
            assert abs(got.value - ref) <= 1e-12 * abs(ref) + 1e-300

    def test_deep_negative_real_delegates_to_tail(self):
        # e^{x^2} overflows doubles, but e^{x^2} erfc(-x) = erfcx(-x).
        for x in (-30.0, -100.0):
            got = ml_exp(0.5, x)
            ref = sp.erfcx(-x)
            assert abs(got.value - ref) <= 1e-12 * ref

    def test_imaginary_axis_is_faddeeva(self):
        # exp_{1/2}(iy) = e^{-y^2} + i (2/sqrt(pi)) F(y) = w(y), the
        # Faddeeva function of a real argument.
        for y in (0.5, 3.0, 10.0, 20.0, -4.0):
            got = ml_exp(0.5, 1j * y)
            ref = complex(sp.wofz(y))
            # |z| = 3 still rides the series lane, whose cancellation is
            # honestly reported in got.error; the identity lane is ~1 ulp.
            assert abs(got.value - ref) <= got.error + 1e-12 * abs(ref)

    def test_overflow_guard_positive_real(self):
        with pytest.raises(OverflowError):
            ml_exp(0.5, 40.0)

    def test_off_axis_complex_outside_series_window_rejected(self):
        with pytest.raises(DomainError):
            ml_exp(0.5, 3.0 + 4.0j)

    def test_alpha_domain(self):
        for a in (0, 2, 2.5, -1):
            with pytest.raises(DomainError):
                ml_exp(a, 1.0)

    def test_generic_alpha_small_argument_series(self):
        # alpha = 3/4 at small z: compare against a direct naive partial sum.
        z = 0.7 + 0.2j
        naive = sum(z ** n / math.gamma(1 + 0.75 * n) for n in range(80))
        got = ml_exp(0.75, z)
        assert abs(got.value - naive) <= 1e-13


# ---------------------------------------------------------------------------
# the divergent tail and its sector
# ---------------------------------------------------------------------------

class TestAsymptoticTail:
    def test_single_term_is_leading_coefficient(self):
        for z in (-8.0, 10j, -3.0 + 4.0j):
            got = asymptotic_tail(z, 0)
            lead = -1.0 / (SQRT_PI * complex(z))
            assert abs(complex(got.value) - lead) <= 1e-16 * abs(lead)
            assert got.terms == 1

    def test_imaginary_axis_agreement(self):
        # On the imaginary axis the identity route is exact Faddeeva; the
        # tail must agree within the two reported uncertainties for every
        # truncation depth.
        ref = ml_exp(0.5, 10j)
        for n in (None, 4, 5, 6, 10):
            tail = asymptotic_tail(10j, n)
            assert abs(tail.value - ref.value) <= tail.error + ref.error

    def test_negative_real_agreement(self):
        ref = ml_exp(0.5, -8.0)
        for n in (None, 3, 5, 8):
            tail = asymptotic_tail(-8.0, n)
            assert abs(tail.value - ref.value) <= tail.error + ref.error

    def test_error_shrinks_then_grows_with_depth(self):
        # |z| = 3 puts the minimal term near n = 9, inside the scan.
        errs = [asymptotic_tail(-3.0, n).error for n in range(0, 24, 2)]
        best = min(range(len(errs)), key=errs.__getitem__)
        assert 0 < best < len(errs) - 1   # optimal truncation is interior

    def test_real_output_for_real_input(self):
        assert isinstance(asymptotic_tail(-8.0).value, float)

    def test_sector_exclusion(self):
        for z in (8.0, 8.0 * cmath.exp(0.2j), 8.0 * cmath.exp(-0.5j), 0.0):
            with pytest.raises(DomainError):
                asymptotic_tail(z)

    def test_sector_admission_just_outside_guard(self):
        z = 8.0 * cmath.exp(1j * (math.pi / 4 + 0.2))
        assert asymptotic_tail(z).terms > 1

    def test_forced_tail_past_the_double_range_is_a_domain_error(self):
        # at 10i term 722 overflows the doubles; 721 terms still sum
        got = asymptotic_tail(10j, 721)
        assert cmath.isfinite(got.value) and math.isfinite(got.error)
        for n in (722, 5000):
            with pytest.raises(DomainError, match="double range"):
                asymptotic_tail(10j, n)


class TestGenericAlphaTail:
    def test_alpha_one_tail_vanishes(self):
        got = ml_asymptotic(1, -10.0)
        assert got.value == 0.0
        assert got.error == 0.0

    def test_half_alpha_duplicates_dedicated_tail(self):
        # Every even-index term hits a Gamma pole and drops; the survivors
        # reproduce the dedicated tail term-for-term.
        for z in (10j, -8.0):
            a = ml_asymptotic(Fraction(1, 2), z)
            b = asymptotic_tail(z)
            assert abs(complex(a.value) - complex(b.value)) <= 1e-14

    @pytest.mark.parametrize("alpha", [Fraction(1, 3), Fraction(2, 3),
                                       Fraction(4, 3)], ids=str)
    def test_pole_detection_is_exact(self, alpha):
        # poles where alpha*n - 1 is a non-negative integer, only there
        got = ml_asymptotic(alpha, -12.0, 9)
        naive = 0.0
        for n in range(1, 10):
            e = 1 - alpha * n
            if e.denominator == 1 and e <= 0:
                continue
            naive += -((-12.0) ** -n) / math.gamma(float(e))
        assert abs(got.value - naive) <= 1e-15

    def test_sector_scales_with_alpha(self):
        # Half-width 3*pi/4 + guard swallows the imaginary axis.
        with pytest.raises(DomainError):
            ml_asymptotic(Fraction(3, 2), 10j)

    @pytest.mark.parametrize("y", [12.2, -12.5, 13.0, -15.0, 18.5, 21.0,
                                   -24.0, 25.0])
    def test_half_alpha_beyond_power_underflow(self, y):
        # optimal truncation needs about 2 y^2 terms, past where z^-n
        # underflows (|y| > 12.1); the terms continue in log space
        got = ml_asymptotic(Fraction(1, 2), complex(0, y))
        with mpmath.workdps(50):
            z = mpmath.mpc(0, y)
            ref = complex(mpmath.exp(z * z) * mpmath.erfc(-z))
        assert abs(got.value - ref) <= 1e-13 * abs(ref)
        assert abs(got.value - ref) <= got.error

    def test_forced_tail_past_the_double_range_is_a_domain_error(self):
        # at 10i the log-space term 1453 overflows the doubles (it raised
        # OverflowError); 1452 terms still sum, to a value near 7e307
        got = ml_asymptotic(Fraction(1, 2), 10j, 1452)
        assert cmath.isfinite(got.value) and math.isfinite(got.error)
        for n in (1453, 2000, 100_000):
            with pytest.raises(DomainError, match="double range"):
                ml_asymptotic(Fraction(1, 2), 10j, n)

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_float_alpha_rounded_onto_a_pole_is_a_domain_error(self, alpha):
        # Fraction(0.3) is not 3/10: 1 - 10*alpha is no pole, but it rounds
        # to the double -2.0 (-6.0 at 0.7), where math.gamma refuses
        with pytest.raises(DomainError, match="exact fraction"):
            ml_asymptotic(alpha, 10j)
        exact = Fraction(str(alpha))
        got = ml_asymptotic(exact, 10j)
        assert cmath.isfinite(got.value) and got.terms > 10

    def test_third_alpha_beyond_gamma_underflow(self):
        # 1/Gamma(1 - n/3) overflows the doubles before the stopping test
        got = ml_asymptotic(Fraction(1, 3), -6.0)
        with mpmath.workdps(120):
            ref = mpmath.nsum(lambda n: mpmath.mpf(-6) ** n
                              / mpmath.gamma(1 + n / mpmath.mpf(3)),
                              [0, mpmath.inf])
        assert abs(got.value - float(ref)) <= 1e-13 * abs(float(ref))


# ---------------------------------------------------------------------------
# the odd part and eps itself
# ---------------------------------------------------------------------------

class TestSinHalf:
    def test_against_dawson(self):
        # sin_{1/2}(x) = (2/sqrt(pi)) F(x) with F the Dawson integral.
        for i in range(25):
            x = -6.0 + 12.0 * i / 24
            got = sin_half(x)
            ref = 2.0 / SQRT_PI * sp.dawsn(x)
            assert abs(got.value - ref) <= got.error + 1e-15

    def test_odd_symmetry(self):
        for x in (0.7, 2.3, 5.5):
            assert sin_half(-x).value == -sin_half(x).value

    def test_matches_odd_part_of_half_exponential(self):
        for x in (0.5, 2.0, 5.0):
            res = sin_half(x)
            pieces = (ml_exp(0.5, 1j * x).value, ml_exp(0.5, -1j * x).value)
            rhs = (-0.5j) * (pieces[0] - pieces[1])
            assert abs(rhs.imag) <= 1e-13
            # the alternating series cancels hard by x = 5; its own error
            # report carries that loss
            assert abs(res.value - rhs.real) <= res.error + 1e-12

    def test_overflow_guard(self):
        with pytest.raises(DomainError):
            sin_half(30.0)


def exact_epsilon_negative(a: int, terms: int = 160) -> Fraction:
    """Certified rational enclosure midpoint of eps(-a) for integer a >= 0.

    All terms a^n/(2n+1)!! are positive; past 2n+1 > a they decay faster
    than ratio a/(2n+3) < 1, so the omitted tail is below the last kept
    term times r/(1-r), which we keep under 1e-25 by taking enough terms.
    """
    total = Fraction(0)
    term = Fraction(1)
    for n in range(terms):
        total += term
        term *= Fraction(a, 2 * n + 3)
    r = Fraction(a, 2 * terms + 3)
    assert term / (1 - r) < Fraction(1, 10 ** 25)
    return total


class TestEpsilon:
    def test_value_at_zero(self):
        got = epsilon_num(0)
        assert got.value == 1.0 and got.error == 0.0 or got.value == 1.0

    def test_monotone_sample(self):
        assert epsilon_num(-1).value > epsilon_num(0).value > epsilon_num(1).value

    def test_series_against_dawson_identity(self):
        # eps(x) = sqrt(2/x) F(sqrt(x/2)) for x > 0.
        for i in range(40):
            x = 0.25 + i
            got = epsilon_num(x, "series")
            ref = math.sqrt(2.0 / x) * sp.dawsn(math.sqrt(x / 2.0))
            assert abs(got.value - ref) <= got.error + 1e-13 * abs(ref)

    def test_series_negative_against_exact_rationals(self):
        for a in (1, 2, 5, 11, 20, 30):
            got = epsilon_num(-a, "series")
            ref = float(exact_epsilon_negative(a))
            assert abs(got.value - ref) <= got.error + 1e-13 * abs(ref)

    def test_series_overflow_guard(self):
        with pytest.raises(OverflowError):
            epsilon_num(1500.0, "series")

    def test_asymptotic_fixed_depth_at_fifty(self):
        got = epsilon_num(50.0, "asymptotic", 6)
        kept = sum(
            float(Fraction(math.prod(range(1, 2 * n, 2)) if n else 1))
            / 50.0 ** (n + 1)
            for n in range(7)
        )
        assert abs(got.value - kept) <= 1e-16    # value is the partial sum
        ref = math.sqrt(2.0 / 50.0) * sp.dawsn(math.sqrt(25.0))
        assert abs(got.value - ref) <= got.error

    def test_forced_asymptotic_past_the_double_range(self):
        # at x = 40 term 369 overflows the doubles (the sum was nan)
        got = epsilon_num(40.0, "asymptotic", 368)
        assert math.isfinite(got.value) and math.isfinite(got.error)
        with pytest.raises(DomainError, match="double range"):
            epsilon_num(40.0, "asymptotic", 369)

    def test_asymptotic_optimal_on_log_grid(self):
        for x in (10.0, 30.0, 100.0, 1e3, 1e4, 1e5, 1e6):
            got = epsilon_num(x, "asymptotic")
            ref = math.sqrt(2.0 / x) * sp.dawsn(math.sqrt(x / 2.0))
            assert abs(got.value - ref) <= got.error + 8e-16 * abs(ref)

    def test_asymptotic_needs_positive_argument(self):
        with pytest.raises(DomainError):
            epsilon_num(-3.0, "asymptotic")
        with pytest.raises(DomainError):
            epsilon_num(0.0, "asymptotic")

    def test_routes_agree_where_both_run(self):
        for x in (10.0, 20.0, 35.0, 60.0, 150.0, 400.0, 1000.0):
            s = epsilon_num(x, "series")
            a = epsilon_num(x, "asymptotic")
            assert abs(s.value - a.value) <= s.error + a.error

    def test_auto_lane_switch(self):
        assert epsilon_num(10.0).method == "series"
        assert epsilon_num(100.0).method == "asymptotic"

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            epsilon_num(1.0, "magic")


# ---------------------------------------------------------------------------
# inversion
# ---------------------------------------------------------------------------

# the round-trip grid, and roots whose error field must cover the distance
# to the 50-digit root (x ~ 30 sits in eps's lossy series stretch)
_ROUNDTRIP_XS = [-8.0 + i for i in range(17)]
_ROOT_YS = ([0.030049549344657756, 0.03397757592781982]
            + [0.02 + 0.04 * k for k in range(25)])


class TestEpsilonInverse:
    def test_fixed_point_one(self):
        got = epsilon_inverse(1.0)
        assert got.value == 0.0 and got.error == 0.0

    def test_roundtrip_at_two(self):
        x = epsilon_inverse(epsilon_num(2.0).value)
        assert abs(x.value - 2.0) <= 1e-10

    def test_roundtrip_grid(self):
        # Tight roundtrips are honest only where eps is computed to near
        # machine precision; the series lane guarantees that for |x| <= 8.
        for x in _ROUNDTRIP_XS:
            back = epsilon_inverse(epsilon_num(x).value)
            assert abs(back.value - x) <= 1e-10 * max(1.0, abs(x))

    @given(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
    def test_roundtrip_property(self, x):
        back = epsilon_inverse(epsilon_num(x).value)
        assert abs(back.value - x) <= max(1e-10 * max(1.0, abs(x)), back.error)

    def test_small_values_track_reciprocal(self):
        for y in (1e-3, 1e-6):
            x = epsilon_inverse(y).value
            assert abs(x * y - 1.0) <= 0.02

    def test_domain(self):
        for y in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                epsilon_inverse(y)

    @staticmethod
    def _root(y, guess):
        with mpmath.workdps(50):
            return float(mpmath.findroot(
                lambda x: mpmath.hyp1f1(1, mpmath.mpf(3) / 2, -x / 2) - y,
                mpmath.mpf(guess)))

    @pytest.mark.parametrize("y", _ROOT_YS)
    def test_error_covers_distance_to_root(self, y):
        # the bracket width alone misses eps's own error, which dominates
        # for small y (x ~ 1/y, where |eps'(x)| ~ 1/x^2 is small)
        got = epsilon_inverse(y)
        assert abs(got.value - self._root(y, got.value)) <= got.error

    @pytest.mark.parametrize("y", [1e-8, 1e-16, 1e-17, 1e-30])
    def test_tiny_y_past_the_slope_cancellation(self, y):
        # past x = 1e6 the slope 1 - (1 + x) eps(x) cancels to nothing in
        # doubles (it was 0.0 for y <= 1e-17, a ZeroDivisionError)
        got = epsilon_inverse(y)
        assert abs(got.value - self._root(y, got.value)) <= got.error
        assert got.error <= 1e-9 * got.value

    def test_work_ceiling(self, monkeypatch):
        # a count of eps evaluations, not a time, so it holds on any host:
        # the Newton iteration needs at most 12 per root on these grids,
        # where bisection needed 42-49
        eps = analytic.epsilon_num
        ys = _ROOT_YS + [eps(x).value for x in _ROUNDTRIP_XS]
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return eps(*args, **kwargs)

        monkeypatch.setattr(analytic, "epsilon_num", counted)
        for y in ys:
            calls.clear()
            epsilon_inverse(y)
            assert len(calls) <= 14, (y, len(calls))

    def test_tol_must_be_finite_and_positive(self):
        for tol in (0.0, -1e-12, math.inf):
            with pytest.raises(DomainError, match="tol"):
                epsilon_inverse(0.5, tol)


# ---------------------------------------------------------------------------
# non-finite input
# ---------------------------------------------------------------------------

_SRC = Path(analytic.__file__).resolve().parents[1]

# Before the lane refused non-finite input, the first two of these never
# returned, the next two raised TruncationError after 200,000 terms, the
# tails answered NaN with a NaN error, and the inverse answered 32.0.  The
# inverse at y = 1e-170 and 1e-200 raised ZeroDivisionError (eps' underflowed
# to 0.0), and at 1e-310 it never returned (0.4/y is inf).
_NON_FINITE = [
    "sin_half(nan)",
    "ml_exp(1/2, complex(0, nan))",
    "ml_exp(1, nan)",
    "ml_exp(3/2, complex(nan, 1))",
    "ml_exp(1/2, nan)",
    "ml_exp(1/2, -nan)",
    "ml_exp(1/2, -inf)",
    "asymptotic_tail(nan)",
    "asymptotic_tail(complex(0, inf))",
    "ml_asymptotic(1/2, complex(0, nan))",
    "ml_asymptotic(1/2, complex(0, inf))",
    "ml_asymptotic(1/2, -inf)",
    "epsilon_inverse(0.5, tol=nan)",
    "epsilon_inverse(1e-170)",
    "epsilon_inverse(1e-200)",
    "epsilon_inverse(1e-310)",
]


@pytest.mark.parametrize("call", _NON_FINITE)
def test_non_finite_input_is_a_domain_error(call):
    # in a child with a time limit, so a loop that never ends fails the test
    code = ("from math import inf, nan\n"
            "from qgenus.analytic import *\n"
            "from qgenus.errors import DomainError\n"
            f"try:\n    print({call})\nexcept DomainError:\n    pass\n"
            "else:\n    raise SystemExit('no DomainError')\n")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=str(_SRC) + (os.pathsep + path if path else ""))
    try:
        child = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=30)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{call} ran past 30 s")
    assert child.returncode == 0, child.stdout + child.stderr


# ---------------------------------------------------------------------------
# the reciprocal-sum law, its eps conjugate, and the exponential character
# ---------------------------------------------------------------------------

class TestInfinityLaw:
    def test_two_plus_two_is_one(self):
        assert infinity_law(2.0, 2.0) == 1.0

    def test_near_identity_at_huge_partner(self):
        assert abs(infinity_law(3.0, 1e300) - 3.0) <= 1e-12

    def test_pole(self):
        with pytest.raises(DomainError):
            infinity_law(2.0, -2.0)

    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=0.1, max_value=50.0),
    )
    def test_associative_commutative(self, x, y, z):
        ab = infinity_law(infinity_law(x, y), z)
        ba = infinity_law(x, infinity_law(y, z))
        assert abs(ab - ba) <= 1e-12 * max(1.0, abs(ab))
        assert infinity_law(x, y) == infinity_law(y, x)


class TestPsiCharacter:
    def test_puncture_and_domain(self):
        for bad in (0.0, -2.0, 1.0):
            with pytest.raises(DomainError):
                psi(bad)

    def test_values_land_in_unit_interval_for_small_args(self):
        # For x < 1 the inverse is positive, so psi(x) = exp(-1/inv) < 1.
        for x in (0.1, 0.5, 0.9):
            assert 0.0 < psi(x) < 1.0

    def test_homomorphism_seeded_pairs(self):
        import random
        rng = random.Random(20260817)
        for _ in range(200):
            x = rng.uniform(0.05, 2.9)
            if abs(x - 1.0) < 0.02:
                continue
            y = rng.uniform(0.05, 2.9)
            if abs(y - 1.0) < 0.02:
                continue
            try:
                w = psi_hom_check(x, y, tol=1e-9)
            except DomainError:     # eps-law pole for conjugate arguments
                continue
            assert w.ok, (x, y, w.error)

    def test_witness_fields(self):
        w = psi_hom_check(0.3, 0.7)
        assert w.lhs == pytest.approx(w.rhs, abs=1e-9)
        assert w.x == 0.3 and w.y == 0.7

    def test_epsilon_law_closed_form_spot(self):
        # eps-conjugate of 2 (+) 2 = 1: law(eps-images) equals eps(1).
        a = epsilon_num(2.0).value
        got = epsilon_law(a, a)
        assert abs(got - epsilon_num(1.0).value) <= 1e-11


# ---------------------------------------------------------------------------
# report rows / CSV emission
# ---------------------------------------------------------------------------

class TestReportRows:
    def test_rows_flag_unavailable_lanes(self):
        rows = epsilon_rows([-5.0, 0.5, 10.0, 2000.0])
        by_x = {r["x"]: r for r in rows}
        assert by_x[-5.0]["asymptotic"] is None     # needs x > 0
        assert by_x[2000.0]["series"] is None       # double overflow
        assert by_x[10.0]["series"] is not None
        assert by_x[10.0]["asymptotic"] is not None
        assert by_x[10.0]["bound"] > 0.0

    def test_csv_shape(self):
        buf = io.StringIO()
        write_epsilon_csv(buf, [1.0, 20.0, 50.0])
        buf.seek(0)
        reader = csv.reader(buf)
        header = next(reader)
        assert header == ["x", "series", "asymptotic", "bound"]
        body = list(reader)
        assert len(body) == 3
        x, s, a, b = body[1]
        assert float(x) == 20.0
        assert abs(float(s) - float(a)) <= float(b)


class TestFloatEval:
    def test_real_coercion(self):
        assert float(FloatEval(2.5, 0.0, "series")) == 2.5
        with pytest.raises(TypeError):
            float(FloatEval(1 + 1j, 0.0, "series"))


# ---------------------------------------------------------------------------
# bit identity of the whole lane
# ---------------------------------------------------------------------------

_LANE_ALPHAS = (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(3, 2),
                1, Fraction(1, 3), Fraction(5, 3), 0.3)


def _lane_calls():
    """(label, thunk) over a seeded grid that reaches every route of the
    lane: each eps method with and without a forced depth, both
    interpolating-function routes and tails at every alpha above, with |y|
    up to 40 on the imaginary axis, and the inverse, sine and row helpers."""
    rng = random.Random(1998)
    calls = []

    def add(fn, *args):
        calls.append((f"{fn.__name__}{args!r}", lambda: fn(*args)))

    for method in ("series", "asymptotic", "auto"):
        for x in [rng.uniform(-60.0, 220.0) for _ in range(40)] + [
                -1301.0, -0.0, 0.0, 1e-3, 30.0, 1300.0, 1e300]:
            add(epsilon_num, x, method)
        for n in (0, 1, 5, 20, 100, 400):
            add(epsilon_num, rng.uniform(0.5, 60.0), method, n)
    add(epsilon_num, 1.0, "nope")
    for alpha in _LANE_ALPHAS:
        for _ in range(8):
            z = cmath.rect(rng.uniform(0.0, 4.0), rng.uniform(-math.pi, math.pi))
            add(ml_exp, alpha, z)
        for y in [rng.uniform(-30.0, 30.0) for _ in range(4)]:
            add(ml_exp, alpha, complex(0.0, y))
        for x in (rng.uniform(-30.0, 30.0), 31.0, -27.0):
            add(ml_exp, alpha, x)
        ys = [rng.uniform(8.0, 12.0) * rng.choice((-1, 1)) for _ in range(6)]
        ys += [rng.uniform(-40.0, 40.0) for _ in range(6)] + [40.0, -40.0, 0.5]
        for y in ys:
            add(ml_asymptotic, alpha, complex(0.0, y))
        for _ in range(6):
            add(ml_asymptotic, alpha, cmath.rect(rng.uniform(0.5, 40.0),
                                                 rng.uniform(-math.pi, math.pi)))
        for x in (-12.0, rng.uniform(-40.0, -0.5), -40.0):
            add(ml_asymptotic, alpha, x)
        for n in (1, 2, 9, 30, 150, 1500):
            add(ml_asymptotic, alpha, complex(0.0, rng.uniform(-40.0, 40.0)), n)
            add(ml_asymptotic, alpha, -rng.uniform(0.5, 40.0), n)
    for _ in range(30):
        z = cmath.rect(rng.uniform(0.5, 40.0), rng.uniform(-math.pi, math.pi))
        add(asymptotic_tail, z)
        add(asymptotic_tail, z, rng.choice((0, 1, 4, 25, 300)))
    for x in [rng.uniform(-26.0, 26.0) for _ in range(20)] + [27.0]:
        add(sin_half, x)
    for y in [10.0 ** rng.uniform(-3.0, 1.7) for _ in range(24)] + [
            1.0, 0.0, -1.0, math.inf]:
        add(epsilon_inverse, y)
    add(epsilon_rows, [rng.uniform(-50.0, 2000.0) for _ in range(40)])
    return calls


def _lane_digests() -> dict[str, str]:
    """sha256 per lane function over its lines of the grid above."""
    hashes = {}
    for label, thunk in _lane_calls():
        try:
            out = repr(thunk())
        except Exception as exc:  # the refusals are part of the lane
            out = f"!{type(exc).__name__}: {exc}"
        h = hashes.setdefault(label[:label.index("(")], hashlib.sha256())
        h.update(f"{label} -> {out}\n".encode())
    return {name: h.hexdigest() for name, h in hashes.items()}


# One sha256 per function over its lines of the grid above.  Every value,
# error, method and term count must stay the same double: a change that
# moves any of them by one ulp shows here, under the name of the function
# that moved.  The doubles come from the C library's exp, log and erfc, so
# a platform whose libm rounds these differently needs digests taken at a
# known-good commit.
FROZEN_LANE_SHA256 = {
    "epsilon_num":
        "2a40fef99749cd5dc015b5345075701ca857869daee6c52def7d6f07434595e3",
    "ml_exp":
        "9c320a9a87643cd0877e2801f1d77fbd85137c6a0dcff603b44593e723f72eda",
    "ml_asymptotic":
        "bddfff8f00e6edc4e918ccd947a75de2f9c9a3cb57ea793c35aad2a242e22838",
    "asymptotic_tail":
        "f78d06a63333adf7ef77fdc134a51681f3878a073d821daad8aecf1c1b051439",
    "sin_half":
        "84e3f8484ac17f9533c28bf11dc2f4df15c90effe0666f1219836a7af2d0a7fc",
    "epsilon_inverse":
        "0cc813ea2c802c8c5b457cd23f72d0bf8cde094a151fea0064b9fbe649de51e9",
    "epsilon_rows":
        "f636c8c8c2eda58045d41ed26abe03fe428b2539457a6c0594bcb6949c3b32a0",
}


def test_frozen_lane_digest():
    assert _lane_digests() == FROZEN_LANE_SHA256
