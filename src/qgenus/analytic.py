"""Floating-point lane: the half-index exponential family and the eps map.

Everything here is double precision with *heuristic* error reporting: each
evaluation returns a :class:`FloatEval` whose ``error`` field is a last-term
estimate (first omitted term plus a roundoff allowance from term-size
monitoring), not a certified enclosure.  The exact modules are the source of
truth for identities; this one exists to check the analytic story in floats:
asymptotic expansions with optimal truncation, monotonicity and bijectivity
of ``eps``, the reciprocal-sum composition at infinity, and the
``exp(-1/eps_inverse)`` homomorphism into the multiplicative reals.

Only the standard library is used (``math``/``cmath``).  Heavier
special-function packages stay in the test suite, where they serve as
independent oracles.

Method tags
-----------
``series``      convergent power series, compensated summation
``asymptotic``  divergent tail, optimally truncated unless a term count is
                forced; error = first omitted term (validated against exact
                rational references in the tests)
``identity``    rewrite through the library error function / a scaled
                Dawson-type convergent series
``newton``      bracketed Newton iteration for the inverse of eps
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, NamedTuple, Sequence

from .errors import DomainError, TruncationError

_EPS = 2.0 ** -52
_ROUNDOFF = 4.0 * _EPS  # per unit of sum |term|: covers cancellation too
_SQRT_PI = math.sqrt(math.pi)

# Practicality cutoffs for the convergent series in doubles.  Beyond these
# the terms' hump costs more significant digits than a double carries (the
# hump peaks near e^{|z|^{1/alpha}}), so ml_exp switches route or refuses.
_SERIES_CUTOFF_EXP = 30.0   # alpha = 1: plain exponential, mild cancellation
_SERIES_CUTOFF_HALF = 3.5   # alpha = 1/2: hump e^{|z|^2} eats ~5 digits here
_DAWSON_CUTOFF = 26.0       # scaled series overflows past exp(y^2) ~ 1e308
_ERFC_OVERFLOW = 26.6       # exp(x^2) overflows for x above this
_EPSILON_SERIES_OVERFLOW = 1300.0  # eps series hump ~ e^{x/2} vs 1e308


@dataclass(frozen=True)
class FloatEval:
    """A double-precision evaluation with a heuristic error bound."""

    value: complex | float
    error: float
    method: str
    terms: int = 0

    def __float__(self) -> float:
        if isinstance(self.value, complex):
            raise TypeError("complex evaluation has no float value")
        return float(self.value)


def _finite(z) -> complex:
    """z as a complex; NaN or infinite parts would stall or poison a loop."""
    zc = complex(z)
    if not cmath.isfinite(zc):
        raise DomainError(f"the lane needs a finite argument, got {z!r}")
    return zc


def _as_real_if(z0, value: complex):
    """Collapse to float when the input was real (the math forces imag 0)."""
    if isinstance(z0, complex) and z0.imag != 0.0:
        return value
    return value.real if isinstance(value, complex) else value


# ---------------------------------------------------------------------------
# the entire function exp_alpha(z) = sum z^n / Gamma(1 + alpha n)
# ---------------------------------------------------------------------------

def _ml_term(zc: complex, af: float, n: int) -> complex:
    """n-th series term, routed through log space when floats overflow."""
    if n == 0:
        return 1.0 + 0.0j
    a = 1.0 + af * n
    lz = n * math.log(abs(zc))
    if lz < 600.0 and a < 170.0:
        return zc ** n / math.gamma(a)
    mag = lz - math.lgamma(a)
    if mag < -745.0:
        return 0.0 + 0.0j
    if mag > 709.0:
        raise OverflowError("series term overflows the double range")
    return cmath.exp(complex(mag, n * cmath.phase(zc)))


def _ml_series(af: float, zc: complex, max_terms: int) -> FloatEval:
    if zc == 0:
        return FloatEval(1.0, 0.0, "series", 1)
    total = carry = abs_sum = 0.0
    try:
        hump_end = abs(zc) ** (1.0 / af) + 8.0
    except OverflowError:
        raise DomainError(
            f"alpha={af} is too small at |z|={abs(zc)}: the series peaks "
            f"past the double range") from None
    n = 0
    term = _ml_term(zc, af, 0)
    while True:
        abs_sum += abs(term)
        tsum = total + (adj := term - carry)
        carry, total = (tsum - total) - adj, tsum
        n += 1
        if n > max_terms:
            raise TruncationError(
                f"series for alpha={af} stalled after {max_terms} terms")
        term = _ml_term(zc, af, n)
        if n >= hump_end and abs(term) <= 1e-18 * max(abs(total), 1e-300):
            break
    err = abs(term) + _ROUNDOFF * abs_sum
    return FloatEval(_as_real_if(zc, total), err, "series", n)


def _dawson(y: float) -> float:
    """Dawson-type integral via the scaled all-positive convergent series.

    F(y) = e^{-y^2} * sum_m y^{2m+1} / (m! (2m+1)).  No cancellation, so the
    result carries close to full precision for |y| <= _DAWSON_CUTOFF.
    """
    if y < 0:
        return -_dawson(-y)
    if y > _DAWSON_CUTOFF:
        raise DomainError(
            f"scaled Dawson series overflows doubles for |y| > {_DAWSON_CUTOFF}")
    total = carry = 0.0
    power = y           # y^{2m+1} / m!
    m = 0
    while True:
        tsum = total + (adj := power / (2 * m + 1) - carry)
        carry, total = (tsum - total) - adj, tsum
        power *= y * y / (m + 1)
        m += 1
        if m > y * y + 8 and power <= 1e-18 * total:
            break
    return math.exp(-y * y) * total.real


def _exp_half_real(x: float) -> FloatEval:
    """exp_{1/2} on the real axis through the library erfc."""
    if x >= _ERFC_OVERFLOW:
        raise OverflowError(
            f"exp_half({x}) exceeds the double range (exp(x^2) overflow)")
    if x > -_ERFC_OVERFLOW:
        v = math.exp(x * x) * math.erfc(-x)
        return FloatEval(v, 8.0 * _EPS * abs(v), "identity", 0)
    # Very negative arguments: erfc underflows before exp overflows, but the
    # function itself is the purely algebraic scaled-erfc tail; delegate.
    return asymptotic_tail(x)


def _exp_half_imag(y: float) -> FloatEval:
    """exp_{1/2}(iy) = e^{-y^2} + i (2/sqrt(pi)) F(y) with F the Dawson sum."""
    re = math.exp(-min(y * y, 745.0)) if y * y < 745.0 else 0.0
    im = (2.0 / _SQRT_PI) * _dawson(y)
    v = complex(re, im)
    return FloatEval(v, 8.0 * _EPS * (abs(re) + abs(im)), "identity", 0)


def ml_exp(alpha, z, *, max_terms: int = 200_000) -> FloatEval:
    """The entire interpolation sum z^n / Gamma(1 + alpha n), 0 < alpha < 2.

    alpha = 1 is the plain exponential; alpha = 1/2 is the half-index case
    tied to the error function.  The convergent series is used inside its
    documented practicality region; for alpha = 1/2 beyond it, real and
    purely imaginary arguments reroute through stable identities (tagged
    ``identity``/``asymptotic``).  Elsewhere the evaluation refuses rather
    than return digits it cannot back.
    """
    af = float(alpha)
    if not 0.0 < af < 2.0:
        raise DomainError(f"alpha must lie in (0, 2), got {alpha!r}")
    zc = _finite(z)
    if af == 1.0:
        if abs(zc) > _SERIES_CUTOFF_EXP:
            raise DomainError(
                f"|z| > {_SERIES_CUTOFF_EXP} is outside the documented "
                "series practicality region for alpha = 1")
        return _ml_series(af, zc, max_terms)
    if af == 0.5:
        if abs(zc) <= _SERIES_CUTOFF_HALF:
            return _ml_series(af, zc, max_terms)
        if zc.imag == 0.0:
            return _exp_half_real(zc.real)
        if zc.real == 0.0:
            return _exp_half_imag(zc.imag)
        raise DomainError(
            "alpha = 1/2 off the axes is only evaluable for "
            f"|z| <= {_SERIES_CUTOFF_HALF} in doubles")
    if abs(zc) > _SERIES_CUTOFF_HALF:
        raise DomainError(
            f"|z| > {_SERIES_CUTOFF_HALF} is outside the documented series "
            f"practicality region for alpha = {af}")
    return _ml_series(af, zc, max_terms)


# ---------------------------------------------------------------------------
# divergent tails
# ---------------------------------------------------------------------------

def _check_sector(zc: complex, half_width: float) -> None:
    if zc == 0:
        raise DomainError("tail undefined at z = 0")
    if abs(cmath.phase(zc)) < half_width + 0.1:
        raise DomainError(
            "z lies inside the excluded sector around the positive real "
            f"axis (|arg z| must be >= {half_width + 0.1:.3f} rad)")


def _out_of_range(n_terms: int) -> DomainError:
    return DomainError(f"a forced tail of {n_terms} terms leaves the double "
                       "range (optimal truncation forces no term count)")


def _check_forced(n_terms: int | None, value: complex, err: float) -> None:
    """A forced tail's terms grow without bound: past the double range its
    sum is inf or nan, which no error field covers."""
    if n_terms is not None and not (cmath.isfinite(value)
                                    and math.isfinite(err)):
        raise _out_of_range(n_terms)


def _tail_estimate(first_mag: float, step, n_first: int) -> float:
    """Bound the omitted remainder of a factorially divergent tail.

    ``first_mag`` is |t_j| for the first omitted term (j = ``n_first``) and
    ``step(k)`` is |t_{k+1}/t_k|.  Sums the omitted magnitudes down to the
    minimal term and adds one extra minimal term for the part beyond the
    optimal stopping point.  When the terms alternate in sign this is a
    slight over-estimate of the classical first-omitted bound; when they
    share a sign (e.g. on the imaginary axis, where the remainder genuinely
    exceeds the first omitted term) it tracks the actual tail sum.
    """
    total = 0.0
    t = first_mag
    n = n_first
    for _ in range(200):
        total += t
        r = step(n)
        if r >= 1.0:                     # minimal term reached: stop here
            return total + t
        nt = t * r
        if nt < 1e-18 * max(total, 1e-300):
            return total
        t, n = nt, n + 1
    r = step(n)
    # still decaying at the cap: geometric bound for everything beyond
    return total + (t * r / (1.0 - r) if r < 1.0 else t)


def asymptotic_tail(z, n_terms: int | None = None) -> FloatEval:
    """Optimally truncated large-|z| tail of exp_{1/2}.

    -pi^{-1/2} z^{-1} sum_n (2n-1)!! (-2 z^2)^{-n}, valid away from the
    positive real axis (sector half-width pi/4 plus a 0.1 rad guard band —
    the whole imaginary axis qualifies).  ``n_terms=N`` forces terms
    n = 0..N; by default summation stops just before the terms start
    growing.  The error field sums the omitted terms down to their minimum
    (about the first omitted term in alternating sectors, up to ~1.5x it
    where the terms share a sign) plus accumulated roundoff.
    """
    zc = _finite(z)
    _check_sector(zc, math.pi / 4.0)
    ratio_base = -1.0 / (2.0 * zc * zc)
    rb = abs(ratio_base)
    term = -1.0 / (_SQRT_PI * zc)
    total = carry = abs_sum = 0.0
    n = 0
    while True:
        nxt = term * (2 * n + 1) * ratio_base
        abs_sum += abs(term)
        tsum = total + (adj := term - carry)
        carry, total = (tsum - total) - adj, tsum
        n += 1
        if n_terms is not None:
            if n > n_terms:
                break
        elif abs(nxt) >= abs(term) or n > 5000:
            break
        term = nxt
    err = _tail_estimate(abs(nxt), lambda k: (2 * k + 1) * rb, n) + _ROUNDOFF * abs_sum
    _check_forced(n_terms, total, err)
    return FloatEval(_as_real_if(z, total), err, "asymptotic", n)


def ml_asymptotic(alpha, z, n_terms: int | None = None) -> FloatEval:
    """Generic-alpha algebraic tail  -sum_{n>=1} z^{-n} / Gamma(1 - alpha n).

    1/Gamma at a pole contributes nothing; for alpha = 1 every term dies and
    the tail is identically zero.  ``alpha`` is read once as an exact
    fraction p/q; the pole and sign tests run on the integers p and q, so
    they never depend on float rounding.  Same sector rule as
    :func:`asymptotic_tail`, scaled to half-width alpha*pi/2.  The error
    field is the coarse first-omitted-term magnitude (the gamma reflections
    make term ratios irregular, so no tail summation is attempted here).
    Terms whose power of z or Gamma value leaves the double range are
    formed in log space, so optimal truncation works at any |z|.
    """
    af = Fraction(alpha)
    if not 0 < af < 2:
        raise DomainError(f"alpha must lie in (0, 2), got {alpha!r}")
    zc = _finite(z)
    _check_sector(zc, float(af) * math.pi / 2.0)
    if af == 1:
        return FloatEval(_as_real_if(z, 0.0 + 0.0j), 0.0, "asymptotic", 0)
    p, q = af.numerator, af.denominator
    total = carry = abs_sum = 0.0
    last_mag = None
    n = 0
    kept = 0
    omitted = 0.0
    while True:
        n += 1
        if n_terms is not None and n > n_terms:
            break
        num = q - p * n             # Gamma's argument 1 - alpha*n is num/q
        if num <= 0 and num % q == 0:
            term = 0.0 + 0.0j       # pole of Gamma: the term drops out
        else:
            arg = num / q           # correctly rounded, as float(Fraction)
            power = zc ** -n
            try:
                gamma = math.gamma(arg)
            except ValueError:  # a float alpha rounded 1 - alpha*n onto a pole
                raise DomainError(f"1 - {n}*alpha rounds onto a pole of Gamma "
                                  f"at alpha = {alpha!r}; pass alpha as an "
                                  "exact fraction") from None
            if power and gamma:
                term = -power / gamma
            else:
                # z^-n or Gamma left the double range: go through logs
                try:
                    size = math.exp(-n * math.log(abs(zc))
                                    - math.lgamma(arg))
                except OverflowError:  # only a forced tail grows this far
                    raise _out_of_range(n_terms) from None
                if not size:        # past the double range: nothing left
                    omitted = 0.0
                    break
                if (num // q) % 2:
                    size = -size    # Gamma is negative here
                term = -size * cmath.exp(complex(0.0, -n * cmath.phase(zc)))
        mag = abs(term)
        if mag > 0.0:
            if n_terms is None and last_mag is not None and mag >= last_mag:
                omitted = mag
                break
            last_mag = mag
        abs_sum += mag
        tsum = total + (adj := term - carry)
        carry, total = (tsum - total) - adj, tsum
        kept = n
        omitted = mag
        if n > 5000:
            break
    err = omitted + _ROUNDOFF * abs_sum
    _check_forced(n_terms, total, err)
    return FloatEval(_as_real_if(z, total), err, "asymptotic", kept)


# ---------------------------------------------------------------------------
# the odd half-index sine and the decreasing bijection eps
# ---------------------------------------------------------------------------

def sin_half(x: float) -> FloatEval:
    """Odd part sum_m (-1)^m x^{2m+1} / Gamma(3/2 + m), summed as written."""
    xf = _finite(float(x)).real
    if abs(xf) > _DAWSON_CUTOFF:
        raise DomainError(
            f"alternating series overflows doubles for |x| > {_DAWSON_CUTOFF}")
    total = carry = abs_sum = 0.0
    term = xf / math.gamma(1.5)
    m = 0
    while True:
        abs_sum += abs(term)
        tsum = total + (adj := term - carry)
        carry, total = (tsum - total) - adj, tsum
        term *= -xf * xf / (1.5 + m)
        m += 1
        if m > xf * xf + 8 and abs(term) <= 1e-18 * max(abs(total), 1e-300):
            break
    return FloatEval(total, abs(term) + _ROUNDOFF * abs_sum, "series", m)


def epsilon_num(x, method: str = "auto", n_terms: int | None = None) -> FloatEval:
    """The alternating odd-double-factorial sum  sum_n (-x)^n / (2n+1)!!.

    ``series`` is everywhere convergent but loses digits past x ~ 35 in
    doubles (the reported error says so); ``asymptotic`` is the positive
    divergent tail  sum_n (2n-1)!! x^{-n-1}  for x > 0, optimally truncated.
    ``auto`` switches lanes at x = 30.
    """
    xf = float(x)
    if xf != xf:  # every loop below would run forever on a NaN
        raise DomainError("eps is undefined at NaN")
    if method == "auto":
        method = "series" if xf <= 30.0 else "asymptotic"
    if method == "series":
        if abs(xf) > _EPSILON_SERIES_OVERFLOW:
            raise OverflowError(
                f"series terms overflow doubles for |x| > "
                f"{_EPSILON_SERIES_OVERFLOW}")
        total = carry = abs_sum = 0.0
        term = 1.0
        n = 0
        while True:
            abs_sum += abs(term)
            tsum = total + (adj := term - carry)
            carry, total = (tsum - total) - adj, tsum
            n += 1
            term *= -xf / (2 * n + 1)
            if 2 * n + 1 > abs(xf) and abs(term) <= 1e-18 * max(abs(total), 1e-300):
                break
        return FloatEval(total, abs(term) + _ROUNDOFF * abs_sum, "series", n)
    if method == "asymptotic":
        if xf <= 0.0:
            raise DomainError("the positive-tail lane needs x > 0")
        total = carry = abs_sum = 0.0
        term = 1.0 / xf
        n = 0
        while True:
            nxt = term * (2 * n + 1) / xf
            abs_sum += abs(term)
            tsum = total + (adj := term - carry)
            carry, total = (tsum - total) - adj, tsum
            n += 1
            if n_terms is not None:
                if n > n_terms:
                    break
            elif nxt >= term or n > 5000:
                break
            term = nxt
        err = _tail_estimate(nxt, lambda k: (2 * k + 1) / xf, n) + _ROUNDOFF * abs_sum
        _check_forced(n_terms, total, err)
        return FloatEval(total, err, "asymptotic", n)
    raise DomainError(f"unknown method {method!r}")


def _slope(x: float, eps_x: float) -> float:
    """eps'(x) from 2x eps'(x) = 1 - (1 + x) eps(x), with eps'(0) = -1/3;
    past x = 1e6 that difference cancels and the tail -(1 + 2/x)/x^2 wins."""
    if abs(x) < 1e-6:
        return -1.0 / 3.0
    if x > 1e6:
        return -(1.0 + 2.0 / x) / x / x
    return (1.0 - (1.0 + x) * eps_x) / (2.0 * x)


def epsilon_inverse(y: float, tol: float = 1e-12) -> FloatEval:
    """Solve eps(x) = y for the unique real x (eps is a decreasing bijection
    from the reals onto the positive reals with eps(0) = 1).

    Bracketed Newton iteration on log eps from x = 1/y (small y) or
    3(1 - y), with eps' from eps itself; a step that leaves the bracket
    bisects, and once a step is below tol/2 one probe tol past the root
    closes it.  The error field is the final bracket half-width plus eps's
    own reported error at the root divided by |eps'|.
    """
    yf = float(y)
    if yf <= 0.0 or not math.isfinite(yf):
        raise DomainError("eps only takes positive real values")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and positive, got {tol!r}")
    if yf == 1.0:
        return FloatEval(0.0, 0.0, "newton", 0)
    if yf < 1.0:
        if yf < 0.05:
            lo, hi = 0.4 / yf, 4.0 / yf    # eps(x) = 1/x + O(1/x^2)
        else:
            lo, hi = 0.0, 64.0
        while epsilon_num(hi).value > yf:
            lo, hi = hi, hi * 2.0
        while epsilon_num(lo).value < yf:
            lo /= 2.0
    else:
        lo, hi = -1.0, 0.0
        while epsilon_num(lo).value < yf:
            lo *= 2.0
            if lo < -_EPSILON_SERIES_OVERFLOW:
                raise DomainError(f"y = {y!r} is beyond the evaluable range")
    # eps is log-convex, so Newton from left of the root never overshoots
    x = max(lo, 1.0 / yf if yf < 0.05 else 3.0 * (1.0 - yf))
    steps = 0
    while hi - lo > tol * max(1.0, abs(lo), abs(hi)) and steps < 200:
        if not lo <= x < hi:
            x = 0.5 * (lo + hi)
        at = epsilon_num(x).value
        if at > yf:
            lo = x
        else:
            hi = x
        steps += 1
        step = math.log(at / yf) * at / _slope(x, at)   # Newton on log eps
        if abs(step) < 0.5 * tol * max(1.0, abs(x)):
            step = math.copysign(tol * max(1.0, abs(x)), yf - at)
        x -= step
    mid = 0.5 * (lo + hi)
    # eps's own error moves the root by about eps.error / |eps'(x)|
    at = epsilon_num(mid)
    err = (hi - lo) / 2.0 + tol * max(1.0, abs(mid)) + at.error / abs(
        _slope(mid, at.value))
    return FloatEval(mid, err, "newton", steps)


# ---------------------------------------------------------------------------
# the composition at infinity and the multiplicative character
# ---------------------------------------------------------------------------

def infinity_law(x: float, y: float) -> float:
    """xy/(x+y): the reciprocal-sum composition with identity at infinity.

    The inverse of x is -x; the pole x + y = 0 *is* the identity point and
    is reported as a DomainError rather than an infinity.
    """
    xf, yf = float(x), float(y)
    if xf + yf == 0.0:
        raise DomainError("x + y = 0: the composition hits the identity "
                          "at infinity")
    return (xf * yf) / (xf + yf)


def epsilon_law(x: float, y: float) -> float:
    """Transport of the infinity composition through eps:
    eps(eps_inv(x) ∘ eps_inv(y))."""
    a = epsilon_inverse(x).value
    b = epsilon_inverse(y).value
    return epsilon_num(infinity_law(a, b)).value


def psi(x: float) -> float:
    """exp(-1/eps_inverse(x)): a homomorphism from the transported
    composition on (0, inf) minus {1} to the multiplicative positive reals."""
    xf = float(x)
    if xf <= 0.0:
        raise DomainError("psi is defined on positive reals only")
    inv = epsilon_inverse(xf).value
    if inv == 0.0:
        raise DomainError("x = 1 is the puncture: eps_inverse(1) = 0")
    return math.exp(-1.0 / inv)


class PsiWitness(NamedTuple):
    x: float
    y: float
    lhs: float               # psi(x ∘_eps y)
    rhs: float               # psi(x) psi(y)
    error: float
    ok: bool


def psi_hom_check(x: float, y: float, tol: float = 1e-9) -> PsiWitness:
    """Witness for psi(x ∘_eps y) = psi(x) psi(y)."""
    lhs = psi(epsilon_law(x, y))
    rhs = psi(x) * psi(y)
    err = abs(lhs - rhs)
    return PsiWitness(float(x), float(y), lhs, rhs, err,
                      err <= tol * max(1.0, abs(rhs)))


# ---------------------------------------------------------------------------
# tabulation
# ---------------------------------------------------------------------------

def epsilon_rows(xs: Iterable[float]) -> list[dict]:
    """Per-x comparison rows for the two eps lanes (None when a lane does
    not apply at that x: the tail needs x > 0, the series overflows late)."""
    rows = []
    for x in xs:
        xf = float(x)
        try:
            ser = epsilon_num(xf, method="series")
        except OverflowError:
            ser = None
        asy = epsilon_num(xf, method="asymptotic") if xf > 0 else None
        bound = sum(e.error for e in (ser, asy) if e is not None)
        rows.append({"x": xf, "series": ser, "asymptotic": asy,
                     "bound": bound})
    return rows


def write_epsilon_csv(fp: IO[str], xs: Sequence[float]) -> None:
    """CSV table (x, series value, asymptotic value, bound) for plotting."""
    w = csv.writer(fp)
    w.writerow(["x", "series", "asymptotic", "bound"])
    for row in epsilon_rows(xs):
        ser = row["series"]
        asy = row["asymptotic"]
        w.writerow([repr(row["x"]),
                    repr(ser.value) if ser is not None else "",
                    repr(asy.value) if asy is not None else "",
                    repr(row["bound"])])
