"""End-to-end acceptance gate.

One test per shipped guarantee.  Each test prints a single
``criterion N: PASS — ...`` line (visible under ``pytest -s``) with its
measured runtime against the stated budget; a failure shows up as the
test's FAILED line instead.  Tolerances are stated inline and are the
contract — they must not be loosened to make a run green.

Run with::

    pytest tests/test_acceptance.py -v -s
"""

import math
import random
import time
from fractions import Fraction

import pytest

from qgenus.analytic import (epsilon_inverse, epsilon_num, infinity_law,
                             ml_asymptotic, ml_exp, psi_hom_check)
from qgenus.errors import DomainError
from qgenus.grouplaw import (genus_exponential, scalar_exponential,
                             specialize_ones, to_q_over_q1)
from qgenus.qfunctions import (QElement, classical_q, coproduct, inner,
                               lambda_duality_check, strict_partitions,
                               x_in_q, xpoly_to_q)
from qgenus.rings import SparsePoly, UPS, UX, row_reduce, symbol_universe
from qgenus.series import TruncatedSeries
from qgenus.virasoro import (FockPoly, IntersectionTable, alpha_apply,
                             annihilation_check, genus_of,
                             genus_zero_closed_form, l_bracket_residual)
from qgenus.witt import (WittVector, Y_multiplicativity_check, closure_report,
                         ghost, nondegeneracy_witness, witt_add, witt_mul,
                         witt_unit)

F = Fraction


def _stamp(n: int, t0: float, budget: float, desc: str) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {n} overran: {elapsed:.1f}s >= {budget}s"
    print(f"criterion {n}: PASS — {desc} ({elapsed:.2f}s < {budget:.0f}s)")


# --------------------------------------------------------------------------
# 1. the defining relation of the generator algebra
# --------------------------------------------------------------------------

def test_criterion_1_defining_relation():
    t0 = time.perf_counter()
    # [U^n] q(U) q(-U) = 0 for 1 <= n <= 14, with every product pushed
    # through the square-free rewriting.
    for n in range(1, 15):
        acc = QElement.zero()
        for j in range(n + 1):
            l = n - j
            term = QElement.one()
            if j:
                term = term * QElement.gen(j)
            if l:
                term = term * QElement.gen(l)
            acc = acc + (-1) ** l * term
        assert acc == QElement.zero(), f"series relation fails at degree {n}"
    # the two lowest rewritings, exactly
    assert QElement.gen(1) ** 2 == 2 * QElement.gen(2)
    assert (QElement.gen(2) ** 2
            == 2 * QElement.gen(1) * QElement.gen(3) - 2 * QElement.gen(4))
    _stamp(1, t0, 1.0,
           "generator series relation to order 14; q1^2 and q2^2 rewritings exact")


# --------------------------------------------------------------------------
# 2. Newton identities and coordinate round trips
# --------------------------------------------------------------------------

def test_criterion_2_newton_and_round_trips():
    t0 = time.perf_counter()
    # (2k+1) q_(2k+1) = 2 sum_(j<=k) x_j q_(2k-2j) in the square-free basis
    for k in range(11):
        rhs = QElement.zero()
        for j in range(k + 1):
            tail = QElement.one() if j == k else QElement.gen(2 * k - 2 * j)
            rhs = rhs + 2 * x_in_q(j) * tail
        assert (2 * k + 1) * QElement.gen(2 * k + 1) == rhs, f"k={k}"
    # 50 seeded random elements of weight <= 12 survive q -> x -> q
    rng = random.Random(12)
    for trial in range(50):
        e = QElement.zero()
        for _ in range(rng.randint(1, 4)):
            parts, room = [], 12
            while room and rng.random() < 0.8:
                p = rng.randint(1, min(8, room))
                parts.append(p)
                room -= p
            c = F(rng.choice([c for c in range(-9, 10) if c]),
                  rng.randint(1, 7))
            e = e + c * QElement.monomial(parts)
        assert xpoly_to_q(e.to_x()) == e, f"round trip broke on trial {trial}"
    _stamp(2, t0, 5.0,
           "Newton identities k <= 10; 50 random weight-<=12 round trips")


# --------------------------------------------------------------------------
# 3. inner product: positivity, orthogonal family, Hopf self-duality
# --------------------------------------------------------------------------

def _leading_minors(G):
    """All leading principal minors of a square Fraction matrix, exactly."""
    return [row_reduce([row[:k] for row in G[:k]])[0]
            for k in range(1, len(G) + 1)]


def test_criterion_3_inner_product():
    t0 = time.perf_counter()
    # Gram matrix of the square-free monomial basis: positive definite in
    # every weight <= 10, certified by exact leading principal minors.
    for w in range(1, 11):
        basis = [QElement.monomial(lam) for lam in strict_partitions(w)]
        G = [[inner(a, b) for b in basis] for a in basis]
        for i, minor in enumerate(_leading_minors(G)):
            assert minor > 0, f"weight {w}: leading minor {i + 1} is {minor}"
    # the orthogonal family: <Q_lam, Q_mu> = delta * 2^len(lam), weight <= 8
    family = []
    for w in range(1, 9):
        for lam in strict_partitions(w):
            family.append((lam, classical_q(lam)))
    for la, Qa in family:
        for lb, Qb in family:
            expected = F(2) ** len(la) if la == lb else F(0)
            assert inner(Qa, Qb) == expected, (la, lb)
    # Hopf self-duality <ab, c> = <a (x) b, coproduct(c)> on 100 triples
    rng = random.Random(3)

    def rand_mono():
        return QElement.monomial(
            [rng.randint(1, 4) for _ in range(rng.randint(0, 2))])

    for _ in range(100):
        a, b, c = rand_mono(), rand_mono(), rand_mono()
        rhs = F(0)
        for (l, r), coeff in coproduct(c).terms.items():
            rhs += coeff * inner(a, QElement.monomial(l)) \
                * inner(b, QElement.monomial(r))
        assert inner(a * b, c) == rhs, (a, b, c)
    _stamp(3, t0, 30.0,
           "Gram minors positive to weight 10; orthogonal family norms "
           "2^len to weight 8; self-duality on 100 triples")


# --------------------------------------------------------------------------
# 4. oscillator and degree-operator relations
# --------------------------------------------------------------------------

def _odd_monomials(bound: int):
    """Exponent dictionaries of every monomial in the odd coordinates of
    weight <= bound (weight of x_k is 2k+1), the constant included."""
    def rec(k, rem):
        yield {}
        kk = k
        while 2 * kk + 1 <= rem:
            for e in range(1, rem // (2 * kk + 1) + 1):
                for rest in rec(kk + 1, rem - e * (2 * kk + 1)):
                    d = {kk: e}
                    d.update(rest)
                    yield d
            kk += 1
    yield from rec(0, bound)


def test_criterion_4_virasoro_relations():
    t0 = time.perf_counter()
    samples = [FockPoly(SparsePoly.monomial(UX, m), 99)
               for m in _odd_monomials(8)]
    assert len(samples) == 25
    # oscillator commutators [a_r, a_s] = r delta_(r+s,0) for |r|,|s| <= 4
    halves = [s * h for h in (1, 3, 5, 7) for s in (1, -1)]
    for f in samples:
        for r in halves:
            for s in halves:
                lhs = alpha_apply(r, alpha_apply(s, f)) \
                    - alpha_apply(s, alpha_apply(r, f))
                expect = f.scale(F(r, 2) if r + s == 0 else 0)
                w = min(lhs.trusted, expect.trusted)
                assert lhs.through(w) == expect.through(w), (r, s, f.poly)
    # degree-operator bracket with central term, |m|,|n| <= 4, exact
    for f in samples:
        for m in range(-4, 5):
            for n in range(-4, 5):
                res = l_bracket_residual(m, n, f)
                assert res.is_zero_through(res.trusted), (m, n, f.poly)
    _stamp(4, t0, 60.0,
           "oscillator and bracket relations exact on all 25 monomials of "
           "weight <= 8, modes |m|,|n| <= 4")


# --------------------------------------------------------------------------
# 5. intersection-number recursion and annihilation
# --------------------------------------------------------------------------

def test_criterion_5_intersection_numbers():
    t0 = time.perf_counter()
    table = IntersectionTable().build_through(6)
    # seed values
    assert table.value((3,)) == 1          # three plain punctures
    assert table.value((0, 1)) == F(1, 24)  # the one-point degree-1 number
    # A three-puncture index carrying one degree-1 insertion admits no
    # genus (3g = 1), so the recursion refuses it; the valid four-puncture
    # completion — its image under the string equation — equals 1.
    assert genus_of((2, 1)) is None
    with pytest.raises(DomainError):
        table.value((2, 1))
    assert table.value((3, 1)) == 1
    # genus-0 closed form (n-3)!/prod(d_j!) for every entry with n <= 7
    checked = 0
    for K, v in table.entries():
        n = sum(K)
        if genus_of(K) == 0 and n <= 7:
            assert v == genus_zero_closed_form(K), (K, v)
            checked += 1
    assert checked >= 12
    # shifted annihilation of the assembled exponential through weight 6
    for n in range(-1, 3):
        rep = annihilation_check(n, 6, table)
        assert rep.ok, f"n={n}: residual {rep.residual}"
    _stamp(5, t0, 120.0,
           f"seeds 1, 1, 1/24; genus-0 closed form on {checked} entries "
           "with n <= 7; annihilation to weight 6 for -1 <= n <= 2")


# --------------------------------------------------------------------------
# 6. the genus exponential: integrality, mod-p vanishing, law axioms
# --------------------------------------------------------------------------

def test_criterion_6_genus_exponential():
    t0 = time.perf_counter()
    law12 = genus_exponential(12)
    cleared = {}
    for k in range(12):
        a, e = to_q_over_q1(law12.exponential.coefficient(k + 1))
        assert e.is_integral(), f"T^{k + 1} coefficient not integral: {e}"
        cleared[k] = e
    # mod-p vanishing of the cleared coefficients at the double-factorial
    # cutoff k >= (p+1)/2
    for p in (3, 5, 7):
        for k in range(1, 12):
            divisible = all(c.numerator % p == 0
                            for c in cleared[k].terms.values())
            assert divisible == (k >= (p + 1) // 2), (p, k)
    # group-law axioms for the main law to order 8
    law8 = genus_exponential(8)
    assert law8.associativity_residual().is_zero()
    assert law8.commutativity_residual().is_zero()
    assert law8.unit_residuals().is_zero()
    assert law8.inverse_residual().is_zero()
    # setting every odd coordinate to 1 lands on the scalar law to order 6
    Fm = genus_exponential(6).law()
    Fs = scalar_exponential(6).law()
    for key, c in Fm.coeffs.items():
        assert specialize_ones(c) == Fs.coeffs.get(key, 0), key
    for key, c in Fs.coeffs.items():
        if key not in Fm.coeffs:
            assert c == 0, key
    _stamp(6, t0, 30.0,
           "integral cleared coefficients to T^12 with mod-3/5/7 cutoffs; "
           "law axioms to order 8; all-ones specialization to order 6")


# --------------------------------------------------------------------------
# 7. floating-point lanes: series vs identities, asymptotics, round trips
# --------------------------------------------------------------------------

def test_criterion_7_analytic_lanes():
    t0 = time.perf_counter()
    # half-index interpolation vs the closed error-function identity
    x = -2.0
    while x <= 2.0 + 1e-12:
        got = ml_exp(0.5, x).value
        ref = math.exp(x * x) * math.erfc(-x)
        assert abs(got - ref) <= 1e-10, f"x={x}: |{got} - {ref}|"
        x += 0.01
    # divergent tail agrees within the summed error budgets (dominated by
    # the first omitted term) on the imaginary axis and the negative reals
    for z in (8j, 10j, 12j, -10j, -6.0, -8.0, -12.0):
        s = ml_exp(0.5, z)
        t = ml_asymptotic(0.5, z)
        assert abs(s.value - t.value) <= s.error + t.error, z
    # bijectivity round trips to 1e-10, both directions
    x = -8.0
    while x <= 8.0 + 1e-9:
        y = epsilon_num(x).value
        assert abs(epsilon_inverse(y).value - x) <= 1e-10, x
        assert abs(epsilon_num(epsilon_inverse(y).value).value - y) <= 1e-10, x
        x += 0.5
    # multiplicative character: 10^3 seeded pairs to 1e-9
    rng = random.Random(7)
    done = 0
    while done < 1000:
        a = rng.uniform(0.05, 2.9)
        b = rng.uniform(0.05, 2.9)
        if abs(a - 1.0) < 0.02 or abs(b - 1.0) < 0.02:
            continue
        try:
            w = psi_hom_check(a, b, tol=1e-9)
        except DomainError:      # pole of the composition for conjugate args
            continue
        assert w.ok, (a, b, w.error)
        done += 1
    # reciprocal-sum composition: 10^4 seeded triples associate to 1e-12
    rng = random.Random(99)
    done = 0
    while done < 10_000:
        xa, ya, za = (rng.uniform(-10, 10) for _ in range(3))
        if min(abs(xa + ya), abs(ya + za)) < 0.05:
            continue
        try:
            ab = infinity_law(infinity_law(xa, ya), za)
            ba = infinity_law(xa, infinity_law(ya, za))
        except DomainError:
            continue
        assert abs(ab - ba) <= 1e-12 * max(1.0, abs(ab)), (xa, ya, za)
        done += 1
    _stamp(7, t0, 10.0,
           "series vs identity to 1e-10 on [-2,2]; tails within budget; "
           "round trips to 1e-10; 10^3 character pairs to 1e-9; 10^4 "
           "associativity triples to 1e-12")


# --------------------------------------------------------------------------
# 8. one-units: ghosts, trace pairing, operator multiplicativity, closure
# --------------------------------------------------------------------------

def test_criterion_8_one_unit_calculus():
    t0 = time.perf_counter()
    # (1 + aT) * (1 + bT) = 1 + abT with symbolic coefficients
    AB = symbol_universe("acpt_ab", ["a", "b"])
    A, B = SparsePoly.gen(AB, "a"), SparsePoly.gen(AB, "b")
    prod = witt_mul(WittVector.from_coeffs({1: A}, 6),
                    WittVector.from_coeffs({1: B}, 6))
    assert prod.series == TruncatedSeries.univariate("T", {0: 1, 1: A * B}, 6)
    # ring axioms through the ghost coordinates at order 8
    rng = random.Random(2026)

    def rand_vec():
        return WittVector.from_coeffs(
            {i: F(rng.randint(-9, 9), rng.randint(1, 5))
             for i in range(1, 9)}, 8)

    for _ in range(6):
        a, b, c = rand_vec(), rand_vec(), rand_vec()
        ga, gb = ghost(a), ghost(b)
        gm, gs = ghost(witt_mul(a, b)), ghost(witt_add(a, b))
        assert all(gm[n] == ga[n] * gb[n] for n in range(1, 9))
        assert all(gs[n] == ga[n] + gb[n] for n in range(1, 9))
        assert witt_mul(witt_mul(a, b), c).series \
            == witt_mul(a, witt_mul(b, c)).series
        assert witt_mul(a, b).series == witt_mul(b, a).series
        assert witt_mul(a, witt_add(b, c)).series \
            == witt_add(witt_mul(a, b), witt_mul(a, c)).series
        assert witt_mul(a, witt_unit(8)).series == a.series
    # trace-pairing nondegeneracy on the order-6 truncation
    w = nondegeneracy_witness(6)
    assert w.ok and w.directions_paired
    assert w.determinant == F(-720)
    # operator multiplicativity for every monomial pair of total degree <= 5
    def partitions(weight):
        out = []

        def rec(rem, cap, acc):
            if rem == 0:
                out.append(dict(acc))
                return
            for part in range(min(rem, cap), 0, -1):
                acc[part] = acc.get(part, 0) + 1
                rec(rem - part, part, acc)
                acc[part] -= 1
                if not acc[part]:
                    del acc[part]
        rec(weight, weight, {})
        return out

    mons = {w_: [SparsePoly.monomial(UPS, m) for m in partitions(w_)]
            for w_ in range(1, 5)}
    pairs = 0
    for da in range(1, 5):
        for db in range(1, 6 - da):
            for b in mons[da]:
                for bp in mons[db]:
                    wit = Y_multiplicativity_check(
                        b, bp, weight_cap=6, window=(-6, 6))
                    assert wit.status == "pass", (b, bp, wit)
                    pairs += 1
    assert pairs == 37
    # root-of-unity closure at order 3 for every admissible mode index
    for n in (1, 2, 4, 5, 7):
        rep = closure_report(n, 3, weight_cap=6)
        assert rep.ok and rep.method == "cyclotomic", rep
        assert rep.killed_modes == (3, 6)
    _stamp(8, t0, 60.0,
           "symbolic 1+abT; ghost ring axioms at order 8; pairing "
           "determinant -720; 37 multiplicative operator pairs; order-3 "
           "closure")


# --------------------------------------------------------------------------
# 9. inversion symmetry of the deformed generating series
# --------------------------------------------------------------------------

def test_criterion_9_inversion_symmetry():
    t0 = time.perf_counter()
    # Free symbolic eigenvalues make this an identity in 2 resp. 4 formal
    # variables, so it covers every numeric diagonal specialization; the
    # sign parameter -1 at even size gives the strict (factor-free) form.
    for n_eigs in (2, 4):
        rep = lambda_duality_check(n_eigs, -1)
        assert rep["holds"], n_eigs
        assert rep["strict"] and rep["factor"] == 1, rep
    _stamp(9, t0, 1.0,
           "series inversion symmetry exact for 2 and 4 symbolic "
           "eigenvalues at sign -1")
