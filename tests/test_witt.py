"""Witt vectors, ghost coordinates, trace pairing, and vertex operators.

Oracles: the symbolic identity (1+aT)*(1+bT) = 1+abT pins the ghost sign
convention; ghost components of 1+aT are the literal powers a^n; the
operator tables are cross-checked against an independent generating-
function route (gamma_log_check) and against hand-expanded binomials.
"""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qgenus import witt
from qgenus.errors import DomainError, IncompatibleOperands, InvariantError
from qgenus.qfunctions import QElement, q_in_x
from qgenus.rings import (CycloRational, SparsePoly, UPS, UX, Universe,
                          symbol_universe)
from qgenus.series import TruncatedSeries
from qgenus.witt import (
    SD,
    GhostVector,
    LatticeData,
    LatticeFockElement,
    MultiplicativityWitness,
    VertexOperator,
    WittVector,
    Y_multiplicativity_check,
    closure_report,
    gamma_log_check,
    gbinom,
    ghost,
    ghost_inverse,
    hl_q_gen,
    lattice_action_obj,
    lattice_apply,
    lattice_from_json,
    lattice_grading_audit,
    lattice_universe,
    nondegeneracy_witness,
    pairing,
    power_sums,
    q_subfunctor_check,
    root_of_unity_check,
    trace,
    vertex_Y_element,
    vertex_Y_lattice,
    vertex_Y_powersum,
    vertex_apply,
    vertex_table_obj,
    witt_add,
    witt_mul,
    witt_neg,
    witt_unit,
    witt_zero,
)

AB = symbol_universe("wt_ab", ["a", "b"])
A = SparsePoly.gen(AB, "a")
B = SparsePoly.gen(AB, "b")


def rand_witt(rng: random.Random, order: int, *, integral=False) -> WittVector:
    if integral:
        cs = {i: rng.randint(-6, 6) for i in range(1, order + 1)}
    else:
        cs = {i: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
              for i in range(1, order + 1)}
    return WittVector.from_coeffs(cs, order)


# ---------------------------------------------------------------------------
# group structure and ghosts
# ---------------------------------------------------------------------------

class TestGhosts:
    def test_one_plus_aT_symbolically(self):
        h = WittVector.from_coeffs({1: A}, 6)
        g = ghost(h)
        for n in range(1, 7):
            assert g[n] == A ** n

    def test_linear_times_linear(self):
        ha = WittVector.from_coeffs({1: A}, 6)
        hb = WittVector.from_coeffs({1: B}, 6)
        prod = witt_mul(ha, hb)
        assert prod.series == TruncatedSeries.univariate(
            "T", {0: 1, 1: A * B}, 6)

    def test_ghost_of_sum_is_componentwise_sum(self):
        rng = random.Random(11)
        for _ in range(10):
            h1, h2 = rand_witt(rng, 8), rand_witt(rng, 8)
            gs = ghost(witt_add(h1, h2))
            g1, g2 = ghost(h1), ghost(h2)
            assert all(gs[n] == g1[n] + g2[n] for n in range(1, 9))

    def test_ghost_inverse_round_trip(self):
        rng = random.Random(23)
        for _ in range(50):
            h = rand_witt(rng, 10)
            assert ghost_inverse(ghost(h), 10).series == h.series

    def test_group_identity_and_inverse(self):
        rng = random.Random(5)
        h = rand_witt(rng, 8)
        assert witt_add(h, witt_zero(8)).series == h.series
        total = witt_add(h, witt_neg(h))
        assert total.series == witt_zero(8).series

    def test_unit_has_all_one_ghosts(self):
        g = ghost(witt_unit(9))
        assert all(g[n] == 1 for n in range(1, 10))

    def test_power_sum_sign(self):
        # p_n = (-1)^{n-1} g_n; for 1+T: g_n = 1 so p_2 = -1.
        ps = power_sums(witt_unit(4))
        assert ps == [1, -1, 1, -1]

    def test_validation(self):
        with pytest.raises(DomainError):
            WittVector(TruncatedSeries.univariate("T", {0: 2}, 3))
        with pytest.raises(DomainError):
            WittVector.from_coeffs({0: 1}, 3)
        with pytest.raises(IncompatibleOperands):
            witt_add(witt_unit(3), witt_unit(4))
        with pytest.raises(DomainError):
            ghost(witt_unit(3), 5)
        with pytest.raises(DomainError):
            GhostVector((1, 2))[3]


class TestRingAxioms:
    def test_mul_associative_commutative_distributive(self):
        rng = random.Random(37)
        for _ in range(6):
            x, y, z = (rand_witt(rng, 8) for _ in range(3))
            assert witt_mul(x, y).series == witt_mul(y, x).series
            assert (witt_mul(witt_mul(x, y), z).series
                    == witt_mul(x, witt_mul(y, z)).series)
            lhs = witt_mul(x, witt_add(y, z))
            rhs = witt_add(witt_mul(x, y), witt_mul(x, z))
            assert lhs.series == rhs.series

    def test_unit_neutral(self):
        rng = random.Random(41)
        for _ in range(8):
            h = rand_witt(rng, 8)
            assert witt_mul(h, witt_unit(8)).series == h.series

    def test_zero_annihilates(self):
        rng = random.Random(43)
        h = rand_witt(rng, 8)
        assert witt_mul(h, witt_zero(8)).series == witt_zero(8).series

    def test_integrality_preserved(self):
        rng = random.Random(47)
        for _ in range(50):
            h = rand_witt(rng, 8, integral=True)
            g = rand_witt(rng, 8, integral=True)
            assert witt_mul(h, g).is_integral()

    def test_integrality_guard_raises(self, monkeypatch):
        # a raised error, not an assert, so the guard survives python -O
        fractional = WittVector.from_coeffs({1: Fraction(1, 2)}, 4)
        monkeypatch.setattr(witt, "ghost_inverse", lambda g, order=None: fractional)
        h = WittVector.from_coeffs({1: 1, 2: -3}, 4)
        with pytest.raises(InvariantError, match="went fractional"):
            witt_mul(h, h)


# ---------------------------------------------------------------------------
# trace and pairing
# ---------------------------------------------------------------------------

class TestTrace:
    def test_single_nilpotent(self):
        uni = symbol_universe("wt_s3", ["s"], nilpotent_order=3)
        s = SparsePoly.gen(uni, "s")
        h = WittVector.from_coeffs({1: s}, 4)
        assert trace(h) == SparsePoly.const(uni, 1) + s

    def test_two_variable_pairing(self):
        uni = symbol_universe("wt_su", ["s", "u"], nilpotent_order=2)
        s, u = SparsePoly.gen(uni, "s"), SparsePoly.gen(uni, "u")
        p = pairing(WittVector.from_coeffs({1: s}, 4),
                    WittVector.from_coeffs({1: u}, 4))
        assert p == SparsePoly.const(uni, 1) + s * u

    def test_zero_ghosts_annihilate_pairing(self):
        uni = symbol_universe("wt_s4", ["s"], nilpotent_order=4)
        s = SparsePoly.gen(uni, "s")
        h = WittVector.from_coeffs({1: s, 3: s * s}, 5)
        assert pairing(h, witt_zero(5)) == 1

    def test_scalar_coefficients_rejected(self):
        h = WittVector.from_coeffs({1: Fraction(1, 2)}, 3)
        with pytest.raises(DomainError):
            trace(h)

    def test_constant_part_rejected(self):
        uni = symbol_universe("wt_s5", ["s"], nilpotent_order=5)
        s = SparsePoly.gen(uni, "s")
        h = WittVector.from_coeffs({1: s + 1}, 3)
        with pytest.raises(DomainError):
            trace(h)

    def test_non_nilpotent_generator_rejected(self):
        uni = symbol_universe("wt_free", ["v"])   # no nilpotency declared
        v = SparsePoly.gen(uni, "v")
        with pytest.raises(DomainError):
            trace(WittVector.from_coeffs({1: v}, 3))


class TestNondegeneracy:
    def test_gram_is_signed_diagonal(self):
        w = nondegeneracy_witness(6, 7)
        assert w.ok and w.directions_paired
        for i in range(6):
            for j in range(6):
                want = Fraction((-1) ** i * (i + 1)) if i == j else 0
                assert w.gram[i][j] == want
        assert w.determinant == Fraction(-720)

    def test_smaller_truncation(self):
        w = nondegeneracy_witness(3, 4)
        assert w.ok
        assert [w.gram[i][i] for i in range(3)] == [1, -2, 3]


# ---------------------------------------------------------------------------
# subfunctor criteria
# ---------------------------------------------------------------------------

class TestSubfunctor:
    def test_square_free_generators_pass_parity(self):
        h = WittVector(TruncatedSeries.univariate(
            "T", {i: (QElement.one() if i == 0 else QElement.gen(i))
                  for i in range(0, 11)}, 10))
        assert q_subfunctor_check(h).ok

    def test_unit_fails_parity(self):
        w = q_subfunctor_check(witt_unit(6))
        assert not w.ok
        assert w.residual.coefficient(2) == -1   # h(-T)h(T) = 1 - T^2

    def test_odd_exponential_passes(self):
        h = ghost_inverse([Fraction(3), 0, Fraction(5), 0, Fraction(-7), 0])
        assert q_subfunctor_check(h).ok

    def test_root_of_unity_two(self):
        w = root_of_unity_check(witt_unit(6), 2)
        assert not w.ok
        assert w.offending[0] == (2, -1)

    def test_root_of_unity_three(self):
        g = GhostVector((Fraction(1), Fraction(-2), Fraction(0),
                         Fraction(5), Fraction(3), Fraction(0)))
        h = ghost_inverse(g)
        assert root_of_unity_check(h, 3).ok
        assert not root_of_unity_check(witt_unit(6), 3).ok
        with pytest.raises(DomainError):
            root_of_unity_check(h, 1)


class TestDeformedGenerators:
    def test_limit_is_complete_homogeneous(self):
        h = hl_q_gen(0, 5)
        p1 = SparsePoly.gen(UPS, 1)
        p2 = SparsePoly.gen(UPS, 2)
        assert h.series.coefficient(1) == p1
        assert h.series.coefficient(2) == (p1 * p1 + p2) * Fraction(1, 2)
        # power sums of the t = 0 series are the formal generators
        ps = power_sums(h)
        assert all(ps[n - 1] == SparsePoly.gen(UPS, n) for n in range(1, 6))

    def test_collapse_at_one(self):
        assert hl_q_gen(1, 5).series == TruncatedSeries.univariate(
            "T", {0: 1}, 5)

    def test_odd_doubling_matches_square_free_series(self):
        # At t = -1 only odd power sums survive, doubled; substituting the
        # odd-index half-weight generators recovers the square-free
        # generator series coefficient by coefficient.
        N = 7
        h = hl_q_gen(-1, N)
        images = {n: SparsePoly.gen(UX, (n - 1) // 2)
                  for n in range(1, N + 1, 2)}
        for i in range(1, N + 1):
            c = h.series.coefficient(i)
            got = c.substitute(images, UX) if isinstance(c, SparsePoly) else c
            assert got == q_in_x(i)


# ---------------------------------------------------------------------------
# binomials and power-sum operators
# ---------------------------------------------------------------------------

class TestBinomial:
    def test_values(self):
        assert gbinom(5, 2) == 10
        assert gbinom(2, 5) == 0
        assert gbinom(-1, 3) == -1
        assert gbinom(-2, 3) == -4
        assert gbinom(-3, 1) == -3
        assert gbinom(0, 0) == 1
        with pytest.raises(DomainError):
            gbinom(3, -1)


def hall_inner(a: SparsePoly, b: SparsePoly):
    """Hall pairing in the reduced power-sum basis.

    <p~_lam, p~_mu> = 0 unless lam = mu, where it is
    prod_n (mult_n)! / n^{mult_n}.
    """
    if a.universe != UPS or b.universe != UPS:
        raise IncompatibleOperands("Hall pairing lives on power-sum polynomials")
    total = Fraction(0)
    mb = b.monomials()
    for mono, ca in a.monomials().items():
        cb = mb.get(mono)
        if cb is None:
            continue
        norm = Fraction(1)
        for k, e in mono:
            norm *= Fraction(math.factorial(e), k ** e)
        total = total + ca * cb * norm
    return total


def matrix_element(op: VertexOperator, dual_target: SparsePoly,
                   source: SparsePoly) -> dict:
    """<dual_target, op(z) source> as {z-exponent: scalar}."""
    out = {}
    for ez, res in vertex_apply(op, source).items():
        val = hall_inner(dual_target, res)
        if val:
            out[ez] = val
    return out


def _random_power_sum_poly(rng, wmax):
    """A sum of one to three power-sum monomials of weight 0..wmax."""
    poly = SparsePoly.zero(UPS)
    for _ in range(rng.randint(1, 3)):
        powers, left = {}, rng.randint(0, wmax)
        while left:
            n = rng.randint(1, left)
            powers[n] = powers.get(n, 0) + 1
            left -= n
        poly = poly + SparsePoly.monomial(
            UPS, powers, Fraction(rng.choice([-3, -1, 1, 2, 5]),
                                  rng.randint(1, 4)))
    return poly


def _apply_sd_every_monomial(op, state):
    """{z: state}: each table monomial applied on its own, the dual factors
    (d, m) as (1/m) d/dp~_m first, then the multiplications."""
    out = {}
    for ez, poly in op.table.items():
        acc = SparsePoly.zero(UPS)
        for mono, c in poly.monomials().items():
            term, mult = state * c, {}
            for (side, m), e in mono:
                if side == "d":
                    for _ in range(e):
                        term = term.differentiate(m) * Fraction(1, m)
                else:
                    mult[m] = e
            acc = acc + term * SparsePoly.monomial(UPS, mult)
        if acc:
            out[ez] = acc
    return out


class TestPowerSumOperator:
    def test_table_coefficients_at_zero_deformation(self):
        table = vertex_Y_powersum(1, 0, weight_cap=3).table
        assert table[0] == SparsePoly.monomial(SD, {("s", 1): 1})
        # spot values straight from the binomial formula
        assert table[1].coefficient({("s", 2): 1}) == 2
        assert table[2].coefficient({("s", 3): 1}) == 3
        assert table[-2].coefficient({("d", 1): 1}) == 1
        assert table[-3].coefficient({("d", 2): 1}) == -2
        assert table[-4].coefficient({("d", 3): 1}) == 3

    def test_diagonal_term(self):
        for n in (1, 2, 3):
            table = vertex_Y_powersum(n, 0, weight_cap=4).table
            assert table[0].coefficient({("s", n): 1}) == 1

    def test_degenerate_deformation_rejected(self):
        with pytest.raises(DomainError):
            vertex_Y_powersum(2, 1, weight_cap=4)
        with pytest.raises(DomainError):
            vertex_Y_powersum(0, 0, weight_cap=4)

    def test_rational_deformation(self):
        t = Fraction(1, 2)
        table = vertex_Y_powersum(1, t, weight_cap=3).table
        # ratio (1 - t^m)/(1 - t) at m = 2 is 3/2; times binom(2,1) = 2
        assert table[1].coefficient({("s", 2): 1}) == 3

    def test_matrix_element_read_off(self):
        op = vertex_Y_powersum(1, 0, weight_cap=5)
        one = SparsePoly.const(UPS, 1)
        p1 = SparsePoly.gen(UPS, 1)
        assert matrix_element(op, p1, one) == {0: 1}

    def test_apply_derivation_side(self):
        op = vertex_Y_powersum(1, 0, weight_cap=4)
        p1 = SparsePoly.gen(UPS, 1)
        out = vertex_apply(op, p1)
        # z^{-2} entry: dual p~_1 acting on p~_1 gives the constant 1
        assert out[-2] == SparsePoly.const(UPS, 1)
        # z^0 entry: multiplication by p~_1
        assert out[0] == p1 * p1

    @given(st.integers(1, 5), st.sampled_from([0, Fraction(1, 2),
                                               Fraction(-2, 3), 2]),
           st.integers(0, 10 ** 6))
    def test_apply_matches_every_monomial_of_the_table(self, cap, t, seed):
        rng = random.Random(seed)
        b = _random_power_sum_poly(rng, 4)
        state = _random_power_sum_poly(rng, 5)
        op = vertex_Y_element(b, t, weight_cap=cap)
        out = vertex_apply(op, state)
        ref = _apply_sd_every_monomial(op, state)
        assert out == ref
        assert {e: repr(p) for e, p in out.items()} == \
            {e: repr(p) for e, p in ref.items()}

    def test_apply_matches_every_monomial_on_dual_squares(self):
        # squared generators put squared dual modes into the table, and
        # (1/m d/dp~_m)^2 must divide by m twice
        p1, p2 = SparsePoly.gen(UPS, 1), SparsePoly.gen(UPS, 2)
        state = p2 ** 3 + p1 ** 2 * p2 - 3 * p1 ** 3
        for t in (0, Fraction(1, 2)):
            op = vertex_Y_element(p1 ** 2 + p2 ** 2, t, weight_cap=6)
            assert vertex_apply(op, state) == \
                _apply_sd_every_monomial(op, state)


def _old_powersum_table(n, t, cap):
    """The z-table of Y(p~_n) as the dict-of-polynomials code built it."""
    if isinstance(t, CycloRational):
        inv_den = (1 - t ** n).inv()
        ratio = lambda m: (1 - t ** m) * inv_den
    else:
        ratio = lambda m: (1 - Fraction(t) ** m) / (1 - Fraction(t) ** n)
    table = {}
    for m in range(1, cap + 1):
        r = ratio(m)
        for e, key, c in ((m - n, ("s", m), r * witt.gbinom(m, n)),
                          (-m - n, ("d", m), r * witt.gbinom(-m, n) * (-1) ** m)):
            if c:
                table[e] = table.get(e, SparsePoly.zero(SD)) + \
                    SparsePoly.monomial(SD, {key: 1}, c)
    return {e: p for e, p in sorted(table.items()) if p}


def _old_op_product(a, b, cap):
    """The z-convolution of two tables, each product truncated at the cap."""
    table = {}
    for ea, pa in a.items():
        for eb, pb in b.items():
            prod = (pa * pb).weight_truncate(cap)
            if prod:
                table[ea + eb] = table.get(ea + eb, SparsePoly.zero(SD)) + prod
    return {e: p for e, p in sorted(table.items()) if p}


def _old_vertex_Y_element(b, t, cap):
    """Each monomial as an e-fold product of generator tables, summed."""
    total = {}
    for mono, c in sorted(b.monomials().items()):
        op = {0: SparsePoly.const(SD, 1)}
        for k, e in mono:
            for _ in range(e):
                op = _old_op_product(op, _old_powersum_table(k, t, cap), cap)
        for ez, poly in op.items():
            if poly * c:
                total[ez] = total.get(ez, SparsePoly.zero(SD)) + poly * c
    return {e: p for e, p in sorted(total.items()) if p}


def _reprs(table):
    return {e: repr(p) for e, p in table.items()}


_DEFORMATIONS = [0, Fraction(1, 2), CycloRational.root(5)]


class TestSeriesOperators:
    @given(st.integers(1, 6), st.sampled_from(_DEFORMATIONS),
           st.integers(0, 10 ** 6))
    def test_element_tables_match_the_dict_tables(self, cap, t, seed):
        rng = random.Random(seed)
        b = _random_power_sum_poly(rng, 4)
        op = vertex_Y_element(b, t, weight_cap=cap)
        old = _old_vertex_Y_element(b, t, cap)
        assert op.table == old
        assert _reprs(op.table) == _reprs(old)
        assert op.label == f"Y({b!r})" and op.weight_cap == cap

    @given(st.integers(1, 6), st.integers(1, 6), st.sampled_from(_DEFORMATIONS),
           st.integers(0, 10 ** 6))
    def test_products_match_the_convolution(self, cap_a, cap_b, t, seed):
        rng = random.Random(seed)
        a = vertex_Y_element(_random_power_sum_poly(rng, 3), t,
                             weight_cap=cap_a)
        b = vertex_Y_powersum(rng.randint(1, 4), t, weight_cap=cap_b)
        prod, cap = a * b, min(cap_a, cap_b)
        old = _old_op_product(a.table, b.table, cap)
        assert prod.table == old
        assert _reprs(prod.table) == _reprs(old)
        assert prod.label == f"{a.label}*{b.label}"
        assert prod.weight_cap == cap
        assert (prod * 3).table == {e: 3 * p for e, p in old.items()}
        assert (prod + a).table == _old_sum(old, {
            e: p.weight_truncate(cap) for e, p in a.table.items()})

    @given(st.integers(1, 6), st.sampled_from(_DEFORMATIONS),
           st.integers(0, 10 ** 6))
    def test_no_table_shows_the_z_key(self, cap, t, seed):
        b = _random_power_sum_poly(random.Random(seed), 4)
        op = vertex_Y_element(b, t, weight_cap=cap)
        assert all(key[0] in ("s", "d") and key[1] >= 1
                   for poly in op.table.values() for key in poly.gens())
        assert all(isinstance(c, SparsePoly) and c.universe == SD
                   for c in op.series.coeffs.values())

    def test_sd_refuses_low_modes_and_foreign_z_keys(self):
        z = SparsePoly.gen(SD, witt.Z, -3)   # the one z key, inverted
        assert repr(z * SparsePoly.gen(SD, ("s", 2))) == "p2*z^-3"
        for key in (("s", 0), ("d", -1), ("z", 1), ("t", 0)):
            with pytest.raises(DomainError):
                SparsePoly.gen(SD, key)
        with pytest.raises(DomainError):
            SparsePoly.gen(SD, ("s", 1), -1)


def _old_sum(a, b):
    out = dict(a)
    for e, p in b.items():
        out[e] = out[e] + p if e in out else p
    return {e: p for e, p in sorted(out.items()) if p}


class TestHallPairing:
    def test_norms(self):
        p1 = SparsePoly.gen(UPS, 1)
        p2 = SparsePoly.gen(UPS, 2)
        assert hall_inner(p1, p1) == 1
        assert hall_inner(p2, p2) == Fraction(1, 2)
        assert hall_inner(p1 * p1, p1 * p1) == 2
        assert hall_inner(p1 * p2, p1 * p2) == Fraction(1, 2)
        assert hall_inner(p1, p2) == 0

    def test_duality_normalization(self):
        # the dual key acts as (1/m) d/dp~_m, matching <p~_m, p~_m> = 1/m
        p3 = SparsePoly.gen(UPS, 3)
        assert hall_inner(p3, p3) == Fraction(1, 3)


# ---------------------------------------------------------------------------
# generating-function cross-check and multiplicativity
# ---------------------------------------------------------------------------

class TestGammaRoute:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_log_extraction_matches_mode_formula(self, n):
        w = gamma_log_check(n, weight_cap=5)
        assert w.ok, w.mismatches


class TestMultiplicativity:
    def test_identity_element(self):
        one = SparsePoly.const(UPS, 1)
        p1 = SparsePoly.gen(UPS, 1)
        w = Y_multiplicativity_check(one, p1, weight_cap=5, window=(-6, 6))
        assert w.ok

    def test_basic_pairs(self):
        p1 = SparsePoly.gen(UPS, 1)
        p2 = SparsePoly.gen(UPS, 2)
        for b, bp in [(p1, p1), (p1, p2), (p2, p2), (p1 * p1, p1)]:
            w = Y_multiplicativity_check(b, bp, weight_cap=6, window=(-8, 8))
            assert w.ok, (b, bp, w.mismatches[:2])

    def test_complete_homogeneous_pair(self):
        p1 = SparsePoly.gen(UPS, 1)
        p2 = SparsePoly.gen(UPS, 2)
        h1 = p1
        h2 = (p1 * p1 + p2) * Fraction(1, 2)
        w = Y_multiplicativity_check(h1, h2, weight_cap=6, window=(-9, 9))
        assert w.ok

    def test_cap_stability(self):
        p1 = SparsePoly.gen(UPS, 1)
        for cap in (5, 7):
            assert Y_multiplicativity_check(
                p1, p1, weight_cap=cap, window=(-6, 6)).ok

    def test_empty_window_is_inconclusive(self):
        p1 = SparsePoly.gen(UPS, 1)
        w = Y_multiplicativity_check(p1, p1, weight_cap=5, window=(30, 33))
        assert w.status == "inconclusive"
        assert not w.ok

    def test_window_validation(self):
        p1 = SparsePoly.gen(UPS, 1)
        with pytest.raises(DomainError):
            Y_multiplicativity_check(p1, p1, weight_cap=5, window=(3, -3))


class TestRootOfUnityClosure:
    def test_prime_order_exact(self):
        r = closure_report(1, 3, weight_cap=9)
        assert r.method == "cyclotomic"
        assert r.ok
        assert r.killed_modes == (3, 6, 9)
        assert r.leaking_modes == ()

    def test_operator_table_drops_killed_modes(self):
        t = CycloRational.root(3)
        op = vertex_Y_powersum(2, t, weight_cap=7)
        modes = {k[1] for poly in op.table.values() for k in poly.gens()}
        assert modes.isdisjoint({3, 6})
        assert {1, 2, 4, 5, 7} <= modes

    def test_divided_index_rejected(self):
        with pytest.raises(DomainError):
            closure_report(6, 3, weight_cap=5)
        t = CycloRational.root(3)
        with pytest.raises(DomainError):
            vertex_Y_powersum(3, t, weight_cap=5)

    def test_composite_order_reports_divisibility(self):
        r = closure_report(1, 4, weight_cap=8)
        assert r.method == "divisibility"
        assert r.ok
        assert r.killed_modes == (4, 8)

    def test_order_validation(self):
        with pytest.raises(DomainError):
            closure_report(1, 1, weight_cap=4)


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

_ORACLE_GRAMS = [((1,),), ((2,),), ((4,),), ((2, 1), (1, 2)),
                 ((2, -1), (-1, 2)), ((2, 0), (0, 4)), ((1, 2), (2, -3))]


def _is_even(L):
    return all(L.gram[i][i] % 2 == 0 for i in range(L.rank))


def lattice_sd_universe(rank):
    """Operator-side symbols: ("s"|"d", direction, n)."""
    def weight(key):
        side, d, n = key
        if side not in ("s", "d") or not (0 <= d < rank) or n < 1:
            raise DomainError(f"bad lattice operator symbol {key!r}")
        return n

    return Universe(name=f"latsd{rank}",
                    fmt=lambda k: (f"p{k[2]}[{k[1]}]" if k[0] == "s"
                                   else f"pd{k[2]}[{k[1]}]"),
                    weight=weight)


def _lattice_table(op):
    """The mixed mode table of a lattice operator over the operator
    universe: z-exponent -> sum of creation[c] * annihilation[a] over
    c - a = e and c + a <= weight_cap."""
    uni = lattice_sd_universe(op.lattice.rank)

    def rename(poly, side):
        return SparsePoly(uni, {tuple(((side,) + k, x) for k, x in mono): c
                                for mono, c in poly.monomials().items()})

    creation = [rename(p, "s") for p in op.creation]
    table = {}
    for a, ann in enumerate(op.annihilation):
        dual = rename(ann, "d")
        for c in range(op.weight_cap - a + 1):
            prod = creation[c] * dual
            table[c - a] = table[c - a] + prod if c - a in table else prod
    return {e: p for e, p in sorted(table.items()) if p}


def _mixed_mode_table(point, L, cap):
    """exp of the whole mode sum (multiplication and dual modes together),
    power by power, every power truncated at total weight cap."""
    uni = lattice_sd_universe(L.rank)
    zero = SparsePoly.zero(uni)
    dual = L.pairing_vector(point)
    modes = {}
    for n in range(1, cap + 1):
        for d in range(L.rank):
            modes[n] = modes.get(n, zero) + point[d] * SparsePoly.gen(
                uni, ("s", d, n))
            modes[-n] = modes.get(-n, zero) + dual[d] * (-1) ** n * \
                SparsePoly.gen(uni, ("d", d, n))
    table = {0: SparsePoly.const(uni, 1)}
    power = dict(table)
    for j in range(1, cap + 1):
        nxt = {}
        for e1, p1 in power.items():
            for e2, p2 in modes.items():
                nxt[e1 + e2] = nxt.get(e1 + e2, zero) + \
                    (p1 * p2).weight_truncate(cap) * Fraction(1, j)
        power = nxt
        for e, p in power.items():
            table[e] = table.get(e, zero) + p
    return {e: p for e, p in table.items() if p}


def _apply_every_monomial(point, L, table, state):
    """{z: {component: poly}}: each table monomial applied on its own, the
    dual factors (d, n) as (1/n) d/dp~_n first, then the multiplications."""
    uni = lattice_universe(L.rank)
    out = {}
    for mu, poly in state.components.items():
        target = tuple(a + b for a, b in zip(mu, point))
        for e, entry in table.items():
            acc = SparsePoly.zero(uni)
            for mono, c in entry.monomials().items():
                term, mult = poly * c, SparsePoly.const(uni, 1)
                for (side, d, n), x in mono:
                    if side == "d":
                        for _ in range(x):
                            term = term.differentiate((d, n)) * Fraction(1, n)
                    else:
                        mult = mult * SparsePoly.gen(uni, (d, n), x)
                acc = acc + term * mult
            if acc:
                out.setdefault(e + L.inner(point, mu), {})[target] = acc
    return out


def _random_homogeneous_state(L, rng):
    """One or two components, each a homogeneous polynomial of weight 1-4."""
    uni = lattice_universe(L.rank)
    comps = {}
    for _ in range(rng.randint(1, 2)):
        mu = tuple(rng.randint(-1, 1) for _ in range(L.rank))
        w = rng.randint(1, 4)
        poly = SparsePoly.zero(uni)
        for _ in range(rng.randint(1, 3)):
            powers, left = {}, w
            while left:
                n = rng.randint(1, left)
                key = (rng.randrange(L.rank), n)
                powers[key] = powers.get(key, 0) + 1
                left -= n
            poly = poly + SparsePoly.monomial(
                uni, powers, Fraction(rng.choice([-3, -1, 1, 2, 5]),
                                      rng.randint(1, 4)))
        if poly:
            comps[mu] = poly
    return LatticeFockElement(L, comps)


class TestLattice:
    def test_validation(self):
        with pytest.raises(DomainError):
            LatticeData(((1, 2), (3, 4)))       # not symmetric
        with pytest.raises(DomainError):
            LatticeData(((1, 2),))              # not square
        L = LatticeData(((2, 1), (1, 4)))
        assert L.rank == 2 and _is_even(L)
        assert L.inner((1, 0), (0, 1)) == 1
        assert L.inner((1, 1), (1, 1)) == 8
        assert L.pairing_vector((1, 0)) == (2, 1)
        with pytest.raises(DomainError):
            L.inner((1,), (0, 1))
        # entries are ints, never rounded or parsed into one
        for bad in (2.7, True, "7", "a", None, float("inf"), Fraction(2)):
            with pytest.raises(DomainError, match="Gram entry"):
                LatticeData(((bad,),))
            with pytest.raises(DomainError, match="lattice coordinate"):
                L.inner((1, bad), (0, 1))

    def test_json_input(self):
        L = lattice_from_json('{"gram": [[2]]}')
        assert L.gram == ((2,),)
        assert lattice_from_json("[[2, 0], [0, 2]]").rank == 2
        assert lattice_from_json(b"[[-4]]").gram == ((-4,),)
        for bad in ('{"rows": 3}', "[[2.7]]", "[[true]]", '[["7"]]', '[["a"]]',
                    "[[null]]", "[[1e400]]", "[2]", "[[2]", "gram: 2",
                    b"\xff[[2]]"):
            with pytest.raises(DomainError):
                lattice_from_json(bad)

    def test_zero_point_is_identity(self):
        L = LatticeData(((2,),))
        uni = lattice_universe(1)
        state = LatticeFockElement(L, {(1,): SparsePoly.gen(uni, (0, 2))})
        op = vertex_Y_lattice((0,), L, weight_cap=4)
        out = lattice_apply(op, state)
        assert list(out) == [0]
        assert out[0].components == state.components

    def test_rank_one_shift_exponent(self):
        # <lam, lam> = 2 acting on mu = lam: the bare-vacuum component
        # appears exactly at z^{<lam,mu>} = z^2.
        L = LatticeData(((2,),))
        uni = lattice_universe(1)
        op = vertex_Y_lattice((1,), L, weight_cap=4)
        state = LatticeFockElement(L, {(1,): SparsePoly.const(uni, 1)})
        out = lattice_apply(op, state)
        assert out[2].components[(2,)] == SparsePoly.const(uni, 1)
        assert min(out) == 2    # dual modes die on the vacuum polynomial

    def test_grading_audit_rank_two(self):
        L = LatticeData(((2, -1), (-1, 2)))
        uni = lattice_universe(2)
        rng = random.Random(61)
        for lam in [(1, 0), (0, 1), (1, 1), (-1, 2)]:
            op = vertex_Y_lattice(lam, L, weight_cap=3)
            for mu in [(0, 0), (1, 0), (1, -1)]:
                # homogeneous monomial state
                mono = SparsePoly.monomial(
                    uni, {(rng.randint(0, 1), rng.randint(1, 2)): 1})
                state = LatticeFockElement(L, {mu: mono})
                assert lattice_grading_audit(op, state) == ()

    def test_mode_table_multiplicative_in_point(self):
        # exp of a linear-in-point mode sum: table(lam + lam') equals the
        # z-convolution of table(lam) and table(lam') truncated to the cap.
        L = LatticeData(((2, 0), (0, 4)))
        cap = 3
        a = vertex_Y_lattice((1, 0), L, weight_cap=cap)
        b = vertex_Y_lattice((0, 1), L, weight_cap=cap)
        c = vertex_Y_lattice((1, 1), L, weight_cap=cap)
        conv = {}
        for e1, p1 in _lattice_table(a).items():
            for e2, p2 in _lattice_table(b).items():
                prod = (p1 * p2).weight_truncate(cap)
                if prod:
                    key = e1 + e2
                    conv[key] = conv.get(key) + prod if key in conv else prod
        conv = {k: v for k, v in conv.items() if v}
        assert conv == _lattice_table(c)

    @given(st.sampled_from(_ORACLE_GRAMS), st.integers(1, 6),
           st.integers(0, 10 ** 6))
    def test_apply_matches_every_monomial_of_the_table(self, gram, cap, seed):
        rng = random.Random(seed)
        L = LatticeData(gram)
        point = tuple(rng.randint(-2, 2) for _ in range(L.rank))
        op = vertex_Y_lattice(point, L, weight_cap=cap)
        table = _mixed_mode_table(point, L, cap)
        assert _lattice_table(op) == table
        state = _random_homogeneous_state(L, rng)
        applied = lattice_apply(op, state)
        out = {e: elem.components for e, elem in applied.items()}
        ref = _apply_every_monomial(point, L, table, state)
        assert out == ref
        assert {e: {mu: repr(p) for mu, p in comps.items()}
                for e, comps in out.items()} == \
            {e: {mu: repr(p) for mu, p in comps.items()}
             for e, comps in ref.items()}
        assert lattice_grading_audit(op, state) == ()
        assert lattice_grading_audit(op, state, applied=applied) == ()

    def test_action_json_shape(self):
        L = LatticeData(((2,),))
        uni = lattice_universe(1)
        op = vertex_Y_lattice((1,), L, weight_cap=3)
        state = LatticeFockElement(L, {(0,): SparsePoly.gen(uni, (0, 1))})
        obj = lattice_action_obj(op, state)
        text = json.dumps(obj)
        assert json.loads(text) == obj
        assert obj["point"] == [1]
        assert all(set(e) == {"z", "component", "terms"}
                   for e in obj["entries"])

    def test_vertex_table_json_shape(self):
        obj = vertex_table_obj(vertex_Y_powersum(1, 0, weight_cap=3))
        assert obj["coefficients"]["z^0"] == {"p1": "1"}
        assert obj["coefficients"]["z^-3"] == {"pd2": "-2"}
        assert json.loads(json.dumps(obj)) == obj
