"""Witt vectors, ghost coordinates, trace pairing, and vertex operators.

Oracles: the symbolic identity (1+aT)*(1+bT) = 1+abT pins the ghost sign
convention; ghost components of 1+aT are the literal powers a^n; the
operator tables are cross-checked against an independent generating-
function route (gamma_log_check) and against hand-expanded binomials.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qgenus import witt
from qgenus.errors import DomainError, IncompatibleOperands, InvariantError
from qgenus.qfunctions import QElement, q_in_x
from qgenus.rings import CycloRational, SparsePoly, UPS, UX, symbol_universe
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
    hall_inner,
    hl_q_gen,
    lattice_action_obj,
    lattice_apply,
    lattice_from_json,
    lattice_grading_audit,
    lattice_universe,
    matrix_element,
    nondegeneracy_witness,
    op_product,
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


class TestPowerSumOperator:
    def test_table_coefficients_at_zero_deformation(self):
        op = vertex_Y_powersum(1, 0, weight_cap=3)
        assert op.entry(0) == SparsePoly.monomial(SD, {("s", 1): 1})
        # spot values straight from the binomial formula
        assert op.entry(1).coefficient({("s", 2): 1}) == 2
        assert op.entry(2).coefficient({("s", 3): 1}) == 3
        assert op.entry(-2).coefficient({("d", 1): 1}) == 1
        assert op.entry(-3).coefficient({("d", 2): 1}) == -2
        assert op.entry(-4).coefficient({("d", 3): 1}) == 3

    def test_diagonal_term(self):
        for n in (1, 2, 3):
            op = vertex_Y_powersum(n, 0, weight_cap=4)
            assert op.entry(0).coefficient({("s", n): 1}) == 1

    def test_degenerate_deformation_rejected(self):
        with pytest.raises(DomainError):
            vertex_Y_powersum(2, 1, weight_cap=4)
        with pytest.raises(DomainError):
            vertex_Y_powersum(0, 0, weight_cap=4)

    def test_rational_deformation(self):
        t = Fraction(1, 2)
        op = vertex_Y_powersum(1, t, weight_cap=3)
        # ratio (1 - t^m)/(1 - t) at m = 2 is 3/2; times binom(2,1) = 2
        assert op.entry(1).coefficient({("s", 2): 1}) == 3

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

class TestLattice:
    def test_validation(self):
        with pytest.raises(DomainError):
            LatticeData(((1, 2), (3, 4)))       # not symmetric
        with pytest.raises(DomainError):
            LatticeData(((1, 2),))              # not square
        L = LatticeData(((2, 1), (1, 4)))
        assert L.rank == 2 and L.is_even()
        assert L.inner((1, 0), (0, 1)) == 1
        assert L.inner((1, 1), (1, 1)) == 8
        assert L.pairing_vector((1, 0)) == (2, 1)
        with pytest.raises(DomainError):
            L.inner((1,), (0, 1))

    def test_json_input(self):
        L = lattice_from_json('{"gram": [[2]]}')
        assert L.gram == ((2,),)
        assert lattice_from_json("[[2, 0], [0, 2]]").rank == 2
        with pytest.raises(DomainError):
            lattice_from_json('{"rows": 3}')

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
        for e1, p1 in a.table.items():
            for e2, p2 in b.table.items():
                prod = (p1 * p2).weight_truncate(cap)
                if prod:
                    key = e1 + e2
                    conv[key] = conv.get(key) + prod if key in conv else prod
        conv = {k: v for k, v in conv.items() if v}
        assert conv == dict(c.table)

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
