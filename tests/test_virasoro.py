"""Oscillator/degree-operator tests and the intersection table, with the
string-equation and genus-0 closed forms as independent oracles."""

import hashlib
import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from qgenus.errors import DomainError, IncompatibleOperands, TruncationError
from qgenus.rings import SparsePoly, UT, UX, dfact_odd, double_factorial
from qgenus.virasoro import (AnnihilationReport, FockPoly, IntersectionTable,
                             _pack, _unpack,
                             alpha_apply, annihilation_check, canon_index,
                             correlator_weight, counts_from_degrees,
                             free_energy, genus_of, genus_zero_closed_form,
                             index_stats, l_apply, l_bracket_residual,
                             load_table, save_table, string_oracle,
                             table_audit, tau_series)

F = Fraction


def fock(poly) -> FockPoly:
    if not isinstance(poly, SparsePoly):
        poly = SparsePoly.const(UX, poly)
    return FockPoly(poly, 99)


def x(k, e=1):
    return SparsePoly.gen(UX, k, e)


SAMPLES = [
    fock(1),
    fock(x(0)),
    fock(x(0) ** 2 + 3 * x(1)),
    fock(x(0) * x(1) * x(2) - F(1, 2) * x(0) ** 3),
]


# ------------------------------------------------------------- oscillators

@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("l", [0, 1, 2])
@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_alpha_commutators(k, l, signs):
    r_half = signs[0] * (2 * k + 1)
    s_half = signs[1] * (2 * l + 1)
    p = SAMPLES[3]
    lhs = alpha_apply(r_half, alpha_apply(s_half, p)) - \
        alpha_apply(s_half, alpha_apply(r_half, p))
    if r_half + s_half == 0:
        expected = p.scale(F(r_half, 2))
    else:
        expected = p.scale(0)
    w = min(lhs.trusted, expected.trusted)
    assert lhs.through(w) == expected.through(w)


def test_alpha_rejects_integer_modes():
    with pytest.raises(DomainError):
        alpha_apply(2, SAMPLES[0])


# ---------------------------------------------------------- degree operators

def test_l_known_values():
    assert l_apply(1, fock(x(1))).poly == F(3, 2) * x(0)
    assert l_apply(0, fock(1)).poly == SparsePoly.const(UX, F(1, 16))
    assert l_apply(-2, fock(1)).poly == F(1, 2) * x(0) * x(1)
    assert l_apply(1, fock(x(0) ** 2)).poly == SparsePoly.const(UX, F(1, 2))


def test_central_term_on_vacuum():
    one = fock(1)
    got = l_apply(2, l_apply(-2, one)).poly - l_apply(-2, l_apply(2, one)).poly
    # = 4 L_0(1) + (2^3-2)/12 = 1/4 + 1/2
    assert got == SparsePoly.const(UX, F(3, 4))


@pytest.mark.parametrize("m,n", [(1, -1), (2, -2), (2, -1), (1, 0), (0, -1),
                                 (2, 1), (-1, -2), (3, -2), (0, 2), (-3, 2)])
@pytest.mark.parametrize("i", range(len(SAMPLES)))
def test_bracket_relations(m, n, i):
    res = l_bracket_residual(m, n, SAMPLES[i])
    assert res.is_zero_through(res.trusted), f"[{m},{n}] fails on sample {i}"


@pytest.mark.parametrize("m,n", [(0, -1), (1, -1), (2, -1), (1, 0), (2, 0),
                                 (2, 1)])
@pytest.mark.parametrize("i", range(len(SAMPLES)))
def test_shifted_bracket_relations(m, n, i):
    res = l_bracket_residual(m, n, SAMPLES[i], shifted=True)
    assert res.is_zero_through(res.trusted)


def test_shift_needs_n_at_least_minus_one():
    with pytest.raises(DomainError):
        l_apply(-2, SAMPLES[0], shifted=True)


@given(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2))
def test_l_zero_is_weight_grading(k, e, j):
    p = fock(x(k, e + 1) * x(k + j + 1))
    w = (e + 1) * (2 * k + 1) + 2 * (k + j + 1) + 1
    expected = p.scale(F(w, 2) + F(1, 16))
    got = l_apply(0, p)
    assert got.poly == expected.poly


# ------------------------------------------------------- coordinate change

def t_to_x(poly: SparsePoly) -> SparsePoly:
    """Correlator coordinates to odd coordinates: t_k -> -(2k-1)!! x_k."""
    if poly.universe != UT:
        raise IncompatibleOperands("expected the t-universe")
    mapping = {k: -dfact_odd(k) * SparsePoly.gen(UX, k) for k in poly.gens()}
    if not mapping:
        return SparsePoly.const(UX, poly.constant_term())
    return poly.substitute(mapping, universe=UX)


def x_to_t(poly: SparsePoly) -> SparsePoly:
    """Inverse coordinate change: x_k -> -t_k / (2k-1)!!."""
    if poly.universe != UX:
        raise IncompatibleOperands("expected the x-universe")
    mapping = {k: SparsePoly.gen(UT, k) * Fraction(-1, dfact_odd(k))
               for k in poly.gens()}
    if not mapping:
        return SparsePoly.const(UT, poly.constant_term())
    return poly.substitute(mapping, universe=UT)


def test_jozefiak_change_of_variables():
    t0, t2 = SparsePoly.gen(UT, 0), SparsePoly.gen(UT, 2)
    p = t0 ** 3 - 2 * t2
    img = t_to_x(p)
    assert img == -x(0) ** 3 + 6 * x(2)
    assert x_to_t(img) == p


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), max_size=3))
def test_jozefiak_round_trip(mono):
    powers = {}
    for k, e in mono:
        powers[k] = powers.get(k, 0) + e
    p = SparsePoly.monomial(UT, powers, F(3, 7))
    assert x_to_t(t_to_x(p)) == p


# ------------------------------------------------------ intersection table

@pytest.fixture(scope="module")
def table():
    return IntersectionTable().build_through(10)


def test_index_bookkeeping():
    assert canon_index((1, 0, 2, 0, 0)) == (1, 0, 2)
    assert index_stats((3, 1)) == (4, 1)
    assert counts_from_degrees([0, 0, 0, 1]) == (3, 1)
    assert genus_of((3,)) == 0
    assert genus_of((0, 0, 0, 0, 1)) == 2
    assert genus_of((2, 1)) is None  # the dimension constraint has no genus


def test_frozen_known_entries(table):
    assert table.value((3,)) == 1
    assert table.value((0, 1)) == F(1, 24)
    assert table.value((1, 0, 1)) == F(1, 24)
    assert table.value((0, 2)) == F(1, 24)
    assert table.value((3, 1)) == 1
    assert table.value((4, 0, 1)) == 1
    assert table.value((2, 0, 0, 1)) == F(1, 24)
    assert table.value((0, 0, 0, 0, 1)) == F(1, 1152)
    assert table.correlator([0, 0, 0]) == 1


def test_invalid_entries_are_rejected(table):
    with pytest.raises(DomainError):
        table.value((2, 1))
    with pytest.raises(DomainError):
        table.value(())
    with pytest.raises(TruncationError):
        table.value((0,) * 19 + (1,))  # valid (genus 7) but beyond build range


# sha256 of IntersectionTable().build_through(d).dumps(); any change to an
# entry or to the serialization shows here.
FROZEN_DUMPS_SHA256 = {
    10: "a36a028135428dfed3c23c29ec74ca4e35d2ffaa4e2f23aaa13b50a393fd7d4d",
    11: "3e2c0e81050ca1107f3739fe662e68191f91190971a0eff9e0a1dcd5488a9ae1",
    12: "e9259dc2c21d84c9ca881af6b0f69a23cc72e2702c4b0dbe455b52e5d1aab6bd",
    13: "a8e6c12ab6a727e4babc4e59a28287d9cb27364f862945f0e345d640f4e618b4",
    14: "18cfb416d9a9b56c62a2499d6ffd26ce23cc6fda9fdbb67ff764b601ce933144",
    16: "10a1a16ae9a8ae68a89e5c04c13d2adcdb7ac2f63b4f74aaa67469f5e039bbad",
}


@pytest.mark.parametrize("d", sorted(FROZEN_DUMPS_SHA256))
def test_frozen_table_digest(d):
    text = IntersectionTable().build_through(d).dumps()
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_DUMPS_SHA256[d]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_one_point_entries(table, g):
    # <tau_(3g-2)>_g = 1 / (24^g g!)
    K = (0,) * (3 * g - 2) + (1,)
    assert genus_of(K) == g
    assert table.value(K) == F(1, 24 ** g * factorial(g))


def test_two_point_genus_two(table):
    assert table.value((0, 0, 1, 1)) == F(29, 5760)


def test_unbuilt_entry_raises_truncation():
    # (0, 0, 0, 0, 0, 0, 0, 1) is a valid genus-3 entry of degree 7
    part = IntersectionTable().build_through(6)
    with pytest.raises(TruncationError):
        part._v((0,) * 7 + (1,))
    # a constraint whose inputs are missing says so instead of a KeyError
    del part.values[(0, 0, 0, 0, 1)]
    with pytest.raises(TruncationError):
        part._constraint_value((1, 0, 0, 0, 0, 1))


# ---- the constraint on Fractions, as the table kernel computed it before
# it moved to scaled integers on packed keys: the reference for that kernel

def _ref_strip(K):
    n = len(K)
    while n and not K[n - 1]:
        n -= 1
    return tuple(K[:n])


def _ref_plus(K, j):
    if j < len(K):
        return K[:j] + (K[j] + 1,) + K[j + 1:]
    return K + (0,) * (j - len(K)) + (1,)


def _ref_splittings(K, lo, hi):
    def cons(a, A):
        return (a,) + A if a or A else ()

    c0 = K[0] if K else 0
    parts = [((), (), 1, 2)]
    for i in range(len(K) - 1, 0, -1):
        c = K[i]
        parts = [(cons(a, A), cons(c - a, B), mult * comb(c, a), t + (i - 1) * a)
                 for A, B, mult, t in parts for a in range(c + 1)
                 if t + (i - 1) * a <= hi + c0]
    groups = ([], [], [])
    for A, B, mult, t in parts:
        for a in range(max(t - hi, 0), min(t - lo, c0) + 1):
            groups[(t - a) % 3].append(
                (cons(a, A), cons(c0 - a, B), mult * comb(c0, a), t - a))
    return groups


def _ref_constraint_sum(values, T, d=None):
    """The entry T from the constraint that removes one insertion of
    degree d (default: the top degree, the route the kernel once took)."""
    d = len(T) - 1 if d is None else d
    nc = d - 1 if d else -1
    base = list(T)
    base[d] -= 1
    base = _ref_strip(base)
    n, s = index_stats(T)
    g3 = s - n + 3
    acc = {}
    for m, cnt in enumerate(base):
        if cnt and m + nc >= 0:
            child = list(base) + [0] * (m + nc + 1 - len(base))
            child[m] -= 1
            child[m + nc] += 1
            v = values[_ref_strip(child)]
            den = double_factorial(2 * m - 1) * v.denominator
            acc[den] = (acc.get(den, 0) + cnt * v.numerator
                        * double_factorial(2 * (m + nc) + 1))
    j_top = (nc - 1) // 2
    splits = _ref_splittings(base, -j_top, g3) if nc > 0 else ((), (), ())
    for j in range(j_top + 1):
        jp = nc - 1 - j
        w = double_factorial(2 * j + 1) * double_factorial(2 * jp + 1)
        half = 1 if j < jp else 2
        if g3:
            conn = list(base) + [0] * (jp + 1 - len(base))
            conn[j] += 1
            conn[jp] += 1
            v = values[_ref_strip(conn)]
            den = half * v.denominator
            acc[den] = acc.get(den, 0) + w * v.numerator
        for A, B, mult, t in splits[-j % 3]:
            if 0 <= t + j <= g3:
                a = values[_ref_plus(A, j)]
                b = values[_ref_plus(B, jp)]
                den = half * a.denominator * b.denominator
                acc[den] = (acc.get(den, 0)
                            + w * mult * a.numerator * b.numerator)
    if nc == -1 and base == (2,):
        acc[1] = acc.get(1, 0) + 1
    if nc == 0 and base == ():
        acc[8] = acc.get(8, 0) + 1
    total = sum((Fraction(num, den) for den, num in acc.items()),
                Fraction(0))
    return total / double_factorial(2 * nc + 3)


@pytest.fixture(scope="module")
def table13():
    return IntersectionTable().build_through(13)


def test_kernel_matches_fraction_reference(table):
    for K, v in table.entries():
        assert v == _ref_constraint_sum(table.values, K), K


def test_constraint_value_matches_fraction_reference(table13):
    entries = sorted(table13.values)
    for K in random.Random(6).sample(entries, 120) + entries[-20:]:
        want = _ref_constraint_sum(table13.values, K)
        assert table13._constraint_value(K) == want == table13.values[K], K


def test_every_constraint_gives_the_same_table(table13):
    # each L_(d-1) with T_d > 0 determines T; the build takes one of them
    checked = 0
    for K, v in table13.entries():
        for d in range(1, len(K)):
            if K[d]:
                assert _ref_constraint_sum(table13.values, K, d) == v, (K, d)
                checked += 1
    assert checked > 2 * len(table13.values)


def test_continued_build_equals_fresh_build(table13):
    partial = IntersectionTable().build_through(7)
    assert partial.build_through(13).dumps() == table13.dumps()
    loaded = IntersectionTable.loads(IntersectionTable().build_through(7).dumps())
    assert loaded.build_through(13).dumps() == table13.dumps()


def test_key_field_overflow_raises_at_the_boundary():
    assert _unpack(_pack((255, 0, 3))) == (255, 0, 3)
    with pytest.raises(DomainError):
        _pack((256,))
    with pytest.raises(DomainError):
        _pack((1, 0, 256))
    # degree 252 still fits every count (at most 255); degree 253 does not,
    # and the build refuses it before touching the table
    part = IntersectionTable().build_through(2)
    with pytest.raises(DomainError):
        part.build_through(253)
    assert part.complete_through == 2


def test_non_dyadic_value_is_rejected_not_truncated():
    # 2^11 * 15!! / (82944 * 17) is not an integer, so no true intersection
    # number can be 1/(82944 * 17) at <tau_7>_3 (the true one is 1/82944);
    # <tau_0 tau_8>_3 of degree 8 reads it
    bad = IntersectionTable.loads(IntersectionTable().build_through(7).dumps())
    bad.values[(0,) * 7 + (1,)] = F(1, 82944 * 17)
    size = len(bad.values)
    with pytest.raises(DomainError, match="not an intersection number"):
        bad.build_through(9)
    assert (bad.complete_through, len(bad.values)) == (7, size)
    with pytest.raises(DomainError, match="not an intersection number"):
        bad._constraint_value((1,) + (0,) * 7 + (1,))
    faults = table_audit(bad)
    assert faults and all("not an intersection number" in f for f in faults)


def test_string_equation_oracle(table):
    checked = 0
    for K, v in table.entries():
        if K and K[0] >= 1 and K != (3,):
            assert string_oracle(table, K) == v, f"string oracle fails at {K}"
            checked += 1
    assert checked > 10


def test_dilaton_relation(table):
    # removing one degree-1 insertion rescales by 2g - 2 + (n-1)
    checked = 0
    for K, v in table.entries():
        if len(K) >= 2 and K[1] >= 1:
            base = list(K)
            base[1] -= 1
            base = canon_index(base)
            g = genus_of(K)
            n, _ = index_stats(K)
            if genus_of(base) is not None and 2 * g - 2 + (n - 1) > 0:
                assert v == (2 * g - 2 + n - 1) * table.value(base)
                checked += 1
    assert checked > 5


def test_genus_zero_closed_form(table):
    checked = 0
    for K, v in table.entries():
        if genus_of(K) == 0:
            assert v == genus_zero_closed_form(K), K
            checked += 1
    assert checked > 10
    # the closed form rejects entries of other genera
    with pytest.raises(DomainError):
        genus_zero_closed_form((0, 1))


def test_audit_passes_built_table(table):
    assert table_audit(table) == []


def test_audit_catches_every_altered_entry():
    built = IntersectionTable().build_through(7)
    for K in built.values:
        copy = IntersectionTable.loads(built.dumps())
        copy.values[K] += F(1, 10 ** 9)
        assert table_audit(copy), f"altered {K} passes the audit"


@pytest.mark.parametrize("K,route", [
    ((3,), "genus-0 closed form"), ((1, 0, 0, 0, 0, 1), "string equation"),
    ((0, 2), "dilaton relation"), ((0, 0, 1, 1), "constraint"),
    ((0, 1), "constraint")])
def test_audit_names_the_route(K, route):
    copy = IntersectionTable().build_through(7)
    copy.values[K] += 1
    own = [f for f in table_audit(copy) if f.startswith(f"{K} = ")]
    assert own and all(route in f for f in own)


def test_audit_catches_missing_and_extra_entries():
    built = IntersectionTable().build_through(5)
    short = IntersectionTable.loads(built.dumps())
    del short.values[(0, 0, 1, 1)]
    assert "missing" in table_audit(short)[0]
    long = IntersectionTable.loads(built.dumps())
    long.values[(2, 1)] = F(1)   # no genus fits (2, 1)
    assert table_audit(long)
    deep = IntersectionTable.loads(built.dumps())
    deep.complete_through = 10 ** 9
    assert "missing" in table_audit(deep)[0]


def test_cache_load_audits(tmp_path, capsys):
    path = tmp_path / "sub" / "table.json"
    assert load_table(path).complete_through == -1   # no file yet
    built = IntersectionTable().build_through(5)
    save_table(path, built)
    assert path.read_text() == built.dumps()
    assert dict(load_table(path).entries()) == dict(built.entries())
    assert capsys.readouterr().err == ""
    path.write_text(built.dumps().replace('"29/5760"', '"29/5761"'))
    assert load_table(path).complete_through == -1
    assert "fails its audit" in capsys.readouterr().err
    for text in ("[]", built.dumps().replace('"29/5760"', '"1/0"')):
        path.write_text(text)
        assert load_table(path).complete_through == -1
        assert "is unusable" in capsys.readouterr().err


def test_table_json_round_trip(table):
    clone = IntersectionTable.loads(table.dumps())
    assert clone.complete_through == table.complete_through
    assert dict(clone.entries()) == dict(table.entries())
    with pytest.raises(DomainError):
        IntersectionTable.loads('{"format": "something-else"}')


# ------------------------------------------------- generating function

def test_free_energy_low_weight_coefficients(table):
    Fgen = free_energy(9, table)
    assert Fgen.poly.coefficient({0: 3}) == -F(1, 6)
    assert Fgen.poly.coefficient({1: 1}) == -F(1, 24)
    assert Fgen.poly.coefficient({0: 3, 1: 1}) == F(1, 6)
    assert correlator_weight((3, 1)) == 6


def test_tau_series_combines_exponential(table):
    tau = tau_series(7, table)
    assert tau.poly.constant_term() == 1
    assert tau.poly.coefficient({0: 3}) == -F(1, 6)
    assert tau.poly.coefficient({0: 6}) == F(1, 72)


def _tau_series_then_truncate(weight, table) -> FockPoly:
    """``tau_series`` before the cut, kept as a reference: each power of
    the generating function formed whole, then truncated at the weight."""
    Fgen = free_energy(weight, table).poly
    acc = power = SparsePoly.const(UX, 1)
    k = 1
    while True:
        power = (power * Fgen).weight_truncate(weight)
        if not power:
            break
        acc = acc + power * F(1, factorial(k))
        k += 1
    return FockPoly(acc, weight)


@pytest.mark.parametrize("weight", [0, 1, 4, 9, 13])
def test_cut_tau_series_matches_the_old_tau_series(weight, table):
    got, want = tau_series(weight, table), _tau_series_then_truncate(
        weight, table)
    assert got == want and repr(got.poly) == repr(want.poly)
    assert ({m: type(c) for m, c in got.poly.terms.items()}
            == {m: type(c) for m, c in want.poly.terms.items()})


@pytest.mark.parametrize("n", [-1, 0, 1, 2])
def test_shifted_operators_annihilate_tau(n, table):
    report = annihilation_check(n, 6, table)
    assert isinstance(report, AnnihilationReport)
    assert report.ok, f"residual {report.residual}"


def test_wrong_shift_direction_fails():
    # guard on the convention: subtracting the shift term instead leaves
    # the string residual (1/2) x_0^2 at weight 2
    tau = tau_series(5)
    wrong = l_apply(-1, tau).poly - F(1, 2) * tau.poly.differentiate(0)
    assert wrong.weight_truncate(2) == F(1, 2) * x(0) ** 2


def test_free_energy_requires_complete_table(table):
    with pytest.raises(TruncationError):
        free_energy(50, table)
