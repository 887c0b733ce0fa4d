"""CLI surface: mini-grammar, subcommands, formats, cache, exit codes.

The README's console examples are executed verbatim at the bottom, so
every documented invocation stays honest.
"""

import hashlib
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from clirun import invoke
from qgenus.cli import (ExprError, UsageError, _Parser, _square_free, main,
                        parse_p_expr, parse_q_expr)
from qgenus.qfunctions import QElement
from qgenus.rings import SparsePoly, UPS
from qgenus.series import TruncatedSeries
from qgenus.virasoro import IntersectionTable


def run(*args, **kw):
    return invoke(args, **kw)


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

class TestGrammar:
    def test_precedence_and_reduction(self):
        e = parse_q_expr("q1^2 - 2*q2")
        assert e == QElement.zero()
        e = parse_q_expr("q3*q3 - 2*q1*q5")
        assert e == QElement.gen(3) ** 2 - 2 * QElement.gen(1) * QElement.gen(5)

    def test_unary_minus_and_parens(self):
        assert parse_q_expr("-(q1 - q1)") == QElement.zero()
        assert parse_q_expr("-2*(q1 + q1)") == -4 * QElement.gen(1)

    def test_rational_literals(self):
        assert parse_q_expr("1/2*q1") == QElement.monomial((1,), Fraction(1, 2))
        assert parse_q_expr("3") == QElement.monomial((), 3)

    def test_x_symbols_live_in_the_same_algebra(self):
        # 2*x0 is the first square-free generator
        assert parse_q_expr("2*x0") == QElement.gen(1)

    def test_power_sum_symbols(self):
        assert parse_p_expr("p2") == SparsePoly.gen(UPS, 2)
        p1, p2 = SparsePoly.gen(UPS, 1), SparsePoly.gen(UPS, 2)
        assert parse_p_expr("h2") == (p1 * p1 + p2) * Fraction(1, 2)

    @pytest.mark.parametrize("src,pos", [
        ("q1 @ q2", 3),
        ("q1 +", 4),
        ("(q1", 3),
        ("q1^1/2", 3),
        ("y7", 0),
        ("1/0", 0),
        ("q1 q2", 3),
        ("q1^29", 3),
        ("q14*(q1+q15)", 3),
        ("x14", 0),
        ("q29", 0),
    ])
    def test_errors_carry_positions(self, src, pos):
        for in_x in (False, True):  # both sides refuse at the same place
            with pytest.raises(ExprError) as err:
                _Parser(src, *_square_free(in_x)).parse()
            assert err.value.pos == pos

    def test_nesting_up_to_the_depth_limit(self):
        for in_x in (False, True):
            q1 = QElement.gen(1).to_x() if in_x else QElement.gen(1)
            assert parse_q_expr("(" * 100 + "q1" + ")" * 100, in_x=in_x) == q1
            assert parse_q_expr("-" * 100 + "q1", in_x=in_x) == q1
            # parentheses and minus signs count together
            for src, pos in (("(" * 101 + "q1" + ")" * 101, 100),
                             ("-" * 101 + "q1", 100), ("(-" * 51 + "q1", 100)):
                with pytest.raises(ExprError,
                                   match="more than 100 nested") as err:
                    _Parser(src, *_square_free(in_x)).parse()
                assert err.value.pos == pos

    def test_series_renderer(self):
        ts = TruncatedSeries.univariate(
            "T", {0: 1, 2: -1, 3: Fraction(1, 2)}, 4)
        assert repr(ts) == "1 - T^2 + 1/2*T^3 + O(T^5)"


# ---------------------------------------------------------------------------
# square-free commands
# ---------------------------------------------------------------------------

class TestAlgebraCommands:
    def test_qreduce_example(self):
        r = run("qreduce", "q1^2")
        assert r.exit_code == 0
        assert r.stdout == "2*q2\nx-basis: 4*x0^2\n"

    def test_qfunction_example(self):
        r = run("qfunction", "2,1")
        assert r.exit_code == 0
        assert r.stdout.splitlines()[0] == "q2*q1 - 2*q3"

    def test_qfunction_canonicalizes_order(self):
        assert run("qfunction", "1,2").stdout == run("qfunction", "2,1").stdout

    def test_inner_example(self):
        r = run("inner", "q1", "q1")
        assert r.exit_code == 0
        assert r.stdout == "2\n"

    def test_inner_json_has_both_bases(self):
        r = run("-f", "json", "inner", "q1", "q1")
        obj = json.loads(r.stdout)
        assert obj == {"value": "2", "left_x": "2*x0", "right_x": "2*x0"}

    def test_json_format(self):
        obj = json.loads(run("-f", "json", "qreduce", "q2^2").stdout)
        assert obj == {"q_basis": "2*q3*q1 - 2*q4", "x_basis":
                       json.loads(run("-f", "json", "qreduce",
                                      "2*q3*q1 - 2*q4").stdout)["x_basis"]}

    def test_parse_error_is_usage_error(self):
        r = run("qreduce", "q1 @ q2")
        assert r.exit_code == 2
        assert "position 3" in r.stderr

    def test_non_strict_partition_rejected(self):
        r = run("qfunction", "2,2")
        assert r.exit_code == 2
        assert "strict" in r.stderr

    def test_bad_partition_tokens(self):
        assert run("qfunction", "2,x").exit_code == 2
        assert run("qfunction", "0").exit_code == 2

    def test_csv_unsupported_here(self):
        r = run("-f", "csv", "qreduce", "q1")
        assert r.exit_code == 2
        assert "no CSV rendering" in r.stderr

    def test_unknown_format_is_a_usage_error(self):
        r = run("-f", "yaml", "qreduce", "q1")
        assert r.exit_code == 2 and r.stdout == ""

    @pytest.mark.parametrize("argv", [
        ("qreduce", "(" * 250 + "q1" + ")" * 250),
        ("qreduce", "--", "-" * 1200 + "q1"),
        ("inner", "q1", "(" * 250 + "q1" + ")" * 250),
        ("voa", "y-check", "--b", "-" * 1200 + "p1", "--bprime", "p1")],
        ids=["parentheses", "minus-signs", "inner", "y-check"])
    def test_deep_nesting_is_a_usage_error(self, argv):
        r = run(*argv)
        assert r.exit_code == 2, r.stderr
        assert "more than 100 nested parentheses and minus signs" in r.stderr


# ---------------------------------------------------------------------------
# intersection table
# ---------------------------------------------------------------------------

class TestIntersection:
    def test_seed_and_first_entries(self, tmp_path):
        r = run("intersection", "--max-weight", "3", "--no-cache")
        assert r.exit_code == 0
        lines = r.stdout.splitlines()
        assert "<tau_0^3> = 1" in lines
        assert "<tau_1> = 1/24" in lines

    def test_weight_four_includes_tau_one(self):
        r = run("intersection", "--max-weight", "4", "--no-cache")
        assert "<tau_1> = 1/24" in r.stdout.splitlines()

    def test_corrected_two_point_entry(self):
        # weight 6 covers the degree-1 four-point entry
        r = run("intersection", "--max-weight", "6", "--no-cache")
        assert "<tau_0^3 tau_1> = 1" in r.stdout.splitlines()

    def test_json_and_csv_forms(self):
        obj = json.loads(
            run("-f", "json", "intersection", "--max-weight", "4",
                "--no-cache").stdout)
        assert obj["format"] == "intersection-table/1"
        assert obj["entries"]["3"] == "1"
        assert obj["entries"]["0,1"] == "1/24"
        csv_out = run("-f", "csv", "intersection", "--max-weight", "4",
                      "--no-cache").stdout.splitlines()
        assert csv_out[0] == "index,n,genus,degree,weight,value,decimal"
        assert '"0,1",1,1,1,3,1/24,0.041666666666666664' in csv_out

    def test_cache_roundtrip_and_reuse(self, tmp_path):
        cache = tmp_path / "table.json"
        r1 = run("--cache-path", str(cache), "intersection",
                 "--max-weight", "6")
        assert r1.exit_code == 0 and cache.exists()
        saved = json.loads(cache.read_text())
        assert saved["format"] == "intersection-table/1"
        # second run answers a shallower query from the same cache,
        # stdout identical to a fresh computation
        r2 = run("--cache-path", str(cache), "intersection",
                 "--max-weight", "4")
        fresh = run("intersection", "--max-weight", "4", "--no-cache")
        assert r2.stdout == fresh.stdout

    def test_corrupt_cache_regenerates_with_warning(self, tmp_path):
        cache = tmp_path / "table.json"
        cache.write_text("not json at all {")
        r = run("--cache-path", str(cache), "intersection",
                "--max-weight", "3")
        assert r.exit_code == 0
        assert "regenerating" in r.stderr
        assert json.loads(cache.read_text())["format"] == "intersection-table/1"

    def test_altered_value_regenerates_with_warning(self, tmp_path):
        # well-formed JSON with one wrong number must not be served
        cache = tmp_path / "table.json"
        run("--cache-path", str(cache), "intersection", "--max-weight", "13")
        obj = json.loads(cache.read_text())
        assert obj["entries"]["0,0,1,1"] == "29/5760"
        obj["entries"]["0,0,1,1"] = "29/5761"
        cache.write_text(json.dumps(obj))
        r = run("--cache-path", str(cache), "intersection",
                "--max-weight", "13")
        assert r.exit_code == 0
        assert "warning" in r.stderr and "regenerating" in r.stderr
        fresh = run("intersection", "--max-weight", "13", "--no-cache")
        assert r.stdout == fresh.stdout and "29/5760" in r.stdout
        assert json.loads(cache.read_text())["entries"]["0,0,1,1"] == "29/5760"

    def test_deeply_nested_cache_regenerates(self, tmp_path):
        cache = tmp_path / "table.json"
        cache.write_text("[" * 100_000)
        r = run("--cache-path", str(cache), "intersection",
                "--max-weight", "3")
        assert r.exit_code == 0, r.stderr
        assert "unusable" in r.stderr and "regenerating" in r.stderr
        assert r.stdout == run("intersection", "--max-weight", "3",
                               "--no-cache").stdout
        assert json.loads(cache.read_text())["format"] == "intersection-table/1"

    def test_version_mismatch_recomputes(self, tmp_path):
        cache = tmp_path / "table.json"
        cache.write_text(json.dumps({"format": "intersection-table/0",
                                     "complete_through": 9, "entries": {}}))
        r = run("--cache-path", str(cache), "intersection",
                "--max-weight", "3")
        assert r.exit_code == 0
        assert "regenerating" in r.stderr

    def test_env_var_override(self, tmp_path):
        r = run("intersection", "--max-weight", "3",
                env={"QGENUS_CACHE_DIR": str(tmp_path)})
        assert r.exit_code == 0
        assert (tmp_path / "intersection.json").exists()

    def test_weight_cap(self):
        assert run("intersection", "--max-weight", "40").exit_code == 2

    def test_audit_of_a_clean_table(self, tmp_path):
        cache = tmp_path / "table.json"
        r = run("--cache-path", str(cache), "intersection",
                "--max-weight", "13", "--audit")
        assert r.exit_code == 0, r.stderr
        assert r.stderr == "audit: no faults in 70 entries through degree 6\n"
        fresh = run("intersection", "--max-weight", "13", "--no-cache")
        assert r.stdout == fresh.stdout
        warm = run("--cache-path", str(cache), "intersection",
                   "--max-weight", "13", "--audit")
        assert (warm.exit_code, warm.stdout) == (0, fresh.stdout)

    def test_audit_after_a_corrupted_cache(self, tmp_path):
        # the load audit rejects the cache, the table is rebuilt, and the
        # audit of the rebuilt table is clean
        cache = tmp_path / "table.json"
        run("--cache-path", str(cache), "intersection", "--max-weight", "13")
        cache.write_text(cache.read_text().replace('"29/5760"', '"29/5761"'))
        r = run("--cache-path", str(cache), "intersection",
                "--max-weight", "13", "--audit")
        assert r.exit_code == 0
        assert "fails its audit" in r.stderr and "no faults" in r.stderr
        fresh = run("intersection", "--max-weight", "13", "--no-cache")
        assert r.stdout == fresh.stdout

    def test_audit_fault_exits_one(self, tmp_path, monkeypatch):
        # a table served without the load audit (as a defect would) is
        # caught by --audit: faults on stderr, exit 1, stdout unchanged
        built = IntersectionTable().build_through(6)
        built.values[(0, 0, 1, 1)] = Fraction(29, 5759)
        monkeypatch.setattr("qgenus.cli._load_table", lambda path: built)
        r = run("--cache-path", str(tmp_path / "t.json"), "intersection",
                "--max-weight", "13", "--audit")
        assert r.exit_code == 1
        assert "audit fault: (0, 0, 1, 1) = 29/5759" in r.stderr
        assert "<tau_2 tau_3> = 29/5759" in r.stdout.splitlines()

    def test_determinism(self):
        a = run("-f", "json", "intersection", "--max-weight", "5",
                "--no-cache").stdout
        b = run("-f", "json", "intersection", "--max-weight", "5",
                "--no-cache").stdout
        assert a == b


# ---------------------------------------------------------------------------
# virasoro-check
# ---------------------------------------------------------------------------

class TestVirasoroCheck:
    def test_central_term_example(self):
        r = run("virasoro-check", "--m", "2", "--n", "-2")
        assert r.exit_code == 0
        lines = r.stdout.splitlines()
        assert lines[0] == "central term: 1/2"
        assert lines[-1] == "bracket [L_2, L_-2]: pass"

    def test_no_central_term_off_diagonal(self):
        r = run("virasoro-check", "--m", "1", "--n", "2", "--max-weight", "4")
        assert r.stdout.splitlines()[0] == "central term: 0"
        assert r.exit_code == 0

    def test_json_form(self):
        obj = json.loads(run("-f", "json", "virasoro-check", "--m", "3",
                             "--n", "-3", "--max-weight", "4").stdout)
        assert obj["central_term"] == "2"
        assert obj["ok"] is True
        assert obj["monomials_checked"] > 0

    def test_mode_cap(self):
        assert run("virasoro-check", "--m", "9", "--n", "-9").exit_code == 2


# ---------------------------------------------------------------------------
# genus commands
# ---------------------------------------------------------------------------

class TestKw:
    def test_projective_line(self):
        r = run("kw", "--cpn", "1")
        assert r.exit_code == 0
        assert r.stdout == ("-2*x0^-1*x1\n"
                            "q-basis: (2*q2*q1 - 6*q3) / q1\n")

    def test_point_image(self):
        r = run("kw", "--cpn", "0")
        assert r.stdout.splitlines() == ["1", "q-basis: 1"]

    def test_integrality_window(self):
        r = run("kw", "--integrality", "12")
        assert r.exit_code == 0
        assert "all integral" in r.stdout

    def test_modp_cutoffs(self):
        for p, cutoff in [(3, 2), (5, 3), (7, 4)]:
            r = run("kw", "--modp", str(p))
            assert r.exit_code == 0, r.stderr
            lines = r.stdout.splitlines()
            assert lines[0] == f"mod-{p} vanishing predicted from k >= {cutoff}"
            assert lines[-1] == "prediction: pass"
            assert f"k = {cutoff}: vanishes mod {p}" in lines
            assert f"k = {cutoff - 1}: nonzero mod {p}" in lines

    def test_exactly_one_mode(self):
        assert run("kw").exit_code == 2
        assert run("kw", "--cpn", "1", "--modp", "3").exit_code == 2
        assert run("kw", "--modp", "4").exit_code == 2

    def test_cpn_cap(self):
        r = run("kw", "--cpn", "13")
        assert r.exit_code == 2
        assert "--cpn is capped at 12" in r.stderr


class TestFgl:
    def _write(self, tmp_path, obj):
        f = tmp_path / "exp.json"
        f.write_text(json.dumps(obj))
        return str(f)

    def test_truncated_exponential_is_a_law(self, tmp_path):
        f = self._write(tmp_path, {"order": 5, "coefficients":
                                   {"1": "1", "2": "1/2", "3": "1/6"}})
        r = run("fgl", "--exp", f)
        assert r.exit_code == 0
        lines = r.stdout.splitlines()
        assert "associativity: pass" in lines
        assert lines[-1].startswith("logarithm: T - 1/2*T^2 + 1/3*T^3")
        # the README's form: JSON integers and rational strings mixed
        f = self._write(tmp_path, {"order": 6, "coefficients":
                                   {"1": 1, "2": "1/2", "3": "1/6"}})
        assert run("fgl", "--exp", f).exit_code == 0

    def test_json_report(self, tmp_path):
        f = self._write(tmp_path, {"order": 4, "coefficients": {"1": "1"}})
        obj = json.loads(run("-f", "json", "fgl", "--exp", f).stdout)
        assert obj["axioms"] == {"unit": True, "commutativity": True,
                                 "associativity": True, "inverse": True}
        assert obj["logarithm"] == {"1": "1"}

    def test_invalid_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run("fgl", "--exp", str(bad)).exit_code == 2
        f = self._write(tmp_path, {"order": 4, "coefficients": {"1": "0"}})
        assert run("fgl", "--exp", str(f)).exit_code == 2  # no unit coeff
        f = self._write(tmp_path, {"order": 40, "coefficients": {"1": "1"}})
        assert run("fgl", "--exp", str(f)).exit_code == 2
        f = self._write(tmp_path, {"order": 4, "coefficients": {"9": "1"}})
        assert run("fgl", "--exp", str(f)).exit_code == 2
        # no truncated order and no float or bool in the exact lane
        for obj in ({"order": 3.9, "coefficients": {"1": "1", "2": 0.1}},
                    {"order": 3, "coefficients": {"1": "1", "2": 0.1}},
                    {"order": True, "coefficients": {"1": "1"}},
                    {"order": "3", "coefficients": {"1": "1"}},
                    {"order": 3, "coefficients": {"1": True}},
                    {"order": 3, "coefficients": {"1": None}},
                    {"order": 3, "coefficients": ["1"]}):
            r = run("fgl", "--exp", self._write(tmp_path, obj))
            assert r.exit_code == 2, obj
            assert "invalid exponential file" in r.stderr

    def test_deeply_nested_files(self, tmp_path):
        f = tmp_path / "exp.json"
        for text in ("[" * 100_000,
                     '{"order": 3, "coefficients": ' + "[" * 100_000 + "}"):
            f.write_text(text)
            r = run("fgl", "--exp", str(f))
            assert r.exit_code == 2, r.stderr
            assert "invalid exponential file" in r.stderr


# ---------------------------------------------------------------------------
# analytic commands
# ---------------------------------------------------------------------------

class TestMl:
    def test_imaginary_axis_comparison(self):
        r = run("ml", "--alpha", "0.5", "--z", "10i", "--compare-asymptotic")
        assert r.exit_code == 0
        assert r.stdout.splitlines()[-1].endswith("within bound: yes")

    def test_plain_series_point(self):
        obj = json.loads(run("-f", "json", "ml", "--alpha", "1",
                             "--z", "1").stdout)
        assert abs(obj["series"]["value"] - 2.718281828459045) < 1e-15
        assert obj["series"]["method"] == "series"

    def test_csv_row(self):
        out = run("-f", "csv", "ml", "--alpha", "0.5", "--z", "-4.0",
                  "--compare-asymptotic").stdout.splitlines()
        assert out[0] == ("alpha,z,series,series_error,asymptotic,"
                          "asymptotic_error,difference,bound,within")
        assert out[1].endswith(",yes")

    def test_rational_alpha_accepted(self):
        r = run("ml", "--alpha", "1/2", "--z", "-6.0", "--compare-asymptotic")
        assert r.exit_code == 0

    def test_honest_failure_near_the_axis_origin(self):
        # At 2i the function carries a beyond-all-orders exp(z^2) part
        # (real size ~1.8e-2) that the tail cannot see; the comparison
        # honestly fails and the command exits 1.
        r = run("ml", "--alpha", "0.5", "--z", "2i", "--compare-asymptotic")
        assert r.exit_code == 1
        assert r.stdout.splitlines()[-1].endswith("within bound: NO")

    @pytest.mark.parametrize("n_terms", ["1453", "2000", "100000"])
    def test_forced_tail_past_the_double_range_exits_two(self, n_terms):
        # 1453 is the first tail length at 10i whose terms overflow the
        # doubles; it exited 3 with an internal OverflowError
        r = run("ml", "--alpha", "0.5", "--z", "10i", "--compare-asymptotic",
                "--n-terms", n_terms)
        assert r.exit_code == 2 and "leaves the double range" in r.stderr

    @pytest.mark.parametrize("alpha,z", [("0.5", "30"), ("0.01", "3"),
                                         ("1e-300", "3i")])
    def test_value_past_the_double_range_exits_two(self, alpha, z):
        # each exited 3 with an internal OverflowError
        r = run("ml", "--alpha", alpha, "--z", z)
        assert r.exit_code == 2 and "internal error" not in r.stderr

    def test_tiny_alpha_is_refused_in_words(self):
        # exited 2 with the bare "(34, 'Numerical result out of range')"
        r = run("ml", "--alpha", "1e-300", "--z", "3i")
        assert r.exit_code == 2
        assert "alpha=1e-300 is too small at |z|=3.0" in r.stderr

    def test_bad_inputs(self):
        assert run("ml", "--alpha", "0.75", "--z", "3+4i").exit_code == 2
        assert run("ml", "--alpha", "x", "--z", "1").exit_code == 2
        assert run("ml", "--alpha", "0.5", "--z", "zebra").exit_code == 2
        assert run("ml", "--alpha", "3", "--z", "1").exit_code == 2


class TestEpsilonTable:
    def test_grid_and_header(self):
        out = run("epsilon-table", "--x-min", "1", "--x-max", "100",
                  "--points", "3").stdout.splitlines()
        assert out[0] == "x,series,asymptotic,bound"
        assert len(out) == 4
        assert out[1].startswith("1.0,")
        assert out[2].startswith("10.0,")
        assert out[3].startswith("100.0,")

    def test_linear_spacing(self):
        out = run("epsilon-table", "--x-min", "1", "--x-max", "3",
                  "--points", "3", "--linear").stdout.splitlines()
        assert out[2].startswith("2.0,")
        # the points are x_min + i*step: a blend of the two bounds would
        # give the midpoint 0.39999999999999997 here
        out = run("epsilon-table", "--x-min", "0.1", "--x-max", "0.7",
                  "--points", "3", "--linear").stdout.splitlines()
        assert [line.split(",")[0] for line in out[1:]] == ["0.1", "0.4",
                                                             "0.7"]

    def test_output_file(self, tmp_path):
        dest = tmp_path / "eps.csv"
        r = run("epsilon-table", "--points", "2", "--output", str(dest))
        assert r.exit_code == 0
        assert dest.read_text().splitlines()[0] == "x,series,asymptotic,bound"

    def test_bad_grids(self):
        assert run("epsilon-table", "--x-min", "5", "--x-max", "1").exit_code == 2
        assert run("epsilon-table", "--points", "1").exit_code == 2
        assert run("epsilon-table", "--x-min", "-1", "--x-max", "1").exit_code == 2

    @pytest.mark.parametrize("x_min,x_max", [("-inf", "inf"), ("0", "inf")])
    def test_nan_grid_point_exits_two(self, x_min, x_max):
        # an infinite bound would put a NaN in the linear grid, on which the
        # series loop never ended; it is refused before any grid is formed
        bad = "--x-min" if x_min == "-inf" else "--x-max"
        r = run("epsilon-table", "--x-min", x_min, "--x-max", x_max,
                "--points", "3", "--linear")
        assert r.exit_code == 2 and f"{bad} must be finite" in r.stderr

    def test_linear_grid_whose_span_overflows(self):
        # x_max - x_min overflows, so the grid is formed in halves
        r = run("epsilon-table", "--x-min", "-1e308", "--x-max", "1e308",
                "--points", "3", "--linear")
        assert r.exit_code == 0
        assert [line.split(",")[0] for line in r.stdout.splitlines()[1:]] == [
            "-1e+308", "0.0", "1e+308"]

    @pytest.mark.parametrize("x_min,points", [("-1.7976931348623157e308", "7"),
                                              ("-1e306", "4")])
    def test_linear_grid_ends_at_the_largest_double(self, x_min, points):
        # in halves, the top point rounds past the largest double
        top = "1.7976931348623157e308"
        r = run("epsilon-table", "--x-min", x_min, "--x-max", top,
                "--points", points, "--linear")
        assert r.exit_code == 0
        xs = [float(line.split(",")[0]) for line in r.stdout.splitlines()[1:]]
        assert xs[0] == float(x_min) and xs[-1] == float(top)
        assert len(xs) == int(points) and xs == sorted(set(xs))


# ---------------------------------------------------------------------------
# witt commands
# ---------------------------------------------------------------------------

class TestWittCommands:
    def test_ghost(self):
        r = run("witt", "ghost", "1,-2,0")
        assert r.stdout == "g1 = 1\ng2 = 5\ng3 = 7\n"

    def test_ghost_padding_order(self):
        r = run("witt", "ghost", "1", "--order", "4")
        assert r.stdout == "g1 = 1\ng2 = 1\ng3 = 1\ng4 = 1\n"

    def test_mul_unit(self):
        r = run("witt", "mul", "1,0,0", "1,0,0")
        assert r.stdout == "h1 = 1\nh2 = 0\nh3 = 0\nintegral: yes\n"

    def test_mul_length_mismatch(self):
        assert run("witt", "mul", "1,2", "1").exit_code == 2

    def test_qcheck_pass(self):
        r = run("witt", "qcheck", "1,1/2,1/6,1/24")
        assert r.exit_code == 0
        assert r.stdout == "square-free parity: pass\n"

    def test_qcheck_fail(self):
        r = run("witt", "qcheck", "1,0,-1/2,0")
        assert r.exit_code == 1
        assert r.stdout.splitlines()[0] == "square-free parity: FAIL"
        assert "residual: -T^2" in r.stdout

    def test_bad_coefficients(self):
        assert run("witt", "ghost", "1,zebra").exit_code == 2
        assert run("witt", "ghost", "1,2", "--order", "1").exit_code == 2


# ---------------------------------------------------------------------------
# voa commands
# ---------------------------------------------------------------------------

class TestVoaCommands:
    def test_y_check_example(self):
        r = run("voa", "y-check", "--b", "p1", "--bprime", "p1",
                "--window", "6")
        assert r.exit_code == 0
        assert r.stdout.splitlines()[0] == "status: pass"

    def test_y_check_homogeneous_pair(self):
        r = run("voa", "y-check", "--b", "h1", "--bprime", "h2",
                "--window", "6")
        assert r.exit_code == 0

    def test_y_check_zero_element_inconclusive(self):
        r = run("voa", "y-check", "--b", "0", "--bprime", "p1",
                "--window", "6")
        assert r.exit_code == 1
        assert r.stdout.splitlines()[0] == "status: inconclusive"

    def test_table(self):
        r = run("voa", "table", "--n", "1", "--weight-cap", "3")
        assert r.stdout == ("z^-4: 3*pd3\nz^-3: -2*pd2\nz^-2: pd1\n"
                            "z^0: p1\nz^1: 2*p2\nz^2: 3*p3\n")

    def test_table_json(self):
        obj = json.loads(run("-f", "json", "voa", "table", "--n", "1",
                             "--weight-cap", "3").stdout)
        assert obj["coefficients"]["z^0"] == {"p1": "1"}

    def test_table_degenerate_t(self):
        assert run("voa", "table", "--n", "2", "--t", "1").exit_code == 2

    def test_closure_prime(self):
        r = run("voa", "closure", "--n", "1", "--order", "3",
                "--weight-cap", "9")
        assert r.exit_code == 0
        lines = r.stdout.splitlines()
        assert lines[0] == "method: cyclotomic"
        assert lines[1] == "killed modes: 3, 6, 9"
        assert lines[-1] == "closure: pass"

    def test_closure_composite(self):
        r = run("voa", "closure", "--n", "1", "--order", "4",
                "--weight-cap", "8")
        assert r.exit_code == 0
        assert r.stdout.splitlines()[0] == "method: divisibility"

    def test_closure_divided_index(self):
        assert run("voa", "closure", "--n", "6", "--order", "3").exit_code == 2

    def test_lattice_action(self, tmp_path):
        gram = tmp_path / "gram.json"
        gram.write_text("[[2]]")
        r = run("voa", "lattice", "--gram", str(gram), "--point", "1",
                "--weight-cap", "3")
        assert r.exit_code == 0
        lines = r.stdout.splitlines()
        assert lines[1] == "grading audit: clean"
        assert "z^0 @ (1,): 1" in lines
        assert "z^1 @ (1,): p1[0]" in lines

    def test_lattice_json(self, tmp_path):
        gram = tmp_path / "gram.json"
        gram.write_text('{"gram": [[2, 0], [0, 2]]}')
        obj = json.loads(run("-f", "json", "voa", "lattice", "--gram",
                             str(gram), "--point", "1,0",
                             "--weight-cap", "2").stdout)
        assert obj["gram"] == [[2, 0], [0, 2]]
        assert obj["grading_audit"] == "clean"
        assert all(set(e) >= {"z", "component", "terms"}
                   for e in obj["entries"])

    def test_lattice_rank_mismatch(self, tmp_path):
        gram = tmp_path / "gram.json"
        gram.write_text("[[2]]")
        assert run("voa", "lattice", "--gram", str(gram),
                   "--point", "1,0").exit_code == 2

    def test_lattice_gram_entries_must_be_integers(self, tmp_path):
        gram = tmp_path / "gram.json"
        for text in (b"[[2.7]]", b"[[true]]", b'[["7"]]', b'[["a"]]',
                     b"[[null]]", b"[[1e400]]", b"not json", b"\xff[[2]]"):
            gram.write_bytes(text)
            r = run("voa", "lattice", "--gram", str(gram), "--point", "1")
            assert r.exit_code == 2, text
            assert r.stdout == ""

    def test_lattice_gram_nested_too_deep(self, tmp_path):
        gram = tmp_path / "gram.json"
        gram.write_text("[" * 100_000)
        r = run("voa", "lattice", "--gram", str(gram), "--point", "1")
        assert r.exit_code == 2, r.stderr
        assert "Gram file is not JSON" in r.stderr


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

class TestExitCodes:
    @pytest.mark.parametrize("argv,msg", [
        (("intersection", "--max-weight", "100"),
         "--max-weight is capped at 13"),
        (("voa", "y-check", "--b", "p1", "--bprime", "p2",
          "--window", "100"), "--window is capped at 64"),
        (("voa", "closure", "--n", "1", "--order", "100"),
         "--order is capped at 64"),
        (("qreduce", "(q1+q2)^15"), "weight 30 is beyond the expression "
                                    "ceiling 28"),
        (("inner", "q1", "q28*x0"), "weight 29 is beyond the expression "
                                    "ceiling 28"),
        (("qfunction", "8,7,6,5,3"), "partition weight 29 is beyond the "
                                     "ceiling 28"),
        (("voa", "y-check", "--b", "(p1+p2+p3+p4+p5+p6)^24", "--bprime",
          "p1"), "weight 144 is beyond the expression ceiling 28"),
        (("voa", "y-check", "--b", "h11", "--bprime", "h12",
          "--weight-cap", "12"), "have 1076 monomials of degree <= "
                                 "--weight-cap; the ceiling is 800"),
        (("voa", "y-check", "--b", "h12*h12*h4", "--bprime", "0",
          "--weight-cap", "12"), "have 1882 monomials of degree <= "
                                 "--weight-cap; the ceiling is 800")],
        ids=["intersection-weight", "y-check-window", "closure-order",
             "qreduce-weight", "inner-weight", "qfunction-weight",
             "y-check-weight", "y-check-monomials",
             "y-check-monomials-alone"])
    def test_each_command_names_its_own_cap(self, argv, msg):
        r = run(*argv)
        assert r.exit_code == 2 and msg in r.stderr

    @staticmethod
    def _main_exit(*argv):
        """The SystemExit code of ``main`` called as the traced benchmark
        child calls it."""
        with pytest.raises(SystemExit) as e:
            main(args=list(argv), prog_name="qgenus")
        return e.value.code

    def test_usage_error_is_two(self, capsys, tmp_path):
        assert run("qreduce").exit_code == 2          # missing argument
        assert run("nonsense").exit_code == 2          # unknown subcommand
        assert run().exit_code == 2                    # no command at all
        assert run("witt").exit_code == 2              # a group alone
        assert run("intersection", "--max-w", "3").exit_code == 2  # no prefixes
        # a word that starts with '-' is an option, never a value
        assert run("witt", "ghost", "-3").exit_code == 2
        assert run("qreduce", "- q1").exit_code == 2
        assert self._main_exit("qreduce", "q1^") == 2
        assert self._main_exit("qreduce", "q1^2") == 0
        assert self._main_exit("--help") == 0
        assert self._main_exit("voa", "y-check", "--help") == 0
        capsys.readouterr()
        # an option's value may start with '-'
        r = run("-f", "json", "ml", "--alpha", "1/2", "--z", "-3i")
        assert r.exit_code == 0 and json.loads(r.stdout)["z"] == "-3j"
        from qgenus.witt import vertex_Y_powersum, vertex_table_obj
        r = run("-f", "json", "voa", "table", "--n", "2", "--t", "-1/2")
        assert r.exit_code == 0 and json.loads(r.stdout) == vertex_table_obj(
            vertex_Y_powersum(2, Fraction(-1, 2), weight_cap=6))
        gram = tmp_path / "gram.json"
        gram.write_text("[[2, 1], [1, 2]]")
        r = run("voa", "lattice", "--gram", str(gram), "--point", "-1,0")
        assert r.exit_code == 0
        assert r.stdout.startswith("point: -1,0\ngrading audit: clean\n")

    def test_internal_error_is_three(self, monkeypatch, capsys):
        import qgenus.witt  # the command imports ghost from here when it runs

        def boom(*a, **k):
            raise RuntimeError("wired to fail")

        monkeypatch.setattr(qgenus.witt, "ghost", boom)
        r = run("witt", "ghost", "1")
        assert r.exit_code == 3
        assert "internal error" in r.stderr
        assert self._main_exit("witt", "ghost", "1") == 3
        assert "internal error" in capsys.readouterr().err

    def test_check_failure_is_one(self, capsys):
        assert run("witt", "qcheck", "1,1").exit_code == 1
        assert self._main_exit("witt", "qcheck", "1,1") == 1
        assert self._main_exit("witt", "qcheck", "2,2") == 0


# ---------------------------------------------------------------------------
# fuzz: argv for every subcommand drawn from its option grammar
# ---------------------------------------------------------------------------

def _mostly(usual, edge):
    """``usual`` seven times in eight, else ``edge``."""
    return st.tuples(st.integers(0, 7), usual, edge).map(
        lambda t: t[2] if t[0] == 3 else t[1])


def _int_opt(lo, hi):
    """An integer option: mostly a value in [lo, hi], else one past a cap,
    huge, negative or not an integer."""
    return _mostly(st.integers(lo, hi).map(str), st.sampled_from(
        ["-1", "65", "10001", "9" * 30, "1.5", "x", ""]))


_RATIONAL = _mostly(
    st.fractions(-3, 3, max_denominator=6).map(str),
    st.sampled_from(["0.5", "1e400", "nan", "1/0", "x", ""]))

# deep nesting: the depth limit itself, and inputs that once exited 3
_DEEP_EXPRS = ["(" * 100 + "1" + ")" * 100, "(" * 101 + "1" + ")" * 101,
               "(" * 250 + "1" + ")" * 250, "-" * 1200 + "1"]
_DEEP_JSON = ["[" * 100_000, '{"order": 3, "coefficients": ' + "[" * 100_000,
              "[" * 500 + "]" * 500]


def _expr(symbols):
    """Expressions of the mini-grammar over ``symbols``, plus malformed
    and deeply nested ones."""
    atom = st.sampled_from(symbols + ["0", "3", "1/2", "7/3"])
    tree = st.recursive(atom, lambda e: st.one_of(
        st.tuples(e, st.sampled_from(["+", "-", "*", ""]), e).map("".join),
        e.map("({})".format), e.map("-{}".format),
        st.tuples(e, st.integers(0, 2)).map(lambda t: f"({t[0]})^{t[1]}")),
        max_leaves=4)
    edge = st.sampled_from(_DEEP_EXPRS + [
        "", "q1 +", "q1 $ q2", "1/0", "q29", "x14", "p13", "h13",
        "(q1+q2)^15", "q1^1/2", "q1^-1", "((q1)"])
    return _mostly(st.one_of(tree, tree.map(
        lambda s: s.replace("1", symbols[0]))), edge)


_Q_EXPR = _expr(["q0", "q1", "q2", "q4", "x0", "x2"])
_P_EXPR = _expr(["p1", "p2", "p4", "h1", "h3"])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats()
    | st.text(max_size=4),
    lambda c: st.lists(c, max_size=3)
    | st.dictionaries(st.text(max_size=3), c, max_size=3),
    max_leaves=8).map(json.dumps)


def _int_list(lo, hi, max_size):
    return _mostly(
        st.lists(st.integers(lo, hi), min_size=1, max_size=max_size).map(
            lambda xs: ",".join(map(str, xs))),
        st.sampled_from(["", "1,,2", "a", "1.5"]))


def _opts(required=(), **strategies):
    """Each named option in a drawn order: a required one is left out one
    time in ten, any other one time in two."""
    pairs = [st.tuples(st.integers(0, 9 if o in required else 1), s).map(
        lambda t, o=o: (o, t[1]) if t[0] else ())
        for o, s in strategies.items()]
    return st.tuples(*pairs).flatmap(lambda ps: st.permutations(
        [p for p in ps if p])).map(lambda ps: [x for p in ps for x in p])


def _flags(*names):
    return st.lists(st.sampled_from(names), unique=True)


def _command():
    """(argv after the group options, {file name: text or None} to write
    or delete first); "{name}" in argv stands for a file's path."""
    law = st.fixed_dictionaries({
        "order": _mostly(st.integers(1, 4),
                         st.sampled_from([-1, 0, 11, "3", None])),
        "coefficients": st.tuples(
            _mostly(st.just(1), _RATIONAL),
            st.dictionaries(_mostly(st.integers(2, 4), st.integers(-1, 5)),
                            st.one_of(st.integers(-3, 3), _RATIONAL),
                            max_size=3)).map(
            lambda t: {str(k): v for k, v in {1: t[0], **t[1]}.items()})}
    ).map(json.dumps)
    gram = _mostly(
        st.sampled_from([[[2]], [[4]], [[2, 1], [1, 2]], [[2, 0], [0, 4]]]),
        st.integers(1, 2).flatmap(lambda r: st.lists(
            st.lists(st.integers(-1, 4), min_size=r, max_size=r),
            min_size=r, max_size=r)))
    gram = st.one_of(gram, gram.map(lambda g: {"gram": g})).map(json.dumps)
    cache = st.one_of(
        st.none(),
        st.integers(0, 4).map(
            lambda d: IntersectionTable().build_through(d).dumps()),
        st.integers(0, 4).map(lambda d: IntersectionTable().build_through(
            d).dumps().replace('"1/24"', '"1/25"')), _JSON,
        st.sampled_from(_DEEP_JSON))
    alpha = _mostly(
        st.fractions(0, 2, max_denominator=8).map(str),
        st.sampled_from(["0.5", "1", "1.99", "0", "-1", "1e-300", "nan",
                         "inf", "x"]))
    z = _mostly(
        st.complex_numbers(max_magnitude=5, allow_nan=False).map(
            lambda z: f"{z.real!r}{z.imag:+}i"),
        st.sampled_from(["10i", "3+4i", "-5", "30", "1e400", "nan", "i",
                         "x", ""]))
    x = st.one_of(st.floats(-50, 1e6).map(repr), st.floats().map(repr))
    kw = {"--cpn": _int_opt(0, 6), "--integrality": _int_opt(0, 12),
          "--modp": _int_opt(0, 15)}
    files = lambda s: _mostly(s, st.one_of(_JSON,
                                           st.sampled_from(_DEEP_JSON)))
    return st.one_of(
        _Q_EXPR.map(lambda e: (["qreduce", "--", e], {})),
        _int_list(-1, 7, 4).map(lambda p: (["qfunction", p], {})),
        st.tuples(_Q_EXPR, _Q_EXPR).map(
            lambda t: (["inner", "--", *t], {})),
        st.tuples(_opts({"--max-weight"}, **{"--max-weight": _int_opt(0, 13)}),
                  _flags("--no-cache", "--audit"), cache).map(
            lambda t: (["intersection", *t[0], *t[1]], {"cache": t[2]})),
        _opts({"--m", "--n"}, **{"--m": _int_opt(-6, 6),
                                 "--n": _int_opt(-6, 6),
                                 "--max-weight": _int_opt(0, 10)}).map(
            lambda o: (["virasoro-check", *o], {})),
        st.one_of(*[_opts({o}, **{o: v}) for o, v in kw.items()],
                  _opts(**kw)).map(lambda o: (["kw", *o], {})),
        files(law).map(lambda f: (["fgl", "--exp", "{law}"], {"law": f})),
        st.tuples(_opts({"--alpha", "--z"}, **{
            "--alpha": alpha, "--z": z, "--n-terms": _int_opt(0, 60)}),
            _flags("--compare-asymptotic")).map(
            lambda t: (["ml", *t[0], *t[1]], {})),
        st.tuples(_opts(**{
            "--x-min": x, "--x-max": x, "--points": _int_opt(2, 12),
            "--output": st.sampled_from(["{out}", "{dir}", "{dir}/no/out"])}),
            _flags("--log", "--linear")).map(
            lambda t: (["epsilon-table", *t[0], *t[1]], {})),
        st.tuples(st.sampled_from(["ghost", "qcheck"]),
                  st.lists(_RATIONAL, min_size=1, max_size=6),
                  _opts(**{"--order": _int_opt(1, 8)})).map(
            lambda t: (["witt", t[0], ",".join(t[1]), *t[2]], {})),
        st.tuples(st.lists(_RATIONAL, min_size=1, max_size=4),
                  st.lists(_RATIONAL, min_size=1, max_size=4)).map(
            lambda t: (["witt", "mul", ",".join(t[0]), ",".join(t[1])], {})),
        _opts({"--b", "--bprime"}, **{
            "--b": _P_EXPR, "--bprime": _P_EXPR, "--window": _int_opt(0, 8),
            "--weight-cap": _int_opt(1, 6), "--t": _RATIONAL}).map(
            lambda o: (["voa", "y-check", *o], {})),
        _opts({"--n"}, **{"--n": _int_opt(1, 6), "--t": _RATIONAL,
                          "--weight-cap": _int_opt(1, 6)}).map(
            lambda o: (["voa", "table", *o], {})),
        _opts({"--n", "--order"}, **{
            "--n": _int_opt(1, 6), "--order": _int_opt(2, 12),
            "--weight-cap": _int_opt(1, 8)}).map(
            lambda o: (["voa", "closure", *o], {})),
        st.tuples(files(gram), _opts({"--point"}, **{
            "--point": _int_list(-2, 2, 2), "--target": _int_list(-2, 2, 2),
            "--weight-cap": _int_opt(1, 4)})).map(
            lambda t: (["voa", "lattice", "--gram", "{gram}", *t[1]],
                       {"gram": t[0]})))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_Q_EXPR)
def test_x_side_parse_is_the_image_of_the_q_side(src):
    """``QElement.to_x`` is the oracle of the x-side evaluation; an input
    one side refuses, the other refuses with the same message."""
    try:
        want = repr(parse_q_expr(src).to_x())
    except UsageError as e:
        with pytest.raises(UsageError) as err:
            parse_q_expr(src, in_x=True)
        assert str(err.value) == str(e)
    else:
        assert repr(parse_q_expr(src, in_x=True)) == want


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.lists(_mostly(st.sampled_from([["-f", "json"], ["-f", "csv"],
                                         ["-v"]]), st.just(["-f", "xml"])),
                max_size=2), _command())
def test_fuzz_exits_zero_one_or_two(tmp_path_factory, group_opts, command):
    # seeded by the test's name (derandomize), so a failure repeats
    tmp = tmp_path_factory.getbasetemp() / "fuzz"
    tmp.mkdir(exist_ok=True)
    argv, texts = command
    for name, text in texts.items():
        path = tmp / name
        if text is None:
            path.unlink(missing_ok=True)
        else:
            path.write_text(text)
    paths = {"law": tmp / "law", "gram": tmp / "gram", "out": tmp / "out",
             "dir": tmp}
    argv = [a.format(**paths) if a.startswith("{") else a for a in argv]
    flat = [x for opt in group_opts for x in opt]
    r = run(*flat, "--cache-path", str(tmp / "cache"), *argv)
    assert r.exit_code in (0, 1, 2), (argv, r.stderr)
    assert r.exception is None or isinstance(r.exception, SystemExit), argv
    assert "internal error" not in r.stderr, argv


# ---------------------------------------------------------------------------
# cap ladder: commands at their documented caps, each in a child process
# under a wall-clock budget, a 3 GiB address-space limit and a peak-RSS
# ceiling
# ---------------------------------------------------------------------------

_SRC = Path(__file__).resolve().parent.parent / "src"
_ADDRESS_SPACE = 3 * 1024 ** 3


# The ladder runs each command under this small launcher: it limits its
# address space, spawns the command and reports the command's own peak RSS
# from os.wait4.  Spawned straight from the test process, the command's
# ru_maxrss would include that process's resident size, which the kernel
# carries across fork and exec.
_LAUNCHER = """
import os, resource, sys
limit, report, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
pid = os.posix_spawn(sys.executable,
                     [sys.executable, "-m", "qgenus.cli", *argv], os.environ)
_, status, usage = os.wait4(pid, 0)
with open(report, "w") as fh:
    fh.write(str(usage.ru_maxrss))
sys.exit(os.waitstatus_to_exitcode(status))
"""


def _run_child(argv, env, budget, tmp_path):
    """Run qgenus in a child process, killed after ``budget`` seconds:
    (exit code, stdout, stderr, wall seconds, peak RSS in MB)."""
    report = tmp_path / "peak_rss_kb"
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        p = subprocess.Popen(
            [sys.executable, "-c", _LAUNCHER, str(_ADDRESS_SPACE),
             str(report), *argv],
            stdout=out, stderr=err, env=env, start_new_session=True)
        try:
            code = p.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
            pytest.fail(f"{argv} ran over its {budget} s budget")
        elapsed = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        return (code, out.read(), err.read(), elapsed,
                int(report.read_text()) / 1024)


_LATTICE_CAP = ("voa", "lattice", "--gram", "@gram", "--point", "1,1",
                "--weight-cap", "12")
_TABLE_CAP = ("intersection", "--max-weight", "13")
_INTEGRALITY_CAP = ("kw", "--integrality", "32")
_LAW_CAP = ("fgl", "--exp", "@exp")
# an order-10 exponential (the law-order cap) with rational coefficients
_LAW_CAP_FILE = json.dumps({"order": 10, "coefficients": {
    "1": "1", "2": "1/2", "3": "-2/3", "4": "3", "5": "-1", "6": "2/3",
    "8": "-3/2", "9": "5/7", "10": "-1/3"}})

_VOA_TABLE_CAP = ("voa", "table", "--n", "2", "--t", "1/2",
                  "--weight-cap", "12")
# two order-32 Witt vectors with small integer coefficients; the first
# fails the square-free parity check, which prints its residual series
_W32 = (",".join(str(5 * k % 7 - 3) for k in range(1, 33)),
        ",".join(str((3 * k + 1) % 5 - 2) for k in range(1, 33)))
# expressions and a partition at the weight ceiling of 28
_DENSE_28 = "(1+q1+q2+q3+q4)^7"
_QREDUCE_CAP = ("qreduce", _DENSE_28)
_QFUNCTION_CAP = ("qfunction", "7,6,5,4,3,2,1")
_INNER_CAP = ("inner", _DENSE_28, _DENSE_28)
_FOCK_CAP = ("virasoro-check", "--m", "6", "--n", "-6", "--max-weight", "10")
# voa y-check near its monomial ceiling of 800 (h11 with itself maps 775
# monomials), and the input that ran 18-26 s before the series-backed
# operators
_Y_CHECK_CAP = ("voa", "y-check", "--b", "h11", "--bprime", "h11",
                "--weight-cap", "12", "--window", "64")
_Y_CHECK_SIX = ("voa", "y-check", "--b", "(p1+p2+p3+p4+p5+p6)^4",
                "--bprime", "p1", "--weight-cap", "12")
# a fresh process whose operator product first meets |z| = 16, where a
# product once lost its cut when the fields of SD's monomial keys widened
_Y_CHECK_WIDEN = ("voa", "y-check", "--b", "p1*p3", "--bprime", "p1",
                  "--weight-cap", "12")

# the README point, and the longest tail forced there whose terms stay
# doubles (one term more is a domain error)
_ML_POINT = ("ml", "--alpha", "0.5", "--z", "10i", "--compare-asymptotic")
_ML_LONGEST = _ML_POINT + ("--n-terms", "1452")
_EPSILON_CAP = ("epsilon-table", "--points", "10000")
# a composite order (the divisibility route) and the largest prime order
# (the cyclotomic table)
_CLOSURE_CAP = ("voa", "closure", "--n", "1", "--order", "64",
                "--weight-cap", "12")
_CLOSURE_PRIME = ("voa", "closure", "--n", "1", "--order", "61",
                  "--weight-cap", "12")

# (argv, budget in seconds, sha256 of stdout or None, peak-RSS ceiling in
# MB, exit code).  The lattice digests were taken before the
# normal-ordered lattice operator, the intersection digests before the
# integer table kernel, the integrality and law digests before the
# scaled-integer series product, and the kw --cpn 12, voa table and witt
# digests before the products spread over monomials and the
# scaled-integer exp/log.  At those commits the peaks were 21 MB
# (lattice), 20 MB (intersection), 234 MB (kw --cpn 12), 22 MB
# (integrality), 20 MB (law) and 20 MB (voa table, witt).  The
# weight-ceiling, qcheck, virasoro-check and kw --modp digests were taken
# before the shared term renderer; there the qreduce and inner rungs took
# 5 s and 9-10 s at 29 MB, the rest at most 2 s and 23 MB.  The y-check
# digests were taken before the operators became series; there the h11
# rung took 377 s and the six-sum rung 26 s, at 22-24 MB.  The ml,
# epsilon-table and closure digests were taken before the forced-tail
# range check and the window-cut products, at 0.2-0.5 s and 20 MB
# (epsilon-table 1.3-1.7 s at 26 MB; it always writes CSV).
CAP_LADDER = [
    pytest.param(
        _LATTICE_CAP, 20,
        "34aee269e84b414e8aa6c8b72c158326b947a0dc9def18ba30f699c4e76d12d2",
        48, 0, id="voa-lattice-12"),
    pytest.param(
        ("-f", "json") + _LATTICE_CAP, 20,
        "2b3bfb53446cde85e0f5ff44e5a0af096c40c64cb52c03c0f92c42196385a4b2",
        48, 0, id="voa-lattice-12-json"),
    pytest.param(
        ("kw", "--cpn", "12"), 60,
        "87221994156ff688e5a9bf00a2bd149b33ae32d9e6b5fe34d407e6bfd539dba2",
        320, 0, id="kw-cpn-12"),
    pytest.param(
        _TABLE_CAP, 10,
        "cd2d831a85ddd9e754ea75ee402b70973acc4ced3bcd33ff1bab43e130bfee36",
        48, 0, id="intersection-13"),
    pytest.param(
        ("-f", "json") + _TABLE_CAP, 10,
        "1ec601bb5ae59672dda506456adaef9ca13ec181a278ec7b239c69f4dcab3f1a",
        48, 0, id="intersection-13-json"),
    pytest.param(
        ("-f", "csv") + _TABLE_CAP, 10,
        "394498431e6ff8d1e0a072feb9692638f45903ea163ec1ea56799ffec527073a",
        48, 0, id="intersection-13-csv"),
    pytest.param(
        _INTEGRALITY_CAP, 10,
        "7f9c49be94e876e66081c8a26f8bf362a0ab477685ca405d52fe89307b8b02ee",
        48, 0, id="kw-integrality-32"),
    pytest.param(
        ("-f", "json") + _INTEGRALITY_CAP, 10,
        "b76b30bf05380543043338b07d98a9da9e8fd6414cb66e3206fbc2961832543e",
        48, 0, id="kw-integrality-32-json"),
    pytest.param(
        _LAW_CAP, 10,
        "99cbe4468c6614c8b7b9b0020f579318bd9c0760fb6affe95e61b875479a86a5",
        48, 0, id="fgl-10"),
    pytest.param(
        ("-f", "json") + _LAW_CAP, 10,
        "6ca8e66211e5f5ffad2e33a0bb3ad34d06b9ea58d5e33c4d4dc62616e6bcfeb3",
        48, 0, id="fgl-10-json"),
    pytest.param(
        _VOA_TABLE_CAP, 10,
        "6d2ff04fe12a7c17cd78458a12732746a11192472242d041ba472c551cb62726",
        48, 0, id="voa-table-12"),
    pytest.param(
        ("-f", "json") + _VOA_TABLE_CAP, 10,
        "325e234d1f4d2a430373bc7342684f481be29bf39cc44363ebccd49cd88a11ee",
        48, 0, id="voa-table-12-json"),
    pytest.param(
        ("witt", "ghost", _W32[0]), 10,
        "43d803ea328d911559b52e599100bd8c1e25f2ac04f99f93b032eb113d25bb22",
        48, 0, id="witt-ghost-32"),
    pytest.param(
        ("-f", "json", "witt", "ghost", _W32[0]), 10,
        "ec089ce6ea6caa5233a4cf067c71a9f1cc9c31664e3c3ca7f3f5eb380f0cac99",
        48, 0, id="witt-ghost-32-json"),
    pytest.param(
        ("witt", "mul") + _W32, 10,
        "40eb23abfeac6915024e5a7ebb29200b8b8c5c5cc1ecb24317a0aa9357ed1263",
        48, 0, id="witt-mul-32"),
    pytest.param(
        ("-f", "json", "witt", "mul") + _W32, 10,
        "75ee2a3beae417d718ad5ae8e55713ecd1662f9c08adee05c6b71d66c3fe092c",
        48, 0, id="witt-mul-32-json"),
    pytest.param(
        ("witt", "qcheck", _W32[0]), 10,
        "b1e8d84d75da6f6db17418c66f43e5e093e1067990857b4b79a346c113f0ffb8",
        48, 1, id="witt-qcheck-32"),
    pytest.param(
        ("-f", "json", "witt", "qcheck", _W32[0]), 10,
        "7b6a8e0d1c0045b31134e621f805e9d3ef02398d17712dfd79ab9ce38edd6ea3",
        48, 1, id="witt-qcheck-32-json"),
    pytest.param(
        _FOCK_CAP, 10,
        "b73607ae10f356cdd963961d584b53ad38f279bdbead6ab314a0983a53945fa0",
        48, 0, id="virasoro-check-10"),
    pytest.param(
        ("-f", "json") + _FOCK_CAP, 10,
        "68c97f646944de39bc6b9741584ed0917425a558333d06d8c592c8de398288f1",
        48, 0, id="virasoro-check-10-json"),
    pytest.param(
        ("kw", "--modp", "13"), 10,
        "a881af7133cf2b866a1c20be6b9268eb8362ca17bb8ffe03d51c46feb6d72fdf",
        48, 0, id="kw-modp-13"),
    pytest.param(
        ("-f", "json", "kw", "--modp", "13"), 10,
        "de9f404b8684420b25b4686e867d15dd414bea02a3c8f4fbf9e62302134fb72f",
        48, 0, id="kw-modp-13-json"),
    pytest.param(
        _QREDUCE_CAP, 10,
        "f1737750f92cca40a70f8c402adf709143ef6a3d00d115ccf5541952283bf436",
        48, 0, id="qreduce-28"),
    pytest.param(
        ("-f", "json") + _QREDUCE_CAP, 10,
        "d6fca6d62229d89793b53099744a9c6d926b9e69f56ee7a3f11002076329804b",
        48, 0, id="qreduce-28-json"),
    pytest.param(
        _QFUNCTION_CAP, 10,
        "58f2531fe37b5fdb62622d4ef8991d6b8bf43c8c17c324d04910f99a7ec4d0ea",
        48, 0, id="qfunction-28"),
    pytest.param(
        ("-f", "json") + _QFUNCTION_CAP, 10,
        "d53915bca0b6bab3ae6f2b3715eeb4a69a6ad5b444b5a29a0f79454e6413a645",
        48, 0, id="qfunction-28-json"),
    pytest.param(
        _INNER_CAP, 10,
        "9a5cc1a6385f1dd487004cb4a07ff0af4b31be8293795eafe1012c7007225e4e",
        48, 0, id="inner-28"),
    pytest.param(
        ("-f", "json") + _INNER_CAP, 10,
        "e1293d56db67b2c382878ad3a9204207cc27377d4702ee73a18c31d9a0acadaf",
        48, 0, id="inner-28-json"),
    pytest.param(
        _Y_CHECK_CAP, 10,
        "639304e2f2efe34c3dd7d64b8209fa56e171af72aba2310e58d446b5d7b389d4",
        48, 0, id="y-check-ceiling"),
    pytest.param(
        ("-f", "json") + _Y_CHECK_CAP, 10,
        "6350976bd967db3efc463cad9a26030b7824a69069b76189bd1bb5569fcd05a0",
        48, 0, id="y-check-ceiling-json"),
    pytest.param(
        _Y_CHECK_SIX, 10,
        "88933d8513fe8033211044bb300695d168607aaf8b3f5113610e556485028040",
        48, 0, id="y-check-six-sum"),
    pytest.param(
        ("-f", "json") + _Y_CHECK_SIX, 10,
        "8cb66dc4de7be72bb6f4559cf2577b6a650787af2dca242af7c0ed3ac8393890",
        48, 0, id="y-check-six-sum-json"),
    pytest.param(
        _Y_CHECK_WIDEN, 10,
        "88933d8513fe8033211044bb300695d168607aaf8b3f5113610e556485028040",
        48, 0, id="y-check-widening"),
    pytest.param(
        _ML_POINT, 10,
        "f32e428cfa2969427e75b20d663a22f67919e5d5c8610a5f9c1f3aba8543ea86",
        48, 0, id="ml-readme"),
    pytest.param(
        ("-f", "json") + _ML_POINT, 10,
        "db0a799061498bcd1292102017666ea4d3baefa051f51c341353401d70ab85f1",
        48, 0, id="ml-readme-json"),
    pytest.param(
        _ML_LONGEST, 10,
        "92c4478687a83b8f3002481db571f1f0cc4eee35236fa8a6c2cbd8b64fb65ca4",
        48, 1, id="ml-n-terms-1452"),
    pytest.param(
        ("-f", "json") + _ML_LONGEST, 10,
        "575a3116f66bb2936d3fe924023c5ddcb36bf634d16a004c6d99cff4395b0a38",
        48, 1, id="ml-n-terms-1452-json"),
    pytest.param(
        _EPSILON_CAP, 10,
        "13b7ad928c1e4eb2bcbb376e8bc397613d71904a1786a7fcbf21a9e5d0dd58e5",
        48, 0, id="epsilon-table-10000"),
    pytest.param(
        ("-f", "json") + _EPSILON_CAP, 10,
        "13b7ad928c1e4eb2bcbb376e8bc397613d71904a1786a7fcbf21a9e5d0dd58e5",
        48, 0, id="epsilon-table-10000-json"),
    pytest.param(
        _CLOSURE_CAP, 10,
        "3e849aa34bd398e15bfe36638e379e2c4f868d9633128c531ba3ba060e141436",
        48, 0, id="closure-64"),
    pytest.param(
        ("-f", "json") + _CLOSURE_CAP, 10,
        "2491d985125775101a130ddece922443cb29c090d067b762fc2c4a8ca8a5b1cf",
        48, 0, id="closure-64-json"),
    pytest.param(
        _CLOSURE_PRIME, 10,
        "451a78ec45ca21bcd7281cea9c67c063678a7da126731323b957be000142438e",
        48, 0, id="closure-61"),
    pytest.param(
        ("-f", "json") + _CLOSURE_PRIME, 10,
        "047cd26a1fa22f049ec046bc85e203967f2a8eb3c15031daade27e7552b91888",
        48, 0, id="closure-61-json"),
]


def _ladder_env(tmp_path):
    """The environment of a ladder child: qgenus from this checkout and a
    cache directory of its own."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, QGENUS_CACHE_DIR=str(tmp_path),
                PYTHONPATH=str(_SRC) + (os.pathsep + path if path else ""))


def _ladder_argv(argv, tmp_path):
    """argv with each @file argument written under tmp_path."""
    files = {"@gram": "[[2,1],[1,2]]", "@exp": _LAW_CAP_FILE}
    for name, text in files.items():
        (tmp_path / name[1:]).write_text(text)
    return [str(tmp_path / a[1:]) if a in files else a for a in argv]


@pytest.mark.parametrize("argv,budget,digest,rss_mb,exit_code", CAP_LADDER)
def test_cap_ladder(argv, budget, digest, rss_mb, exit_code, tmp_path):
    argv, env = _ladder_argv(argv, tmp_path), _ladder_env(tmp_path)
    runs = [argv]
    if "intersection" in argv:
        # cold cache, then warm cache, then no cache: the same bytes
        runs += [argv, argv + ["--no-cache"]]
    for args in runs:
        code, out, err, elapsed, peak = _run_child(args, env, budget,
                                                   tmp_path)
        assert code == exit_code, err.decode()
        assert elapsed < budget
        assert peak < rss_mb, f"peak RSS {peak:.1f} MB, ceiling {rss_mb} MB"
        if digest is not None:
            assert hashlib.sha256(out).hexdigest() == digest, args


# ---------------------------------------------------------------------------
# each command loads only the library layers it runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv,layers", [
    (("--help",), set()),
    (("qreduce", "q1^2"), {"qfunctions", "rings", "series"}),
    (("inner", "q1", "q1"), {"qfunctions", "rings", "series"}),
    (("qfunction", "2,1"), {"qfunctions", "rings", "series"}),
    (("intersection", "--max-weight", "4"), {"rings", "virasoro"}),
    (("virasoro-check", "--m", "1", "--n", "-1", "--max-weight", "2"),
     {"rings", "virasoro"}),
    (("kw", "--cpn", "1"), {"grouplaw", "qfunctions", "rings", "series"}),
    (("fgl", "--exp", "@exp"), {"grouplaw", "qfunctions", "rings", "series"}),
    (("ml", "--alpha", "0.5", "--z", "10i"), {"analytic"}),
    (("epsilon-table", "--points", "2"), {"analytic"}),
    (("witt", "ghost", "1,-2,0"), {"rings", "series", "witt"}),
    (("voa", "y-check", "--b", "h2", "--bprime", "p1"),
     {"rings", "series", "witt"}),
    (("voa", "lattice", "--gram", "@gram", "--point", "1,0"),
     {"rings", "series", "witt"})],
    ids=["help", "qreduce", "inner", "qfunction", "intersection",
         "virasoro-check", "kw", "fgl", "ml", "epsilon-table", "witt",
         "voa-y-check", "voa-lattice"])
def test_each_command_loads_only_its_layers(argv, layers, tmp_path):
    """A fresh ``-m qgenus.cli`` child, with ``-X importtime`` listing
    every module it imports: the qgenus layers the command runs and none of
    the modules that only slowed start-up."""
    p = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qgenus.cli",
         *_ladder_argv(argv, tmp_path)],
        capture_output=True, text=True, env=_ladder_env(tmp_path), timeout=60)
    assert p.returncode == 0, p.stderr[-500:]
    imported = set(re.findall(r"\| +(\S+)$", p.stderr, flags=re.M))
    loaded = {m for m in imported if m.split(".")[0] == "qgenus"}
    assert loaded == {"qgenus", "qgenus.errors"} | {f"qgenus.{m}"
                                                    for m in layers}
    # start-up cost no command needs: click (16-20 ms), dataclasses and the
    # inspect module it loads (10 ms)
    assert imported.isdisjoint({"click", "dataclasses", "inspect"}), argv


# ---------------------------------------------------------------------------
# README doc-test harness: every console example in the docs must run
# and print exactly what the docs say.
# ---------------------------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def _console_examples():
    """Yield (command_args, expected_stdout) pairs from README console
    blocks.  Lines starting with '$ qgenus' are commands; following lines
    up to the next command or fence end are the expected output."""
    if not README.exists():
        return []
    text = README.read_text()
    blocks = re.findall(r"```console\n(.*?)```", text, flags=re.S)
    examples = []
    for block in blocks:
        lines = block.splitlines()
        i = 0
        while i < len(lines):
            line = lines[i]
            if line.startswith("$ "):
                argv = shlex.split(line[2:])
                assert argv[0] == "qgenus", f"non-qgenus example: {line}"
                expected = []
                i += 1
                while i < len(lines) and not lines[i].startswith("$ "):
                    expected.append(lines[i])
                    i += 1
                examples.append((argv[1:], "\n".join(expected)))
            else:  # pragma: no cover - malformed block
                raise AssertionError(f"stray line in console block: {line!r}")
    return examples


def test_readme_has_examples():
    assert README.exists()
    assert len(_console_examples()) >= 6


@pytest.mark.parametrize("argv,expected", _console_examples() or
                         [pytest.param(None, None, marks=pytest.mark.skip)])
def test_readme_examples_run_verbatim(argv, expected, tmp_path):
    r = run(*argv, env={"QGENUS_CACHE_DIR": str(tmp_path)})
    assert r.exit_code == 0, r.stderr or r.stdout
    assert r.stdout.rstrip("\n") == expected.rstrip("\n")


# ---------------------------------------------------------------------------
# history independence: a command prints the same bytes whatever ran before
# it in the same process (process-wide state such as the order in which a
# universe's generators took their key slots must not leak into results)
# ---------------------------------------------------------------------------

# rungs that take over about a second; every other rung runs again below
_LONG_RUNGS = {"kw-cpn-12", "y-check-ceiling", "y-check-ceiling-json",
               "y-check-six-sum", "y-check-six-sum-json",
               "epsilon-table-10000", "epsilon-table-10000-json"}

# runs a JSON list of argv in one process through tests/clirun.py, twice
# (the second pass in reverse, so that each command follows all the
# others), and prints [exit code, sha256 of stdout] per invocation
_SEQUENCE = """
import hashlib, json, sys
sys.path.insert(0, sys.argv[1])
from clirun import invoke
argvs, out = json.load(sys.stdin), []
for argv in argvs + argvs[::-1]:
    r = invoke(argv)
    out.append([r.exit_code, hashlib.sha256(r.stdout.encode()).hexdigest()])
json.dump(out, sys.stdout)
"""


def test_stdout_does_not_depend_on_what_ran_before(tmp_path):
    """Each README example in a fresh child prints the README's bytes, and
    each short rung's fresh-child digest is checked by the ladder; one
    child that runs them all, each after all the others, prints the same
    bytes and exit codes."""
    env = _ladder_env(tmp_path)
    fresh = []
    for argv, expected in _console_examples():
        code, out, err, _, _ = _run_child(argv, env, 10, tmp_path)
        assert code == 0, err.decode()
        assert out.decode().rstrip("\n") == expected.rstrip("\n"), argv
        fresh.append((argv, code, hashlib.sha256(out).hexdigest()))
    for rung in CAP_LADDER:
        argv, _, digest, _, exit_code = rung.values
        if rung.id not in _LONG_RUNGS:
            fresh.append((_ladder_argv(argv, tmp_path), exit_code, digest))
    argvs = [argv for argv, _, _ in fresh]
    p = subprocess.run([sys.executable, "-c", _SEQUENCE,
                        str(Path(__file__).parent)], input=json.dumps(argvs),
                       capture_output=True, text=True, env=env, timeout=300)
    assert p.returncode == 0, p.stderr
    got = json.loads(p.stdout)
    want = [[code, digest] for _, code, digest in fresh]
    assert got == want + want[::-1]


# touches generators in the usual order or in reverse (x9 before x0, z
# first, then each ("d", m) before ("s", m), highest m first), then prints
# q_8 and an operator table, and the slot order the run made
_TOUCH = """
import json, sys
from fractions import Fraction
from qgenus import witt
from qgenus.qfunctions import q_in_x
from qgenus.rings import SparsePoly, UX
keys = [("s", m) for m in range(1, 7)] + [("d", m) for m in range(1, 7)]
if sys.argv[1] == "reverse":
    SparsePoly.gen(UX, 9)
    for key in [witt.Z] + keys[::-1]:
        SparsePoly.gen(witt.SD, key)
op = witt.vertex_Y_powersum(2, Fraction(1, 2), weight_cap=6)
json.dump({"q8": repr(q_in_x(8)), "table": witt.vertex_table_obj(op * op),
           "slots": [list(UX.slots)[:2], list(witt.SD.slots)[:2]]},
          sys.stdout)
"""


def test_output_does_not_depend_on_the_order_keys_were_first_used(tmp_path):
    """A fresh child that touches generators in reverse order prints the
    same q_8 and operator table as one that touches them in the usual
    order, though their generators hold other key slots."""
    env = _ladder_env(tmp_path)
    usual, reverse = (json.loads(subprocess.run(
        [sys.executable, "-c", _TOUCH, order], capture_output=True,
        text=True, env=env, timeout=60, check=True).stdout)
        for order in ("usual", "reverse"))
    assert reverse["slots"] == [[9, 0], [["z", 0], ["d", 6]]]
    assert usual.pop("slots") != reverse.pop("slots")
    assert usual == reverse


# parses each q<k> and x<k> up to the weight ceiling on the x-side, twice,
# and prints the x-universe's slot keys before the passes and after each
_SLOTS = """
import json, sys
from qgenus.cli import parse_q_expr
from qgenus.rings import UX
seen = [list(UX.slots)]
for _ in range(2):
    for name in [f"q{k}" for k in range(29)] + [f"x{k}" for k in range(14)]:
        parse_q_expr(name, in_x=True)
    seen.append(list(UX.slots))
json.dump(seen, sys.stdout)
"""


def test_x_side_parse_adds_one_slot_per_x_generator(tmp_path):
    """``Universe.slots`` grows for the life of a process; the x-side
    parse adds a slot for each of x_0 .. x_13 it uses, and only once."""
    before, first, second = json.loads(subprocess.run(
        [sys.executable, "-c", _SLOTS], capture_output=True, text=True,
        env=_ladder_env(tmp_path), timeout=60, check=True).stdout)
    assert first == before + [k for k in range(14) if k not in before]
    assert second == first
