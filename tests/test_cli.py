"""The command-line front end: flags, outputs, and the exit-code contract."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest

from cglens import gradient, load_trace, norm_sq
from cglens.engine import CGTrace, IterateRecord
from cglens import cli


def run_main(argv):
    return cli.main(argv)


@pytest.fixture
def diag2(tmp_path):
    path = tmp_path / "diag2.json"
    assert run_main([
        "generate", "--kind", "diag", "--n", "2",
        "--backend", "rational", "--out", str(path),
    ]) == 0
    return path


class TestGenerate:
    def test_writes_loadable_problem(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        assert run_main([
            "generate", "--kind", "diag", "--n", "2",
            "--backend", "rational", "--out", str(path),
        ]) == 0
        assert "diag-n2-rational" in capsys.readouterr().out
        data = json.loads(path.read_text())
        assert data["n"] == 2
        assert data["H"]["dense"] == [["1", "0"], ["0", "2"]]
        assert data["c"] == ["-1", "-2"]

    def test_rand_spd_requires_seed(self, tmp_path):
        assert run_main([
            "generate", "--kind", "rand_spd", "--n", "4",
            "--cond", "10", "--out", str(tmp_path / "p.json"),
        ]) == 2

    def test_missing_out_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            run_main(["generate", "--kind", "diag", "--n", "2"])

    @pytest.mark.parametrize("flags, digest", [
        (["--kind", "rand_spd", "--n", "200", "--cond", "1e4", "--seed", "11"], "56aec18bc6ee7080"),
        (["--kind", "laplacian1d", "--n", "180"], "0d5719484f7dbfc2"),
        (["--kind", "rand_spd", "--n", "16", "--cond", "14", "--seed", "3", "--backend", "rational"],
         "5c8827965dabcb13"),
    ])
    def test_problem_file_is_pinned(self, tmp_path, flags, digest):
        # The bytes of P.json as one json.dumps per row wrote them: the
        # writer that formats H's triangle once must not move a byte.
        path = tmp_path / "P.json"
        assert run_main(["generate", *flags, "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest()[:16] == digest


class TestSolve:
    def test_prints_summary_and_writes_trace(self, diag2, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        assert run_main([
            "solve", "--problem", str(diag2), "--backend", "rational",
            "--trace", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "r         2 (gradient_zero)" in out
        assert "final |g| 0.000e+00" in out
        trace = load_trace(trace_path)
        assert trace.r == 2

    def test_direction_and_scaling_flags(self, diag2, capsys):
        for extra in (
            ["--direction", "gradient-sum"],
            ["--direction", "shortest-residuals"],
            ["--scaling", "unit"],
        ):
            assert run_main([
                "solve", "--problem", str(diag2), "--backend", "rational", *extra,
            ]) == 0
            assert "r         2" in capsys.readouterr().out

    def test_generated_problem_inline(self, capsys):
        assert run_main([
            "solve", "--kind", "laplacian1d", "--n", "8", "--tol", "1e-8",
        ]) == 0
        # the start gradient is mirror-symmetric, so CG needs n/2 steps,
        # and this float64 run ends on an exactly zero gradient
        assert "r         4 (gradient_zero)" in capsys.readouterr().out


class TestVerify:
    def test_exact_run_exits_zero_with_report(self, diag2, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        assert run_main([
            "verify", "--problem", str(diag2), "--backend", "rational",
            "--report", str(report_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "overall: pass" in out
        payload = json.loads(report_path.read_text())
        assert payload["overall"] is True

    def test_failed_verification_exits_one(self):
        # deep float64 run: orthogonality of late gradients is noise
        assert run_main([
            "verify", "--kind", "diag", "--n", "32", "--tol", "1e-10",
        ]) == 1

    def test_rank_losing_shortest_residuals_run_reports_its_fails(self, capsys):
        # The history loses orthogonality; the run must still reach the checks.
        assert run_main([
            "verify", "--kind", "rand_spd", "--n", "60", "--cond", "1e6", "--seed", "0",
            "--tol", "1e-12", "--max-iter", "180", "--direction", "shortest-residuals",
        ]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "overall: FAIL" in captured.out

    def test_csv_rows_append_and_repeat_identically(self, diag2, tmp_path):
        csv_path = tmp_path / "runs.csv"
        for _ in range(2):
            assert run_main([
                "verify", "--problem", str(diag2), "--backend", "rational",
                "--csv", str(csv_path),
            ]) == 0
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:5] == ["problem_id", "n", "backend", "r", "overall"]
        assert len(rows) == 3
        assert rows[1] == rows[2]

    def test_tolerance_override_env(self, diag2, monkeypatch):
        monkeypatch.setenv("CGLENS_TOL_OVERRIDES", "gradient_orthogonality=0")
        assert run_main([
            "verify", "--kind", "diag", "--n", "16", "--tol", "1e-8",
        ]) == 1

    def test_bad_override_entry_exits_two(self, monkeypatch):
        monkeypatch.setenv("CGLENS_TOL_OVERRIDES", "no_such_check=1e-6")
        assert run_main(["verify", "--kind", "diag", "--n", "4"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1_0", "1/0", "0x10", ""])
    def test_override_outside_the_token_grammar_exits_two(self, monkeypatch, capsys, value):
        monkeypatch.setenv("CGLENS_TOL_OVERRIDES", f"conjugacy={value}")
        assert run_main(["verify", "--kind", "diag", "--n", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("backend", ["f64", "rational"])
    @pytest.mark.parametrize("value", ["-1e-6", "-1/2"])
    def test_negative_override_exits_two(self, monkeypatch, capsys, backend, value):
        # No residual is below 0: a negative tolerance would fail every run.
        monkeypatch.setenv("CGLENS_TOL_OVERRIDES", f"conjugacy={value}")
        assert run_main(["verify", "--kind", "diag", "--n", "4", "--backend", backend]) == 2
        err = capsys.readouterr().err
        assert err == f"error: bad CGLENS_TOL_OVERRIDES entry 'conjugacy={value}': " \
                      "a tolerance must not be negative\n"

    @pytest.mark.parametrize("value", ["-0", "-0.0", "-0/1"])
    def test_negative_zero_override_is_zero(self, monkeypatch, value):
        monkeypatch.setenv("CGLENS_TOL_OVERRIDES", f"conjugacy={value}")
        assert cli._tolerance_overrides()["conjugacy"] == 0
        assert run_main(["verify", "--kind", "diag", "--n", "4", "--backend", "rational"]) == 0

    @pytest.mark.parametrize("value, expected", [("1e-7", 1e-7), ("1/2", Fraction(1, 2))])
    def test_override_values_parse_as_tokens(self, monkeypatch, value, expected):
        monkeypatch.setenv("CGLENS_TOL_OVERRIDES", f"conjugacy={value}")
        tolerance = cli._tolerance_overrides()["conjugacy"]
        assert tolerance == expected and type(tolerance) is type(expected)


class TestOracle:
    def test_writes_solutions_report(self, diag2, tmp_path, capsys):
        report_path = tmp_path / "o.json"
        assert run_main([
            "oracle", "--problem", str(diag2), "--backend", "rational",
            "--report", str(report_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "k = 1" in out and "k = 2" in out
        payload = json.loads(report_path.read_text())
        assert len(payload["solutions"]) == 2
        assert payload["solutions"][1]["point"] == ["1", "1"]

    def test_start_at_the_minimizer_says_so(self, tmp_path, capsys):
        path = tmp_path / "at-min.json"
        path.write_text(json.dumps({"n": 1, "H": {"dense": [[2]]}, "c": [-2], "x0": [1]}))
        assert run_main(["oracle", "--problem", str(path), "--backend", "rational"]) == 0
        assert capsys.readouterr().out == "r = 0: the start point already minimizes q\n"

    @pytest.mark.parametrize("backend", ["f64", "rational"])
    def test_no_step_taken_claims_nothing(self, capsys, backend):
        # x0 = 0 is not the minimizer (all ones): the run stopped at its budget.
        argv = ["oracle", "--kind", "diag", "--n", "2", "--max-iter", "0", "--backend", backend]
        assert run_main(argv) == 0
        assert capsys.readouterr().out == "r = 0: the run stopped (max_iter) before its first step\n"


class TestBadInput:
    def test_missing_file_exits_two(self):
        assert run_main(["solve", "--problem", "/nonexistent/p.json"]) == 2

    def test_non_spd_problem_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "n": 2,
            "H": {"dense": [[1, 0], [0, -1]]},
            "c": [0, 0],
            "x0": [0, 0],
        }))
        assert run_main(["verify", "--problem", str(path)]) == 2
        assert "pivot 2" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["f64", "rational"])
    @pytest.mark.parametrize("name", [5, None])
    def test_matrix_market_name_not_a_string_exits_two(self, tmp_path, capsys, backend, name):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 1, "H": {"matrix_market": name}, "c": [1], "x0": [0]}))
        assert run_main(["verify", "--problem", str(path), "--backend", backend]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: H must be ") and err.count("\n") == 1

    @pytest.mark.parametrize("backend", ["f64", "rational"])
    def test_empty_linear_term_exits_two(self, tmp_path, capsys, backend):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 1, "H": {"dense": [[2]]}, "c": [], "x0": [0]}))
        assert run_main(["verify", "--problem", str(path), "--backend", backend]) == 2
        assert capsys.readouterr().err == f"error: {path}: vectors must have dimension >= 1\n"

    @pytest.mark.parametrize("backend", ["f64", "rational"])
    def test_matrix_market_size_line_that_is_not_integers_exits_two(self, tmp_path, capsys,
                                                                     backend):
        (tmp_path / "m.mtx").write_text(
            "%%MatrixMarket matrix array real general\n2 x\n1\n0\n0\n1\n")
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 2, "H": {"matrix_market": "m.mtx"}, "c": [1, 1],
                                    "x0": [0, 0]}))
        assert run_main(["verify", "--problem", str(path), "--backend", backend]) == 2
        err = capsys.readouterr().err
        assert err.endswith("m.mtx: line 2: size line needs 2 integers\n") and err.count("\n") == 1

    def test_problem_and_kind_together_rejected(self, diag2):
        assert run_main([
            "solve", "--problem", str(diag2), "--kind", "diag", "--n", "2",
        ]) == 2

    def test_kind_without_n_rejected(self):
        assert run_main(["solve", "--kind", "diag"]) == 2

    def test_no_problem_at_all_rejected(self):
        assert run_main(["solve"]) == 2

    @pytest.mark.parametrize("backend", ["f64", "rational"])
    @pytest.mark.parametrize(
        "changes",
        [
            {"H": {"dense": [[2, 0], [0, "nan"]]}},
            {"c": ["inf", 0]},
            {"x0": [0, "nan"]},
            {"H": {"dense": [[2, 0], [0, True]]}},
            {"c": [-2, True]},
            {"n": "two"},
            {"n": True},
            # JSON NaN, Infinity and -Infinity literals
            *({"H": {"dense": [[2, 0], [0, v]]}} for v in (math.nan, math.inf, -math.inf)),
            *({"c": [-2, v]} for v in (math.nan, math.inf, -math.inf)),
            *({"x0": [0, v]} for v in (math.nan, math.inf, -math.inf)),
            # tokens outside the grammar, or past its exponent cap
            *({"c": [t, 0]} for t in ("1e5000", "1e-5000", "1_000", "2 / 3")),
            # a vector or a matrix that is not a sequence of sequences
            {"c": 5},
            {"H": {"dense": [2, 2]}},
            # a string where a sequence of entries belongs
            {"c": "12"},
            {"H": {"dense": ["20", "02"]}},
            # runs of more than 4300 digits, refused whatever the interpreter's limit
            {"H": {"dense": [["1" * 5000, 0], [0, 2]]}},
            {"c": ["0." + "1" * 5000, 0]},
        ],
    )
    def test_hostile_scalar_exits_two_with_one_line(self, tmp_path, capsys, backend, changes):
        problem = {"n": 2, "H": {"dense": [[2, 0], [0, 2]]}, "c": [-2, -2], "x0": [0, 0]}
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps({**problem, **changes}))
        assert run_main(["verify", "--problem", str(path), "--backend", backend]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < 200  # a long token is echoed truncated

    @pytest.mark.parametrize("backend", ["f64", "rational"])
    @pytest.mark.parametrize("flags", [
        # a non-finite condition number; argparse reads 1e400 as inf
        *(["--kind", "rand_spd", "--n", "4", "--seed", "0", "--cond", c]
          for c in ("inf", "nan", "1e400")),
        # a stopping tolerance outside [0, inf)
        *(["--kind", "diag", "--n", "4", "--tol", t] for t in ("nan", "-1", "inf")),
        # a condition number or a seed for a kind that takes neither
        ["--kind", "diag", "--n", "4", "--cond", "nan", "--seed", "5"],
        ["--kind", "laplacian1d", "--n", "6", "--cond", "-3", "--seed", "-1"],
        ["--kind", "diag", "--n", "4", "--seed", "0"],
        ["--kind", "laplacian1d", "--n", "6", "--cond", "10"],
    ])
    def test_bad_flag_value_exits_two_with_one_line(self, capsys, backend, flags):
        assert run_main(["verify", *flags, "--backend", backend]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("cond", ["1e307", "1e308"])
    def test_overflowing_condition_exits_two_with_one_line(self, capsys, cond):
        # float64 rand_spd overflows in its reflections: one line, no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_main(["verify", "--kind", "rand_spd", "--n", "5", "--cond", cond,
                             "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: rand_spd-n5-cond{float(cond):g}-seed1 overflows the float64 range\n"

    @pytest.mark.parametrize("backend", ["f64", "rational"])
    @pytest.mark.parametrize("command", ["generate", "solve", "verify", "oracle"])
    def test_problem_past_the_address_space_exits_two_with_one_line(
        self, tmp_path, capsys, command, backend
    ):
        # H of n = 10^8 needs 71 PiB, more than any address space: refused at
        # once, before anything is written.
        argv = [command, "--kind", "diag", "--n", "100000000", "--backend", backend]
        out = tmp_path / "P.json"
        assert run_main(argv + (["--out", str(out)] if command == "generate" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_condition_is_exact_under_rationals(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_main(["verify", "--kind", "rand_spd", "--n", "5", "--cond", "1e308",
                             "--seed", "1", "--backend", "rational"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit")
    def test_digit_cap_does_not_depend_on_the_interpreter_limit(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(
            {"n": 1, "H": {"dense": [["1" * 5000]]}, "c": ["-" + "1" * 5000], "x0": [0]}
        ))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # as PYTHONINTMAXSTRDIGITS=0 does
        try:
            assert run_main(["verify", "--problem", str(path), "--backend", "rational"]) == 2
        finally:
            sys.set_int_max_str_digits(limit)
        assert capsys.readouterr().err.startswith(f"error: {path}: cannot convert '1111")


    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits")
                        or sys.get_int_max_str_digits() != 4300, reason="the default int-string limit")
    @pytest.mark.parametrize("command, flag", [
        ("verify", "--trace"), ("solve", "--trace"), ("oracle", "--report"),
    ])
    def test_number_too_long_to_write_exits_two_naming_the_file(self, tmp_path, capsys,
                                                                command, flag):
        # c = 10^4300 loads (the token cap is on the exponent), but its 4301
        # digits are past Python's int-to-text limit, so g_0 and the oracle's
        # point cannot be written: one line naming the file, and no file.
        path, out = tmp_path / "long.json", tmp_path / "out.json"
        path.write_text(json.dumps({"n": 1, "H": {"dense": [[1]]}, "c": ["1e4300"], "x0": [0]}))
        problem = ["--problem", str(path), "--backend", "rational"]
        assert run_main([command, *problem, flag, str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: ") and err.count("\n") == 1
        assert not out.exists()
        assert run_main([command, *problem]) == 0

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits")
                        or sys.get_int_max_str_digits() != 4300, reason="the default int-string limit")
    @pytest.mark.parametrize("existing", [None, "kept\n"])
    def test_problem_too_long_to_write_leaves_no_file(self, tmp_path, capsys, existing):
        # H = 10^4300 loads, but cannot be written: every row is formatted
        # before P.json is opened, so the refusal names it and leaves it as it was.
        path, out = tmp_path / "big.json", tmp_path / "P.json"
        path.write_text(json.dumps({"n": 1, "H": {"dense": [["1e4300"]]}, "c": ["-1"], "x0": ["0"]}))
        if existing:
            out.write_text(existing)
        assert run_main(["generate", "--problem", str(path), "--backend", "rational",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: ") and err.count("\n") == 1
        assert (out.read_text() if out.exists() else None) == existing

    @pytest.mark.parametrize("backend", ["f64", "rational"])
    @pytest.mark.parametrize("text", [
        "{nope",
        '{"n": 2, "H": {"dense": [[2, 0], [0, 2]]}, "c": [' + "7" * 5000 + ', 0], "x0": [0, 0]}',
    ], ids=["malformed", "5000-digit-integer"])
    def test_unreadable_json_exits_two_with_one_line(self, tmp_path, capsys, backend, text):
        path = tmp_path / "hostile.json"
        path.write_text(text)
        assert run_main(["verify", "--problem", str(path), "--backend", backend]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_exponent_past_the_cap_is_refused_before_building_it(self, tmp_path, capsys):
        path = tmp_path / "hostile.json"
        path.write_text('{"n": 1, "H": {"dense": [[2]]}, "c": [1e999999999], "x0": [0]}')
        assert run_main(["verify", "--problem", str(path), "--backend", "rational"]) == 2
        assert "1e999999999" in capsys.readouterr().err

    def test_rational_entries_past_the_float_range_verify(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(
            {"n": 2, "H": {"dense": [[2, 0], [0, 2]]}, "c": [2**1100, 1], "x0": [0, 0]}
        ))
        report = tmp_path / "r.json"
        assert run_main([
            "verify", "--problem", str(path), "--backend", "rational", "--report", str(report),
        ]) == 0
        assert json.loads(report.read_text())["overall"] is True
        for command in ("solve", "oracle"):
            assert run_main([command, "--problem", str(path), "--backend", "rational"]) == 0
        capsys.readouterr()
        assert run_main(["verify", "--problem", str(path), "--backend", "f64"]) == 2
        assert capsys.readouterr().err.count("\n") == 1


class TestRationalOutputPinned:
    """stdout, report and trace of rational runs, hashed; pinned before the
    exact kernels became fraction-free, which must not move a byte."""

    @pytest.mark.parametrize("problem, direction, scaling, digest", [
        ("rand_spd", "recursive", "cg", "178bce9f8ea1d7f7"),
        ("rand_spd", "recursive", "unit", "05bf8f14ed531de1"),
        ("rand_spd", "gradient-sum", "cg", "e12f7557c979ed4d"),
        ("rand_spd", "gradient-sum", "unit", "8491287417a52a75"),
        ("rand_spd", "shortest-residuals", "cg", "6c8ced853c766a4d"),
        ("rand_spd", "shortest-residuals", "unit", "73ec32bec8d67a8b"),
        ("laplacian1d", "recursive", "cg", "a1f38d1b0580cc92"),
        ("laplacian1d", "recursive", "unit", "872e4b0bd0b0c627"),
        ("laplacian1d", "gradient-sum", "cg", "0315492356ebad61"),
        ("laplacian1d", "gradient-sum", "unit", "1e746ad956e0242a"),
        ("laplacian1d", "shortest-residuals", "cg", "f81f634564acba72"),
        ("laplacian1d", "shortest-residuals", "unit", "77314b15fa034ac2"),
    ])
    def test_verify_output_is_pinned(self, tmp_path, capsys, problem, direction, scaling, digest):
        flags = {
            "rand_spd": ["--kind", "rand_spd", "--n", "12", "--cond", "8", "--seed", "3"],
            "laplacian1d": ["--kind", "laplacian1d", "--n", "10"],
        }[problem]
        report, trace = tmp_path / "R.json", tmp_path / "T.json"
        assert run_main([
            "verify", *flags, "--backend", "rational", "--direction", direction,
            "--scaling", scaling, "--report", str(report), "--trace", str(trace),
        ]) == 0
        h = hashlib.sha256(capsys.readouterr().out.encode())
        for path in (report, trace):
            h.update(path.read_bytes())
        assert h.hexdigest()[:16] == digest

    @pytest.mark.parametrize("flags, digest", [
        (["--kind", "rand_spd", "--n", "12", "--cond", "8", "--seed", "3"], "e10fb1ca81c55224"),
        (["--kind", "laplacian1d", "--n", "10"], "8ab5ca1688be7a9c"),
        (["--kind", "rand_spd", "--n", "24", "--cond", "20", "--seed", "0"], "d5172477bde85773"),
    ])
    def test_oracle_output_is_pinned(self, tmp_path, capsys, flags, digest):
        # The oracle's exact coordinates, points and objectives, which no
        # verify check prints.
        report = tmp_path / "R.json"
        assert run_main(["oracle", *flags, "--backend", "rational", "--report", str(report)]) == 0
        h = hashlib.sha256(capsys.readouterr().out.encode())
        h.update(report.read_bytes())
        assert h.hexdigest()[:16] == digest


class TestBreakdownExitCode:
    @staticmethod
    def fake_run_cg(P, **kwargs):
        # a first record consistent with the problem data, then breakdown
        g = gradient(P, P.x0)
        gns = norm_sq(g)
        rec = IterateRecord(0, P.x0, g, gns, p_k=-g, c_k=-gns)
        return CGTrace(
            problem_id="synthetic",
            scalar_backend=P.backend.name,
            records=(rec,),
            termination_index=0,
            termination_reason="breakdown",
        )

    def test_solve_reports_three(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_cg", self.fake_run_cg)
        assert run_main(["solve", "--kind", "diag", "--n", "2"]) == 3
        assert "breakdown" in capsys.readouterr().out

    def test_verify_reports_three_even_when_checks_fail(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_cg", self.fake_run_cg)
        assert run_main(["verify", "--kind", "diag", "--n", "2"]) == 3
        capsys.readouterr()

    def test_oracle_reports_three(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_cg", self.fake_run_cg)
        assert run_main(["oracle", "--kind", "diag", "--n", "2"]) == 3
        capsys.readouterr()


class TestInstalledEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-c", "from cglens.cli import main; raise SystemExit(main(['--help']))"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "generate" in proc.stdout and "verify" in proc.stdout

    def test_verify_runs_on_numpy_alone(self):
        # scipy is not a declared dependency, so no command may import it.
        code = ("import sys; from cglens.cli import main; "
                "rc = main(['verify', '--kind', 'laplacian1d', '--n', '60', '--tol', '1e-7']); "
                "print(rc, 'scipy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.stdout.split()[-2:] == ["0", "False"], proc.stderr
