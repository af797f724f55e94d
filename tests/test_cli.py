"""The command-line front end: flags, outputs, and the exit-code contract."""

from __future__ import annotations

import csv
import json
import subprocess
import sys

import pytest

from cglens import CGTrace, IterateRecord, gradient, load_trace, norm_sq
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
        ],
    )
    def test_hostile_scalar_exits_two_with_one_line(self, tmp_path, capsys, backend, changes):
        problem = {"n": 2, "H": {"dense": [[2, 0], [0, 2]]}, "c": [-2, -2], "x0": [0, 0]}
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps({**problem, **changes}))
        assert run_main(["verify", "--problem", str(path), "--backend", backend]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


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


class TestInstalledEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-c", "from cglens.cli import main; raise SystemExit(main(['--help']))"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "generate" in proc.stdout and "verify" in proc.stdout
