"""File formats: Matrix Market matrices, problem JSON, trace JSON."""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cglens import (
    F64,
    RATIONAL,
    LinalgError,
    ProblemSpec,
    generate_problem,
    load_trace,
    run_cg,
    run_full_suite,
)
from cglens import engine, mmio
from cglens.engine import DIRECTION_MODES, BreakdownError
from cglens.linalg import (AsymmetricMatrixError, DimensionMismatch, _row_dots, _stack, scalar_token,
                           sym_matrix, vector)
from cglens.quadratic import QuadraticProblem
from cglens.mmio import (
    MMParseError,
    load_problem,
    read_matrix_market,
    save_problem,
    save_trace,
)
from cglens.verify import report_to_dict

from conftest import with_record


class TestExactDecimal:
    # Decimal tokens parse exactly through the one grammar of Backend.scalar.
    def test_plain_and_fraction(self):
        assert RATIONAL.scalar("1.5") == Fraction(3, 2)
        assert RATIONAL.scalar("2/3") == Fraction(2, 3)
        assert RATIONAL.scalar("-7") == -7

    def test_scientific_notation(self):
        assert RATIONAL.scalar("1e-3") == Fraction(1, 1000)
        assert RATIONAL.scalar("-2.25e+1") == Fraction(-45, 2)
        assert RATIONAL.scalar("0.1") == Fraction(1, 10)

    def test_garbage_rejected(self):
        with pytest.raises(LinalgError):
            RATIONAL.scalar("zero")


class TestMatrixMarketRead:
    def write(self, tmp_path, text):
        path = tmp_path / "m.mtx"
        path.write_text(text)
        return path

    def test_coordinate_symmetric_mirrors(self, tmp_path):
        path = self.write(
            tmp_path,
            "%%MatrixMarket matrix coordinate integer symmetric\n"
            "% a comment\n"
            "2 2 3\n"
            "1 1 2\n"
            "2 1 1\n"
            "2 2 2\n",
        )
        M = read_matrix_market(path, RATIONAL)
        assert [list(row) for row in M] == [[2, 1], [1, 2]]

    def test_array_symmetric_lower_triangle(self, tmp_path):
        path = self.write(
            tmp_path,
            "%%MatrixMarket matrix array real symmetric\n"
            "2 2\n"
            "4.0\n1.0\n3.0\n",
        )
        M = read_matrix_market(path, F64)
        assert [list(row) for row in M] == [[4.0, 1.0], [1.0, 3.0]]

    def test_real_tokens_read_bitwise(self, tmp_path):
        path = self.write(
            tmp_path,
            "%%MatrixMarket matrix array real symmetric\n"
            "2 2\n"
            "0.1\n1e-300\n3.7\n",
        )
        M = read_matrix_market(path, F64)
        assert [list(row) for row in M] == [[0.1, 1e-300], [1e-300, 3.7]]
        assert read_matrix_market(path, RATIONAL)[0, 0] == Fraction(1, 10)

    def test_coordinate_general_full(self, tmp_path):
        path = self.write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 4\n"
            "1 1 2.5\n"
            "1 2 -1\n"
            "2 1 -1\n"
            "2 2 2\n",
        )
        M = read_matrix_market(path, RATIONAL)
        assert [list(row) for row in M] == [[Fraction(5, 2), -1], [-1, 2]]

    def test_array_general_full(self, tmp_path):
        path = self.write(
            tmp_path,
            "%%MatrixMarket matrix array integer general\n"
            "2 2\n"
            "2\n1\n1\n2\n",
        )
        M = read_matrix_market(path, RATIONAL)
        assert [list(row) for row in M] == [[2, 1], [1, 2]]

    def test_general_asymmetry_detected(self, tmp_path):
        path = self.write(
            tmp_path,
            "%%MatrixMarket matrix array integer general\n"
            "2 2\n"
            "2\n1\n5\n2\n",
        )
        with pytest.raises(AsymmetricMatrixError):
            read_matrix_market(path, RATIONAL)

    def test_bad_header_cites_line_1(self, tmp_path):
        path = self.write(tmp_path, "%%NotMatrixMarket\n1 1\n1\n")
        with pytest.raises(MMParseError, match="line 1"):
            read_matrix_market(path)

    def test_duplicate_conflicting_entry_cites_line(self, tmp_path):
        path = self.write(
            tmp_path,
            "%%MatrixMarket matrix coordinate integer symmetric\n"
            "2 2 3\n"
            "1 1 2\n"
            "2 2 2\n"
            "1 1 7\n",
        )
        with pytest.raises(MMParseError, match="line 5"):
            read_matrix_market(path, RATIONAL)

    def test_out_of_range_index_cites_line(self, tmp_path):
        path = self.write(
            tmp_path,
            "%%MatrixMarket matrix coordinate integer symmetric\n"
            "2 2 1\n"
            "3 1 2\n",
        )
        with pytest.raises(MMParseError, match="line 3"):
            read_matrix_market(path, RATIONAL)

    def test_wrong_entry_count_detected(self, tmp_path):
        path = self.write(
            tmp_path,
            "%%MatrixMarket matrix coordinate integer symmetric\n"
            "2 2 3\n"
            "1 1 2\n",
        )
        with pytest.raises(MMParseError, match="declared 3"):
            read_matrix_market(path, RATIONAL)

    def test_rectangular_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "%%MatrixMarket matrix array integer general\n"
            "2 3\n" + "1\n" * 6,
        )
        with pytest.raises(MMParseError, match="not square"):
            read_matrix_market(path)

    def test_bad_value_cites_line(self, tmp_path):
        path = self.write(
            tmp_path,
            "%%MatrixMarket matrix array real symmetric\n"
            "2 2\n"
            "4.0\nbogus\n3.0\n",
        )
        with pytest.raises(MMParseError, match="bogus"):
            read_matrix_market(path)

    @pytest.mark.parametrize("text, line", [
        ("%%MatrixMarket matrix coordinate real symmetric\n1000000000 1000000000 0\n", "line 2"),
        ("%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1\n3 3 1\n", "row 2 of 3"),
        ("%%MatrixMarket matrix array real symmetric\n1000000000 1000000000\n1\n", "line 3"),
    ])
    def test_order_beyond_the_stored_entries_is_refused_before_building(self, tmp_path, text, line):
        # The dense matrix is built only when every row has a stored entry
        # and the values fill it, so a size line alone cannot make it huge.
        with pytest.raises(MMParseError, match=line):
            read_matrix_market(self.write(tmp_path, text))

    @pytest.mark.parametrize("text, refusal", [
        ("", "line 1: empty file"),
        ("%%MatrixMarket matrix vector real general\n2\n1\n1\n", "line 1: unsupported format 'vector'"),
        ("%%MatrixMarket matrix array real skew-symmetric\n1 1\n0\n",
         "line 1: unsupported symmetry 'skew-symmetric'"),
        ("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1\n", "line 3: expected 'i j value'"),
        ("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 x 2\n", "line 3: bad indices '1' 'x'"),
        # Each line is checked in file order: the bad value on line 3 is
        # reported before the bad indices on line 4.
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 bogus\n2 y 1\n",
         "line 3: bad real value 'bogus'"),
    ], ids=["empty", "format", "symmetry", "two-fields", "bad-indices", "first-bad-line"])
    def test_refusal_cites_its_line(self, tmp_path, text, refusal):
        with pytest.raises(MMParseError, match=f"^{re.escape(str(tmp_path / 'm.mtx'))}: {refusal}$"):
            read_matrix_market(self.write(tmp_path, text))

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    @pytest.mark.parametrize("field, token", [
        ("real", "nan"), ("real", "1_0"), ("real", "1e5000"), ("integer", "1.5"), ("integer", "1_0"),
    ])
    def test_token_outside_the_grammar_cites_line(self, tmp_path, backend, field, token):
        path = self.write(
            tmp_path,
            f"%%MatrixMarket matrix array {field} symmetric\n"
            "2 2\n"
            f"4\n{token}\n3\n",
        )
        with pytest.raises(MMParseError, match="line 4"):
            read_matrix_market(path, backend)


def _reference_problem_text(P: QuadraticProblem) -> str:
    """The problem file as a ``json.dumps`` of each row, c and x0 lays it out."""
    token = scalar_token if P.backend.exact else float

    def line(v):
        return json.dumps([token(x) for x in v])

    rows = ",\n   ".join(map(line, P.H))
    return (f'{{\n "n": {P.n},\n "H": {{\n  "dense": [\n   {rows}\n  ]\n }},\n'
            f' "c": {line(P.c)},\n "x0": {line(P.x0)},\n "label": {json.dumps(P.label)}\n}}\n')


# A trace record's keys in file order, with each one's IterateRecord field.
TRACE_KEYS = (("k", "k"), ("x", "x_k"), ("g", "g_k"), ("grad_norm_sq", "grad_norm_sq"),
              ("p", "p_k"), ("theta", "theta_k"), ("beta", "beta_k"), ("c", "c_k"))


def _reference_trace_text(trace) -> str:
    """The trace file as a ``json.dumps`` of each vector and scalar lays it out."""
    token = scalar_token if trace.scalar_backend == "rational" else float

    def field(key, value):
        if key == "k" or value is None:
            return json.dumps(value)
        return json.dumps([token(x) for x in value] if np.ndim(value) else token(value))

    records = ",\n  ".join(
        "{\n" + ",\n".join(f'   "{key}": {field(key, getattr(rec, name))}' for key, name in TRACE_KEYS)
        + "\n  }" for rec in trace.records)
    head = {"problem_id": trace.problem_id, "backend": trace.scalar_backend,
            "direction_mode": trace.direction_mode, "scaling_mode": trace.scaling_mode,
            "termination_reason": trace.termination_reason, "r": trace.r}
    return ("{\n" + "".join(f" {json.dumps(key)}: {json.dumps(value)},\n" for key, value in head.items())
            + f' "records": [\n  {records}\n ]\n}}\n')


# Off-diagonal entries: zeros of either sign, subnormals and ordinary floats,
# or rationals; a dominant diagonal keeps H positive definite.
F64_ENTRIES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, -1e-310]) \
    | st.floats(-1, 1)
RATIONAL_ENTRIES = st.fractions(-1, 1, max_denominator=10**12)


@st.composite
def symmetric_problems(draw):
    backend = draw(st.sampled_from([F64, RATIONAL]))
    entries = RATIONAL_ENTRIES if backend.exact else F64_ENTRIES
    n = draw(st.integers(1, 7))
    H = [[None] * n for _ in range(n)]
    for i in range(n):
        H[i][i] = n + 1000 * abs(draw(entries))
        for j in range(i):
            H[i][j] = H[j][i] = draw(entries)
            if H[i][j] == 0 and not backend.exact:  # a mirror pair may differ in sign
                H[j][i] = draw(st.sampled_from([0.0, -0.0]))
    c, x0 = ([draw(entries) for _ in range(n)] for _ in range(2))
    return QuadraticProblem(H=sym_matrix(H, backend), c=vector(c, backend),
                            x0=vector(x0, backend), label=draw(st.text(max_size=6)))


@st.composite
def consistent_traces(draw):
    """A trace that CGTrace accepts, on either backend, of n 1 to 4 and r 0 to 6,
    whose entries often repeat within and across records: zeros of both signs,
    subnormals, a few drawn values and fresh ones."""
    backend = draw(st.sampled_from([F64, RATIONAL]))
    entries = RATIONAL_ENTRIES if backend.exact else F64_ENTRIES
    fixed = [Fraction(0), Fraction(1, 3), Fraction(-1)] if backend.exact else [0.0, -0.0, 5e-324, 1.0]
    value = st.sampled_from(fixed + draw(st.lists(entries, min_size=1, max_size=3))) | entries
    n, r = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    reason = draw(st.sampled_from(engine.TERMINATION_REASONS))
    rows = [[[draw(value) for _ in range(n)] for _ in range(3)] for _ in range(r + 1)]
    for _, g, _ in rows[:r]:
        if sum(x * x for x in g) < 1e-100:  # the next beta divides by this norm
            g[0] = 1
    x, g, p = ([vector(row[i], backend) for row in rows] for i in range(3))
    gns = _row_dots(_stack(g, backend), _stack(g, backend))
    records = tuple(
        engine.IterateRecord(k, x[k], g[k], gns[k], p_k=p[k] if k < r or reason == "breakdown" else None,
                             theta_k=draw(value) if k < r else None, c_k=draw(value) if k < r else None,
                             beta_k=gns[k] / gns[k - 1] if k else None)
        for k in range(r + 1))
    return engine.CGTrace(problem_id=draw(st.text(max_size=4)), scalar_backend=backend.name,
                          records=records, termination_index=r, termination_reason=reason,
                          direction_mode=draw(st.sampled_from(engine.DIRECTION_MODES)))


class TestProblemJson:
    def test_save_load_rational_exact(self, tmp_path):
        P = generate_problem(
            ProblemSpec(kind="rand_spd", n=4, condition=10, seed=3), RATIONAL
        )
        path = tmp_path / "p.json"
        save_problem(P, path)
        back = load_problem(path, RATIONAL)
        assert [list(r) for r in back.H] == [list(r) for r in P.H]
        assert list(back.c) == list(P.c)
        assert list(back.x0) == list(P.x0)
        assert back.label == P.label

    def test_save_load_float_bitwise(self, tmp_path):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=4, condition=10, seed=3))
        path = tmp_path / "p.json"
        save_problem(P, path)
        back = load_problem(path, F64)
        assert [list(r) for r in back.H] == [list(r) for r in P.H]
        assert list(back.c) == list(P.c)

    def test_matrix_market_reference_resolved_relative(self, tmp_path):
        sub = tmp_path / "nested"
        sub.mkdir()
        (sub / "H.mtx").write_text("%%MatrixMarket matrix array integer symmetric\n2 2\n1\n0\n2\n")
        (sub / "p.json").write_text(json.dumps({
            "n": 2,
            "H": {"matrix_market": "H.mtx"},
            "c": [-1, -2],
            "x0": [0, 0],
        }))
        P = load_problem(sub / "p.json", RATIONAL)
        assert [list(r) for r in P.H] == [[1, 0], [0, 2]]
        assert P.label == "p"

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 2, "c": [0, 0]}))
        with pytest.raises(LinalgError, match="n, H, c, x0"):
            load_problem(path)

    def test_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "n": 3,
            "H": {"dense": [[1, 0], [0, 1]]},
            "c": [0, 0],
            "x0": [0, 0],
        }))
        with pytest.raises(LinalgError, match="n = 3"):
            load_problem(path)

    def test_fraction_strings_accepted(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "n": 1,
            "H": {"dense": [["1/2"]]},
            "c": ["-1/3"],
            "x0": [0],
        }))
        P = load_problem(path, RATIONAL)
        assert P.H[0, 0] == Fraction(1, 2)
        assert P.c[0] == Fraction(-1, 3)

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    def test_file_is_one_vector_per_line_and_parses_to_the_tokens(self, backend, tmp_path):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=6, condition=30, seed=2), backend)
        path = tmp_path / "p.json"
        save_problem(P, path)
        text = path.read_text()
        lines = text.splitlines()
        assert len(lines) == P.n + 10  # the indent=1 skeleton around n rows
        assert [json.loads(line.strip().rstrip(",")) for line in lines[4 : 4 + P.n]] == \
            json.loads(text)["H"]["dense"]
        token = scalar_token if backend.exact else float
        expected = {
            "n": P.n,
            "H": {"dense": [[token(x) for x in row] for row in P.H]},
            "c": [token(x) for x in P.c],
            "x0": [token(x) for x in P.x0],
            "label": P.label,
        }
        # repr tells -0.0 from 0.0, which == does not
        assert repr(json.loads(text)) == repr(expected)

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    def test_one_number_per_line_layout_still_loads_bit_identically(self, backend, tmp_path):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=5, condition=40, seed=8), backend)
        save_problem(P, tmp_path / "p.json")
        old = tmp_path / "old.json"
        old.write_text(json.dumps(json.loads((tmp_path / "p.json").read_text()), indent=1) + "\n")
        assert len(old.read_text().splitlines()) > P.n * P.n  # one number per line
        back = load_problem(old, backend)
        for a, b in ((P.H, back.H), (P.c, back.c), (P.x0, back.x0)):
            if backend.exact:
                assert list(a.ravel()) == list(b.ravel())
            else:
                assert a.tobytes() == b.tobytes()

    @given(P=symmetric_problems())
    @settings(max_examples=150, deadline=None)
    def test_bytes_match_one_dumps_per_row(self, tmp_path_factory, P):
        path = tmp_path_factory.getbasetemp() / "p-property.json"
        save_problem(P, path)
        assert path.read_text() == _reference_problem_text(P)


class TestTraceJson:
    def test_rational_round_trip_exact(self, tmp_path):
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=5), RATIONAL)
        trace = run_cg(P)
        path = tmp_path / "t.json"
        save_trace(trace, path)
        back = load_trace(path)
        assert back.r == trace.r
        assert back.termination_reason == trace.termination_reason
        assert back.direction_mode == trace.direction_mode
        for rec, rec_back in zip(trace.records, back.records):
            assert list(rec.x_k) == list(rec_back.x_k)
            assert list(rec.g_k) == list(rec_back.g_k)
            assert rec.theta_k == rec_back.theta_k
            assert rec.beta_k == rec_back.beta_k
            assert rec.c_k == rec_back.c_k
            if rec.p_k is None:
                assert rec_back.p_k is None
            else:
                assert list(rec.p_k) == list(rec_back.p_k)

    def test_float_round_trip_bitwise(self, tmp_path):
        P = generate_problem(ProblemSpec(kind="diag", n=6))
        trace = run_cg(P, tol=1e-8)
        path = tmp_path / "t.json"
        save_trace(trace, path)
        back = load_trace(path)
        for rec, rec_back in zip(trace.records, back.records):
            assert list(rec.x_k) == list(rec_back.x_k)
            assert list(rec.g_k) == list(rec_back.g_k)

    @pytest.mark.parametrize("backend", [RATIONAL, F64])
    def test_round_trip_is_bit_identical_from_one_parse(self, backend, tmp_path, monkeypatch):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=8, condition=20, seed=1), backend)
        trace = run_cg(P, tol=1e-12)
        path = tmp_path / "t.json"
        save_trace(trace, path)
        parses = []
        real_loads = json.loads
        monkeypatch.setattr(json, "loads", lambda *a, **kw: parses.append(1) or real_loads(*a, **kw))
        back = load_trace(path)
        assert len(parses) == 1
        assert len(back.records) == len(trace.records) > 3
        for rec, rec_back in zip(trace.records, back.records):
            for field in ("x_k", "g_k", "p_k", "grad_norm_sq", "theta_k", "beta_k", "c_k"):
                a, b = getattr(rec, field), getattr(rec_back, field)
                if a is None:
                    assert b is None
                elif backend.exact:
                    assert list(np.atleast_1d(a)) == list(np.atleast_1d(b))
                    assert all(type(x) is Fraction for x in np.atleast_1d(b))
                else:
                    assert np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b).tobytes()

    @staticmethod
    def _assert_suite_report_survives_save(P, trace, tmp_path):
        path = tmp_path / "t.json"
        save_trace(trace, path)
        expected = report_to_dict(run_full_suite(P, trace=trace))
        assert report_to_dict(run_full_suite(P, trace=load_trace(path))) == expected

    @pytest.mark.parametrize("backend", [RATIONAL, F64], ids=["rational", "f64"])
    @pytest.mark.parametrize("direction", DIRECTION_MODES)
    def test_saved_trace_gives_the_suite_the_same_report(self, tmp_path, direction, backend):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=10, condition=10, seed=0), backend)
        trace = run_cg(P, tol=1e-10, direction_mode=direction)
        assert trace.r > 3
        self._assert_suite_report_survives_save(P, trace, tmp_path)

    @pytest.mark.parametrize("backend", [RATIONAL, F64], ids=["rational", "f64"])
    def test_saved_breakdown_trace_gives_the_suite_the_same_report(
            self, tmp_path, monkeypatch, backend):
        # The final record of a breakdown keeps its p_k and c_k but has no theta_k.
        real_step_length, calls = engine.step_length, []

        def step_length(P, g, p):
            calls.append(1)
            if len(calls) == 3:
                raise BreakdownError("curvature forced to zero")
            return real_step_length(P, g, p)

        monkeypatch.setattr(engine, "step_length", step_length)
        P = generate_problem(ProblemSpec(kind="rand_spd", n=10, condition=10, seed=0), backend)
        trace = run_cg(P, tol=1e-10)
        last = trace.records[-1]
        assert (trace.termination_reason, trace.r) == ("breakdown", 2)
        assert last.p_k is not None and last.c_k is not None and last.theta_k is None
        self._assert_suite_report_survives_save(P, trace, tmp_path)

    @given(trace=consistent_traces(), block=st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_bytes_match_one_dumps_per_vector(self, tmp_path_factory, trace, block):
        # A small block makes most histories span several tables.
        path = tmp_path_factory.getbasetemp() / "t-property.json"
        with mock.patch.object(mmio, "_BLOCK_ENTRIES", block):
            save_trace(trace, path)
        assert path.read_text() == _reference_trace_text(trace)

    @pytest.mark.parametrize("block", [1, 2, 5, mmio._BLOCK_ENTRIES])
    def test_repeated_zeros_of_both_signs_and_subnormals_keep_their_bits(self, tmp_path, block):
        # n = 1 at r = 0, and n = 3 over three records that repeat each other:
        # -0.0 beside 0.0 in one vector, and a subnormal in each of x, g and p.
        for rows in ([[-0.0], [5e-324], [-0.0]],
                     [[0.0, -0.0, 5e-324], [1.0, -0.0, 5e-324], [-5e-324, 0.0, 1.0]] * 3):
            x, g, p = (list(map(vector, rows[i::3])) for i in range(3))
            gns, r = [float(v @ v) for v in g], len(x) - 1
            records = tuple(engine.IterateRecord(k, x[k], g[k], gns[k], p_k=p[k],
                                                 theta_k=0.5 if k < r else None, c_k=-1.0,
                                                 beta_k=gns[k] / gns[k - 1] if k else None)
                            for k in range(r + 1))
            trace = engine.CGTrace("edge", "f64", records, r, "breakdown")
            with mock.patch.object(mmio, "_BLOCK_ENTRIES", block):
                save_trace(trace, tmp_path / "t.json")
            assert (tmp_path / "t.json").read_text() == _reference_trace_text(trace)

    @pytest.mark.parametrize("n", range(175, 186))
    def test_long_laplacian_traces_match_the_reference_and_reload_bit_for_bit(self, tmp_path, n):
        # The verify-f64-long shapes: histories of about n/2 records that span
        # several tables, whose vectors repeat entries (exactly mirror-symmetric
        # at n = 0 mod 4) and keep them from record to record.
        trace = run_cg(generate_problem(ProblemSpec(kind="laplacian1d", n=n)), tol=1e-7)
        assert 3 * (trace.r + 1) * n > 2 * mmio._BLOCK_ENTRIES
        path = tmp_path / "t.json"
        save_trace(trace, path)
        assert path.read_text() == _reference_trace_text(trace)
        for rec, back in zip(trace.records, load_trace(path).records, strict=True):
            for field in ("x_k", "g_k", "p_k"):
                a, b = getattr(rec, field), getattr(back, field)
                assert (a is None and b is None) or a.tobytes() == b.tobytes()

    def test_rational_trace_keeps_decimal_semantics(self, tmp_path):
        P = generate_problem(ProblemSpec(kind="diag", n=2), RATIONAL)
        data = trace_json(run_cg(P), tmp_path)
        data["records"][0]["x"] = [0.1, "0"]
        path = tmp_path / "hand.json"
        path.write_text(json.dumps(data))
        assert load_trace(path).records[0].x_k[0] == Fraction(1, 10)

    @pytest.mark.parametrize("text", ["{nope", '{"backend": "f64", "r": ' + "7" * 5000 + "}"],
                             ids=["malformed", "5000-digit-integer"])
    def test_unreadable_trace_json_rejected(self, tmp_path, text):
        path = tmp_path / "t.json"
        path.write_text(text)
        with pytest.raises(LinalgError, match="not a readable JSON file"):
            load_trace(path)

    def test_rational_decimals_parse_through_the_token_grammar(self, tmp_path):
        P = generate_problem(ProblemSpec(kind="diag", n=2), RATIONAL)
        data = trace_json(run_cg(P), tmp_path)
        path = tmp_path / "hand.json"
        path.write_text(json.dumps(data).replace('"x": ["0", "0"]', '"x": [1e999999999, 0]', 1))
        with pytest.raises(LinalgError, match="not a readable JSON file"):
            load_trace(path)

    def test_malformed_trace_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"problem_id": "x"}))
        with pytest.raises(LinalgError, match="backend and records"):
            load_trace(path)

    def test_trace_without_records_rejected(self, tmp_path):
        # r = len(records) - 1 holds for "records": [], "r": -1, but a
        # trace needs the record of k = 0 to say anything.
        P = generate_problem(ProblemSpec(kind="diag", n=3))
        data = trace_json(run_cg(P), tmp_path)
        data["records"], data["r"] = [], -1
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(data))
        with pytest.raises(LinalgError, match="at least the record of k = 0"):
            load_trace(path)

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    def test_one_number_per_line_layout_still_loads_bit_identically(self, backend, tmp_path):
        P = generate_problem(ProblemSpec(kind="rand_spd", n=6, condition=20, seed=4), backend)
        trace = run_cg(P, tol=1e-12)
        data = trace_json(trace, tmp_path)
        text = (tmp_path / "saved.json").read_text()
        for rec in data["records"]:
            assert json.dumps(rec["g"]) in text  # each vector on one line
        old = tmp_path / "old.json"
        old.write_text(json.dumps(data, indent=1) + "\n")
        back = load_trace(old)
        assert len(back.records) == len(trace.records)
        for rec, rec_back in zip(trace.records, back.records):
            for field in ("x_k", "g_k", "p_k"):
                a, b = getattr(rec, field), getattr(rec_back, field)
                if a is None:
                    assert b is None
                elif backend.exact:
                    assert list(a) == list(b)
                else:
                    assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("bad", [True, "nan", math.nan, math.inf, "1e5000"])
    def test_bad_vector_entries_rejected(self, bad, tmp_path):
        P = generate_problem(ProblemSpec(kind="diag", n=3))
        data = trace_json(run_cg(P), tmp_path)
        data["records"][1]["g"][0] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(LinalgError):
            load_trace(path)

    def test_float64_norm_within_the_dot_product_bound_still_loads(self, tmp_path):
        # As a trace written on another BLAS build: the last g^T g off by an
        # ulp (beta recomputed from it) loads; off by 1e-12 relative does not.
        P = generate_problem(ProblemSpec(kind="laplacian1d", n=12))
        data = trace_json(run_cg(P, tol=1e-8), tmp_path)
        last, before = data["records"][-1], data["records"][-2]
        path = tmp_path / "moved.json"
        for gns, loads in ((np.nextafter(last["grad_norm_sq"], 1.0), True),
                           (last["grad_norm_sq"] * (1 + 1e-12), False)):
            last["grad_norm_sq"], last["beta"] = float(gns), float(gns) / before["grad_norm_sq"]
            path.write_text(json.dumps(data))
            if loads:
                assert load_trace(path).records[-1].grad_norm_sq == gns
            else:
                with pytest.raises(LinalgError, match="grad_norm_sq of record"):
                    load_trace(path)

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    @pytest.mark.parametrize("k, beta", [(0, 1), (1, None), (1, 0)])
    def test_beta_must_be_the_ratio_of_recorded_norms(self, backend, k, beta, tmp_path):
        P = generate_problem(ProblemSpec(kind="diag", n=3), backend)
        data = trace_json(run_cg(P), tmp_path)
        data["records"][k]["beta"] = beta
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(LinalgError, match=f"beta of record {k} "):
            load_trace(path)

    @pytest.mark.parametrize("backend", [F64, RATIONAL], ids=["f64", "rational"])
    @pytest.mark.parametrize("k, field, key", [(0, "grad_norm_sq", "grad_norm_sq"), (1, "beta_k", "beta")])
    def test_a_scaled_norm_or_beta_is_refused_in_memory_and_from_its_file(
            self, backend, k, field, key, tmp_path):
        # One rule, CGTrace's, judges a trace made in memory and one read from a
        # file; the loader puts the path in front of its message.
        P = generate_problem(ProblemSpec(kind="rand_spd", n=8, condition=20, seed=3), backend)
        trace = run_cg(P)
        scaled = getattr(trace.records[k], field) * backend.scalar("1001/1000")
        with pytest.raises(LinalgError) as in_memory:
            with_record(trace, k, **{field: scaled})
        assert str(in_memory.value) == ("grad_norm_sq of record 0 is not g^T g" if k == 0
                                        else "beta of record 1 is not its grad_norm_sq ratio")
        data = trace_json(trace, tmp_path)
        data["records"][k][key] = scalar_token(scaled) if backend.exact else float(scaled)
        path = _write(tmp_path / "T.json", data)
        with pytest.raises(LinalgError) as from_file:
            load_trace(path)
        assert str(from_file.value) == f"{path}: {in_memory.value}"

    def test_record_after_a_zero_gradient_rejected(self, tmp_path):
        P = generate_problem(ProblemSpec(kind="diag", n=2), RATIONAL)
        data = trace_json(run_cg(P), tmp_path)
        data["records"][0].update(g=["0", "0"], grad_norm_sq="0")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(LinalgError, match="beta of record 1 "):
            load_trace(path)


def trace_json(trace, tmp_path):
    path = tmp_path / "saved.json"
    save_trace(trace, path)
    return json.loads(path.read_text())


def _write(path, data):
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return path


class TestObjectsAreNotSequences:
    # A JSON object iterates over its keys, which would be read as the entries.
    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    @pytest.mark.parametrize("key, value", [
        ("c", {"7": "ignored"}), ("x0", {"0": "ignored"}), ("H", {"dense": [{"3": "x"}]}),
    ], ids=["c", "x0", "H-row"])
    def test_problem_file(self, tmp_path, backend, key, value):
        data = {"n": 1, "H": {"dense": [[3]]}, "c": [7], "x0": [0], key: value}
        with pytest.raises(DimensionMismatch, match="sequences? of entries"):
            load_problem(_write(tmp_path / "p.json", data), backend)

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    @pytest.mark.parametrize("key", ["x", "g", "p"])
    def test_trace_file(self, tmp_path, backend, key):
        P = QuadraticProblem(H=sym_matrix([[2]], backend), c=vector([-1], backend),
                             x0=vector([1], backend))
        data = trace_json(run_cg(P), tmp_path)
        rec = data["records"][0]
        rec[key] = {str(rec[key][0]): "ignored"}  # its one key is its one entry
        with pytest.raises(DimensionMismatch, match="sequences? of entries"):
            load_trace(_write(tmp_path / "t.json", data))


def _mutated(data, edit):
    edit(data)
    return data


class TestRefusalsNameTheirFile:
    """Each loader's refusal keeps its class and names the file it read, once."""

    PROBLEM = {"n": 2, "H": {"dense": [[2, 1], [1, 2]]}, "c": [1, 0], "x0": [0, 0]}

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    @pytest.mark.parametrize("edit, error", [
        (lambda d: "{nope", LinalgError),
        (lambda d: _mutated(d, lambda d: d.pop("H")), LinalgError),
        (lambda d: _mutated(d, lambda d: d["c"].__setitem__(0, "1x")), LinalgError),
        (lambda d: _mutated(d, lambda d: d["H"]["dense"][0].__setitem__(1, 0)),
         AsymmetricMatrixError),
        (lambda d: _mutated(d, lambda d: d["H"].update(dense=[[1, 2], [2, 1]])), LinalgError),
        (lambda d: _mutated(d, lambda d: d.update(n=3)), LinalgError),
    ], ids=["not-json", "missing-key", "bad-token", "asymmetric", "not-spd", "wrong-n"])
    def test_problem_file(self, tmp_path, backend, edit, error):
        path = _write(tmp_path / "p.json", edit(json.loads(json.dumps(self.PROBLEM))))
        with pytest.raises(LinalgError) as info:
            load_problem(path, backend)
        assert type(info.value) is error
        assert str(info.value).count(str(path)) == 1

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    def test_matrix_market_line_names_both_files(self, tmp_path, backend):
        mtx = tmp_path / "H.mtx"
        mtx.write_text("%%MatrixMarket matrix array real symmetric\n1 1\n1x\n")
        path = _write(tmp_path / "p.json",
                      {"n": 1, "H": {"matrix_market": "H.mtx"}, "c": [1], "x0": [0]})
        with pytest.raises(LinalgError) as info:
            load_problem(path, backend)
        assert type(info.value) is MMParseError
        assert str(info.value) == f"{path}: {mtx}: line 3: bad real value '1x'"

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    @pytest.mark.parametrize("edit", [
        lambda d: "{nope",
        lambda d: _mutated(d, lambda d: d.pop("records")),
        lambda d: _mutated(d, lambda d: d["records"][1].update(grad_norm_sq=12345)),
        lambda d: _mutated(d, lambda d: d["records"][1].update(beta=7)),
        lambda d: _mutated(d, lambda d: d["records"][-1].update(theta=1)),
        lambda d: _mutated(d, lambda d: d["records"][0].update(theta="abc")),
    ], ids=["not-json", "no-records", "bad-grad-norm-sq", "bad-beta", "shape", "theta-abc"])
    def test_trace_file(self, tmp_path, backend, edit):
        P = generate_problem(ProblemSpec(kind="diag", n=3), backend)
        path = _write(tmp_path / "t.json", edit(trace_json(run_cg(P), tmp_path)))
        with pytest.raises(LinalgError) as info:
            load_trace(path)
        assert type(info.value) is LinalgError
        assert str(info.value).count(str(path)) == 1

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    @pytest.mark.parametrize("edit, refusal", [
        (lambda d: d["records"][1].update(k=1.9), "k must be an integer"),
        (lambda d: d["records"][1].update(k=True), "k must be an integer, not True"),
        (lambda d: d.update(r=3.5), "r must be an integer, not 3.5"),
        (lambda d: d.update(r="3"), "r must be an integer, not '3'"),
        (lambda d: d.update(problem_id={"a": 1}), "problem_id must be a string"),
        (lambda d: d.update(problem_id=None), "problem_id must be a string, not None"),
        (lambda d: d.update(termination_reason=7), "termination_reason must be a string"),
        (lambda d: d.update(direction_mode="bogus"), "unknown direction mode 'bogus'"),
        (lambda d: d.update(direction_mode=None), "direction_mode must be a string, not None"),
        (lambda d: d.update(scaling_mode=5), "scaling_mode must be a string, not 5"),
    ], ids=["k-1.9", "k-true", "r-3.5", "r-string", "problem-id-object", "problem-id-null",
            "reason-number", "direction-bogus", "direction-null", "scaling-number"])
    def test_trace_field_of_the_wrong_type(self, tmp_path, backend, edit, refusal):
        # k and r are JSON integers, the names JSON strings; none is coerced.
        P = generate_problem(ProblemSpec(kind="diag", n=3), backend)
        path = _write(tmp_path / "t.json", _mutated(trace_json(run_cg(P), tmp_path), edit))
        with pytest.raises(LinalgError, match=f"^{re.escape(str(path))}: {re.escape(refusal)}"):
            load_trace(path)

    @pytest.mark.parametrize("backend", [F64, RATIONAL])
    @pytest.mark.parametrize("label, loaded", [
        ({"a": [1]}, None), (7, None), (0, None), ([], None), (False, None),
        (None, "p"), ("", "p"), ("mine", "mine"),
    ])
    def test_problem_label_is_a_string_or_falls_back_to_the_file_name(
            self, tmp_path, backend, label, loaded):
        path = _write(tmp_path / "p.json", {**self.PROBLEM, "label": label})
        if loaded is not None:
            assert load_problem(path, backend).label == loaded
            return
        with pytest.raises(LinalgError, match=f"^{re.escape(str(path))}: label must be a string"):
            load_problem(path, backend)
