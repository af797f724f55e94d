"""Hostile input for every loader: each input loads, or is refused with
``LinalgError`` (through the CLI: exit 2 and one ``error:`` line), within a
per-example deadline, never with a traceback or a hang."""

from __future__ import annotations

import copy
import json
import re
import time
import warnings
from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cglens import (
    F64, RATIONAL, LinalgError, ProblemSpec, generate_problem, load_trace, run_cg, run_full_suite,
)
from cglens import cli
from cglens.linalg import _TOKEN, EXPONENT_CAP
from cglens.mmio import read_matrix_market, save_trace

FUZZ = settings(
    max_examples=60,
    deadline=timedelta(seconds=2),
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

# Tokens near the edges of the grammar, beside arbitrary short text.
tokens = st.sampled_from([
    "1/0", "0/5", "-3/4", "nan", "inf", "-0", "1e999999999", "1e-5000", "1e308", "1e-320",
    "1_0", "0x10", " 2 ", "2 / 3", "", ".", "1.", ".5e1", "1" * 5000, "9" * 4300,
]) | st.text(alphabet="0123456789+-./eE x", max_size=10)

scalars = (st.none() | st.booleans() | st.integers() | st.floats() | tokens
           | st.integers(min_value=2**60).map(lambda k: -k))

json_values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=10,
)


def _mutated(data, doc, rounds=3):
    """doc after up to ``rounds`` edits, each replacing or deleting one node
    found by a random walk from the root (the root itself included)."""
    for _ in range(data.draw(st.integers(1, rounds))):
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
            parent, key = node, data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                                          else range(len(node))))
            node = node[key]
        if parent is None:
            doc = data.draw(json_values)
        elif data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(json_values)
    return doc


def _refused_in_one_line(rc: int, err: str) -> bool:
    return rc != 2 or (err.startswith("error: ") and err.count("\n") == 1)


PROBLEM = {"n": 2, "H": {"dense": [[2, "1/2"], [0.5, 3]]}, "c": [-2, "1e-3"], "x0": [0, 0],
           "label": "fuzz"}


@given(data=st.data(), backend=st.sampled_from(["f64", "rational"]))
@FUZZ
def test_problem_json_verifies_or_exits_two(tmp_path_factory, capsys, data, backend):
    path = tmp_path_factory.getbasetemp() / "fuzz-problem.json"
    path.write_text(json.dumps(_mutated(data, copy.deepcopy(PROBLEM))))
    capsys.readouterr()
    rc = cli.main(["verify", "--problem", str(path), "--backend", backend])
    assert rc in (0, 1, 2, 3)
    assert _refused_in_one_line(rc, capsys.readouterr().err)


@given(data=st.data(), backend=st.sampled_from([F64, RATIONAL]))
@FUZZ
def test_trace_json_loads_or_raises_linalg_error(tmp_path_factory, data, backend):
    path = tmp_path_factory.getbasetemp() / "fuzz-trace.json"
    P = generate_problem(ProblemSpec(kind="rand_spd", n=3, condition=5.0, seed=2), backend)
    save_trace(run_cg(P, tol=1e-10), path)
    path.write_text(json.dumps(_mutated(data, json.loads(path.read_text()))))
    # A trace that loads gives the suite a report or a LinalgError, nothing else.
    try:
        run_full_suite(P, trace=load_trace(path))
    except LinalgError:
        pass


# Finite entries of a float64 trace that overflow the suite's residuals.
OVERFLOWS = {
    "theta": lambda rec: rec.update(theta=1e308),
    "c": lambda rec: rec.update(c=1.7e308),
    "p": lambda rec: rec["p"].__setitem__(0, 1.7e308),
    "x": lambda rec: rec["x"].__setitem__(0, 1.7e308),
}


@pytest.mark.parametrize("entry", list(OVERFLOWS))
def test_trace_that_overflows_the_residuals_fails_without_a_warning(tmp_path, entry):
    path = tmp_path / "trace.json"
    P = generate_problem(ProblemSpec(kind="rand_spd", n=3, condition=5.0, seed=2), F64)
    save_trace(run_cg(P, tol=1e-10), path)
    doc = json.loads(path.read_text())
    OVERFLOWS[entry](doc["records"][1])
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run_full_suite(P, trace=load_trace(path))
    assert not report.overall


HEADERS = st.sampled_from([
    "%%MatrixMarket matrix coordinate real symmetric",
    "%%MatrixMarket matrix coordinate integer general",
    "%%MatrixMarket matrix array real symmetric",
    "%%MatrixMarket matrix array integer general",
    "%%MatrixMarket matrix coordinate complex symmetric",
    "%%MatrixMarket vector array real general",
    "%%MatrixMarket matrix array real",
    "",
])
mm_fields = st.integers(-2, 4).map(str) | st.integers().map(str) | tokens


@given(header=HEADERS,
       lines=st.lists(st.lists(mm_fields, max_size=4).map(" ".join) | st.just("% comment"),
                      max_size=8),
       backend=st.sampled_from([F64, RATIONAL]))
@FUZZ
def test_matrix_market_loads_or_raises_linalg_error(tmp_path_factory, header, lines, backend):
    path = tmp_path_factory.getbasetemp() / "fuzz.mtx"
    path.write_text("\n".join([header, *lines]) + "\n")
    try:
        M = read_matrix_market(path, backend)
    except LinalgError:
        return
    assert M.shape[0] == M.shape[1] >= 1 and (M == M.T).all()


override_values = tokens | st.floats().map(repr) | st.integers().map(str)
override_names = st.sampled_from(["conjugacy", "gradient_orthogonality", "min_norm_relation",
                                  "nope", ""])


@given(pairs=st.lists(st.tuples(override_names, st.sampled_from(["=", "", "=="]), override_values),
                      max_size=3),
       separator=st.sampled_from([",", " ", ", "]))
@FUZZ
def test_tolerance_overrides_verify_or_exit_two(monkeypatch, capsys, pairs, separator):
    monkeypatch.setenv("CGLENS_TOL_OVERRIDES", separator.join(n + eq + v for n, eq, v in pairs))
    capsys.readouterr()
    rc = cli.main(["verify", "--kind", "laplacian1d", "--n", "4"])
    assert rc in (0, 1, 2)
    assert _refused_in_one_line(rc, capsys.readouterr().err)


@pytest.mark.parametrize("backend", ["f64", "rational"])
def test_problem_nested_past_the_recursion_limit_exits_two(tmp_path, capsys, backend):
    depth = 100_000
    path = tmp_path / "deep.json"
    path.write_text('{"n": 1, "H": {"dense": [[2]]}, "c": [1], "x0": [0], "label": '
                    + "[" * depth + "]" * depth + "}")
    rc = cli.main(["verify", "--problem", str(path), "--backend", backend])
    err = capsys.readouterr().err
    assert rc == 2 and _refused_in_one_line(rc, err) and "deep.json" in err


def test_rational_trace_nested_deep_in_a_record_raises_linalg_error(tmp_path):
    path = tmp_path / "deep-trace.json"
    P = generate_problem(ProblemSpec(kind="rand_spd", n=3, condition=5.0, seed=2), RATIONAL)
    save_trace(run_cg(P, tol=1e-10), path)
    doc = json.loads(path.read_text())
    doc["records"][1]["theta"] = None
    depth = 600
    path.write_text(json.dumps(doc).replace('"theta": null', '"theta": ' + "[" * depth + "]" * depth))
    with pytest.raises(LinalgError):
        load_trace(path)


# The token grammar as it was written before no digit run could be split two
# ways, and its "p/q" branch alone, which a token with a "/" must match.
_GRAMMAR = re.compile(r"\s*[+-]?(?:\d+/\d+|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?0*(\d+))?)\s*", re.ASCII)
_RATIO = re.compile(r"\s*[+-]?\d+/\d+\s*", re.ASCII)
_OVER_CAP = re.compile(r"\d{%d}" % (EXPONENT_CAP + 1), re.ASCII)


def _fraction_of(token: str) -> Fraction | None:
    """What a token with a "/" meant before the rational backend read p and q as
    ints: Fraction(token) after the grammar and the digit-run cap; None if refused."""
    if not _RATIO.fullmatch(token) or _OVER_CAP.search(token):
        return None
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        return None


def _joined(*parts):
    return st.builds(lambda *texts: "".join(texts), *parts)


# Tokens the grammar accepts (a zero denominator included), then any mix of
# those parts with a non-ASCII space, sign, digit or slash, a second sign or
# slash, an empty run, or a run one digit over the cap.
_cap_runs = st.sampled_from(["7" * EXPONENT_CAP, "0" * (EXPONENT_CAP - 1) + "3"])
_runs = (st.text(alphabet="0123456789", min_size=1, max_size=14)
         | st.integers(0, 10**20).map(lambda k: "000" + str(k)) | _cap_runs)
_ascii_spaces = st.sampled_from(["", " ", "\t", "\n ", "\x0b\x0c\r"])
_accepted = _joined(_ascii_spaces, st.sampled_from(["", "+", "-"]), _runs, st.just("/"), _runs,
                    _ascii_spaces)
_spaces = _ascii_spaces | st.sampled_from(["\u00a0", "\u2003"])
_signs = st.sampled_from(["", "+", "-", "--", "+-", "\u2212"])
_any_runs = (_runs | _cap_runs.map(lambda run: run + "1")
             | st.sampled_from(["", "1_0", "\u0663", "\uff15", "1\u0663", "\u00b2", " 3"]))
ratio_tokens = _accepted | _joined(_spaces, _signs, _any_runs,
                                   st.sampled_from(["/", "//", "\uff0f", " /"]), _signs, _any_runs,
                                   _spaces)


@given(token=ratio_tokens)
@example(token="7" * EXPONENT_CAP + "/" + "3" * EXPONENT_CAP)
@example(token="7" * (EXPONENT_CAP + 1) + "/3")
@example(token="1/" + "0" * EXPONENT_CAP)
@example(token=" -007/010\n")
@example(token="+0/0005")
@example(token="\u0663/4")
@FUZZ
def test_a_ratio_token_reads_as_the_fraction_it_names(token):
    expected = _fraction_of(token)
    if expected is None:
        for backend in (RATIONAL, F64):
            with pytest.raises(LinalgError):
                backend.scalar(token)
        return
    value = RATIONAL.scalar(token)
    assert type(value) is Fraction and (value.numerator, value.denominator) == (
        expected.numerator, expected.denominator)
    try:
        rounded = float(expected)
    except OverflowError:
        with pytest.raises(LinalgError):
            F64.scalar(token)
    else:
        assert F64.scalar(token).hex() == rounded.hex()


@given(text=st.text(alphabet="0123456789./eE+- \t x", max_size=12)
       | st.builds(lambda run, tail: run + tail,
                   st.sampled_from(["7" * 300, "0" * 299 + "1", "1e" + "0" * 300, "2.e-0" + "5" * 300]),
                   st.sampled_from(["", "x", "//3", "/", ".5e", "e00", "0", "/2 ", ".1e+007"])))
@FUZZ
def test_the_token_grammar_accepts_what_it_always_accepted(text):
    match, before = _TOKEN.fullmatch(text), _GRAMMAR.fullmatch(text)
    assert (match is None) == (before is None)
    assert match is None or match[1] == before[1]


def test_a_long_refused_digit_run_costs_linear_time():
    # A refused run of EXPONENT_CAP digits once took 0.3-0.6 s a token.
    start = time.perf_counter()
    for head in ("7" * EXPONENT_CAP, "1e" + "0" * EXPONENT_CAP, "1e0" + "5" * (EXPONENT_CAP - 1)):
        for tail in ("x", "//3", "/-3", "..1"):
            for backend in (RATIONAL, F64):
                with pytest.raises(LinalgError):
                    backend.scalar(head + tail)
    assert time.perf_counter() - start < 0.5
