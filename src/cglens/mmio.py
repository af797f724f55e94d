"""File formats: Matrix Market matrices, JSON problems, JSON traces.

Numbers in JSON files may be plain numerics or numeric strings: decimal
literals or "p/q" exact rationals, in the one token grammar of
``linalg.Backend.scalar``.  Under the rational backend decimal literals
are parsed with decimal semantics ("0.1" becomes 1/10, not the nearest
double), and everything written is written losslessly: rationals as
"p/q" tokens, floats as JSON numbers with shortest round-tripping digits.
``save_json`` writes problems, traces and reports in the ``indent=1`` layout
of ``json.dump``, except that each vector (a matrix row, c, x0, or a trace's x,
g or p) is one line.  The rows of the symmetric H reuse each entry's token for
its mirror above the diagonal.  ``_RECORD_FIELDS`` is the one trace record schema.

Matrix Market reading covers the coordinate and array formats with real or
integer fields and general or symmetric symmetry, read by one entry loop.  Parse
errors carry 1-based line numbers.  Every refusal of a loader, or of a writer
whose number has no token, starts with its path.  Fields are read by JSON type
(``_typed``): n, k and r integers, names strings.  A trace's grad_norm_sq
passes ``linalg._gate``, the gate rule of every judgement on input.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from typing import Iterator

import numpy as np

from .linalg import (
    BACKENDS,
    Backend,
    F64,
    LinalgError,
    _gate,
    norm_sq,
    scalar_token,
    sym_matrix,
    vector,
)
from .quadratic import QuadraticProblem
from .engine import CGTrace, IterateRecord


class MMParseError(LinalgError):
    """A Matrix Market file failed to parse; message cites the line."""


def _names_its_file(function):
    """``function``, each ``LinalgError`` it raises prefixed by its ``path`` argument, class kept."""
    @functools.wraps(function)
    def named(*args, **kwargs):
        try:
            return function(*args, **kwargs)
        except LinalgError as err:
            path = inspect.signature(function).bind(*args, **kwargs).arguments["path"]
            raise type(err)(f"{path}: {err}") from err
    return named


def _typed(value, kind: type, name: str):
    """``value``, refused unless its JSON type is ``kind``: ``int`` (no boolean) or ``str``."""
    if type(value) is not kind:
        raise LinalgError(f"{name} must be {'a string' if kind is str else 'an integer'}, "
                          f"not {value!r}")
    return value


def _parse_value(token: str, field: str, backend: Backend, lineno: int):
    try:
        if field == "integer" and not token.lstrip("+-").isdigit():
            raise LinalgError("not an integer")
        return backend.scalar(token)
    except LinalgError as err:
        raise MMParseError(f"line {lineno}: bad {field} value {token!r}") from err


def _coordinate_cells(entries, n: int):
    """(line number, i, j, value token) of each coordinate line, 0-based,
    each line's fields and indices checked when the reader reaches it."""
    for lno, line in entries:
        parts = line.split()
        if len(parts) != 3:
            raise MMParseError(f"line {lno}: expected 'i j value'")
        try:
            i, j = int(parts[0]) - 1, int(parts[1]) - 1
        except ValueError:
            raise MMParseError(f"line {lno}: bad indices {parts[0]!r} {parts[1]!r}")
        if not (0 <= i < n and 0 <= j < n):
            raise MMParseError(f"line {lno}: entry ({i + 1}, {j + 1}) outside {n}x{n}")
        yield lno, i, j, parts[2]


@_names_its_file
def read_matrix_market(path, backend: Backend = F64) -> np.ndarray:
    """Read a symmetric matrix; either triangle of a symmetric file is mirrored.

    Accepts coordinate and array formats, real or integer fields,
    general or symmetric symmetry.  General files must contain both
    triangles and are validated for symmetry entry by entry.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MMParseError("line 1: empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket" or header[1].lower() != "matrix":
        raise MMParseError("line 1: expected '%%MatrixMarket matrix <format> <field> <symmetry>'")
    fmt, field, symmetry = (tok.lower() for tok in header[2:5])
    if fmt not in ("coordinate", "array"):
        raise MMParseError(f"line 1: unsupported format {fmt!r}")
    if field not in ("real", "integer"):
        raise MMParseError(f"line 1: unsupported field {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise MMParseError(f"line 1: unsupported symmetry {symmetry!r}")

    body = [
        (i + 1, line)
        for i, line in enumerate(lines)
        if i > 0 and line.strip() and not line.lstrip().startswith("%")
    ]
    if not body:
        raise MMParseError(f"line {len(lines)}: missing size line")
    lineno, size_line = body[0]
    sizes = size_line.split()
    expected = 3 if fmt == "coordinate" else 2
    if len(sizes) != expected:
        raise MMParseError(f"line {lineno}: size line needs {expected} integers")
    try:
        sizes = [int(s) for s in sizes]
    except ValueError:
        raise MMParseError(f"line {lineno}: size line needs {expected} integers")
    m, n = sizes[0], sizes[1]
    if m != n:
        raise MMParseError(f"line {lineno}: matrix is {m}x{n}, not square")

    entries = body[1:]
    if fmt == "coordinate":
        if len(entries) != sizes[2]:
            raise MMParseError(f"line {lineno}: declared {sizes[2]} entries but file has {len(entries)}")
        cells = _coordinate_cells(entries, n)
    else:
        values = [(lno, tok) for lno, line in entries for tok in line.split()]
        count = n * (n + 1) // 2 if symmetry == "symmetric" else n * n
        if len(values) != count:
            raise MMParseError(f"line {body[-1][0]}: expected {count} values, found {len(values)}")
        coords = [(i, j) for j in range(n) for i in range(j if symmetry == "symmetric" else 0, n)]
        cells = ((lno, i, j, tok) for (i, j), (lno, tok) in zip(coords, values))

    # One loop for both layouts: parse, place, mirror.
    filled = {}
    for lno, i, j, tok in cells:
        value = _parse_value(tok, field, backend, lno)
        for key in ((i, j), (j, i)) if symmetry == "symmetric" else ((i, j),):
            if filled.setdefault(key, value) != value:
                raise MMParseError(f"line {lno}: duplicate entry ({key[0] + 1}, {key[1] + 1}) "
                                   "with a different value")
    # The dense matrix has n^2 entries however few the file stores; a row
    # with none is zero, so only a singular matrix would be built.
    rows = {i for i, _ in filled}
    if len(rows) < n:
        empty = next(i for i in range(n) if i not in rows)
        raise MMParseError(f"line {lineno}: row {empty + 1} of {n} has no entry")

    dense = [[filled.get((i, j), backend.zero) for j in range(n)] for i in range(n)]
    return sym_matrix(dense, backend)


def vector_tokens(v, backend: Backend) -> list:
    """Serialize a vector's entries losslessly for JSON embedding."""
    if backend.exact:
        return [scalar_token(x) for x in v]
    return np.asarray(v, dtype=np.float64).tolist()


def _write_json(fh, node, depth: int) -> None:
    """Write ``node`` as ``json.dump(node, fh, indent=1)`` lays it out, except
    that a list of scalars (a vector) is one line from ``json.dumps``, and an
    iterator stands for a list of vectors and yields each one's line.

    Only one line's text is in memory at a time, beside what an iterator holds.
    """
    keyed, lines = isinstance(node, dict), isinstance(node, Iterator)
    if not (node and (keyed or lines or isinstance(node, list) and isinstance(node[0], (list, dict)))):
        fh.write(json.dumps(node))
        return
    pad = "\n" + " " * (depth + 1)
    fh.write("{" if keyed else "[")
    for index, (key, value) in enumerate(node.items() if keyed else enumerate(node)):
        fh.write(("," if index else "") + pad + (json.dumps(key) + ": " if keyed else ""))
        if lines:
            fh.write(value)
        else:
            _write_json(fh, value, depth + 1)
    fh.write("\n" + " " * depth + ("}" if keyed else "]"))


def _matrix_lines(H: np.ndarray, backend: Backend) -> Iterator[str]:
    """Each row of a symmetric H as the line ``json.dumps`` gives for it.

    Row i formats its entries from the diagonal rightward and stacks the rest
    for the later rows they mirror into, so each token is formatted once.
    An entry that differs in bits from its mirror (0.0 against -0.0) is
    formatted itself; equal rationals always format alike.
    """
    if backend.exact:
        token, bits, odd = (lambda x: '"' + scalar_token(x) + '"'), None, [False] * len(H)
    else:
        H = np.asarray(H, dtype=np.float64)
        token, bits = repr, H.view(np.uint64)
        odd = (bits != bits.T).any(axis=1).tolist()  # the n-by-n mask is not kept
    stacks = []  # row j's tokens right of its diagonal, the next column's last
    for i, row in enumerate(H):
        upper = list(map(token, row[i:].tolist()))
        lower = list(map(list.pop, stacks))
        stacks.append(upper[:0:-1])
        for j in np.flatnonzero(bits[i, :i] != bits[:i, i]) if odd[i] else ():
            lower[j] = token(row.item(j))
        yield "[" + ", ".join(lower + upper) + "]"


def _read_json(path, backend: Backend):
    """The parsed JSON file, with decimals as the backend's scalars.

    Text that is not JSON, or holds an integer literal past Python's
    digit limit, raises ``LinalgError``.  Under rationals decimals parse
    through the token grammar, whose exponent cap keeps a literal like
    1e999999999 from building its integer.
    """
    with open(path) as fh:
        try:
            return json.load(fh, parse_float=backend.scalar if backend.exact else float)
        except (ValueError, RecursionError) as err:  # JSONDecodeError, digit limit, deep nesting
            raise LinalgError(f"not a readable JSON file ({err})") from err


def save_json(data, path) -> None:
    """Write ``data`` to ``path`` in the layout of ``_write_json``, with a final
    newline: a problem, a trace or a verification report."""
    with open(path, "w") as fh:
        _write_json(fh, data, 0)
        fh.write("\n")


@_names_its_file
def load_problem(path, backend: Backend = F64) -> QuadraticProblem:
    """Load a problem from its JSON file (H inline or via Matrix Market).

    Schema: {"n": int, "H": {"dense": [[...]]} | {"matrix_market": path},
    "c": [...], "x0": [...], "label"?: str}; numbers may be numerics or
    "p/q" strings, and a matrix_market path is taken relative to the
    JSON file.
    """
    data = _read_json(path, backend)
    try:
        n, H_spec, c_raw, x0_raw = data["n"], data["H"], data["c"], data["x0"]
    except (KeyError, TypeError) as err:
        raise LinalgError("problem JSON must define n, H, c, x0") from err
    _typed(n, int, "n")

    if isinstance(H_spec, dict) and "dense" in H_spec:
        H = sym_matrix(H_spec["dense"], backend)
    elif isinstance(H_spec, dict) and isinstance(H_spec.get("matrix_market"), str):
        mm_path = os.path.join(os.path.dirname(os.path.abspath(path)), H_spec["matrix_market"])
        H = read_matrix_market(mm_path, backend)
    else:
        raise LinalgError('H must be {"dense": [rows]} or {"matrix_market": "a file name"}')
    if H.shape[0] != n:
        raise LinalgError(f"H is {H.shape[0]}x{H.shape[0]} but n = {n}")
    label = "" if data.get("label") is None else _typed(data["label"], str, "label")
    return QuadraticProblem(
        H=H, c=vector(c_raw, backend), x0=vector(x0_raw, backend),
        label=label or os.path.splitext(os.path.basename(path))[0],
    )


@_names_its_file
def save_problem(P: QuadraticProblem, path) -> None:
    """Write a problem as JSON with a dense H, losslessly; formatted before the file is opened."""
    backend = P.backend
    save_json({
        "n": P.n,
        "H": {"dense": iter(list(_matrix_lines(P.H, backend)))},
        "c": vector_tokens(P.c, backend),
        "x0": vector_tokens(P.x0, backend),
        "label": P.label,
    }, path)


# A trace record's fields: JSON key, ``IterateRecord`` attribute, kind.  None is null.
_RECORD_FIELDS = (("k", "k", "index"), ("x", "x_k", "vector"), ("g", "g_k", "vector"),
                  ("grad_norm_sq", "grad_norm_sq", "scalar"), ("p", "p_k", "vector"),
                  ("theta", "theta_k", "scalar"), ("beta", "beta_k", "scalar"),
                  ("c", "c_k", "scalar"))


@_names_its_file
def save_trace(trace: CGTrace, path) -> None:
    """Write a trace as JSON; all numerics lossless, and formatted before the file is opened."""
    backend = BACKENDS[trace.scalar_backend]
    write = {"index": int, "vector": lambda v: vector_tokens(v, backend),
             "scalar": scalar_token if backend.exact else float}
    save_json({
        "problem_id": trace.problem_id,
        "backend": trace.scalar_backend,
        "direction_mode": trace.direction_mode,
        "scaling_mode": trace.scaling_mode,
        "termination_reason": trace.termination_reason,
        "r": trace.termination_index,
        "records": [
            {key: None if (value := getattr(rec, field)) is None else write[kind](value)
             for key, field, kind in _RECORD_FIELDS}
            for rec in trace.records
        ],
    }, path)


def _holds_float(node) -> bool:
    if isinstance(node, list):
        return any(_holds_float(x) for x in node)
    if isinstance(node, dict):
        return any(_holds_float(x) for x in node.values())
    return isinstance(node, float)


@_names_its_file
def load_trace(path) -> CGTrace:
    """Reconstruct a trace from its JSON file.

    The text is parsed once, with JSON decimals as floats: that is what a
    float64 trace holds, and ``save_trace`` writes rational numbers as
    "p/q" strings.  Only a rational trace that holds JSON decimals (one
    written by hand) is parsed a second time, to read them exactly.
    """
    data = _read_json(path, F64)
    try:
        backend = BACKENDS[data["backend"]]
        raw_records = data["records"]
        if backend.exact and _holds_float(raw_records):
            data = _read_json(path, backend)
            raw_records = data["records"]
        read = {"index": lambda k: _typed(k, int, "k"), "vector": lambda v: vector(v, backend),
                "scalar": backend.scalar}
        records = tuple(
            IterateRecord(**{field: None if (value := rec.get(key)) is None else read[kind](value)
                             for key, field, kind in _RECORD_FIELDS})
            for rec in raw_records
        )
        # run_cg records g_k^T g_k, equal here up to a float64 dot product's
        # rounding on another BLAS build, and beta_k, its exact ratio to the last.
        for prev, rec in zip((None, *records), records):
            gns = norm_sq(rec.g_k)
            _gate(backend, rec.grad_norm_sq - gns, lambda: np.finfo(np.float64).eps * rec.g_k.size * gns,
                  f"grad_norm_sq of record {rec.k} is not g^T g")
            if prev is None:
                beta_ok = rec.beta_k is None
            else:
                beta_ok = prev.grad_norm_sq != 0 and rec.beta_k == rec.grad_norm_sq / prev.grad_norm_sq
            if not beta_ok:
                raise LinalgError(f"beta of record {rec.k} is not its grad_norm_sq ratio")
        # CGTrace refuses records out of order, or of a shape run_cg never writes.
        return CGTrace(
            problem_id=_typed(data.get("problem_id", "unlabeled"), str, "problem_id"),
            scalar_backend=backend.name,
            records=records,
            termination_index=_typed(data["r"], int, "r"),
            termination_reason=_typed(data["termination_reason"], str, "termination_reason"),
            direction_mode=_typed(data.get("direction_mode", "recursive"), str, "direction_mode"),
            scaling_mode=_typed(data.get("scaling_mode", "cg_standard"), str, "scaling_mode"),
        )
    except LinalgError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError, RecursionError) as err:
        # A field missing, of the wrong kind, or nested too deep, anywhere in the document.
        raise LinalgError("trace JSON must define backend and records, each with "
                          f"k, x, g and grad_norm_sq ({type(err).__name__}: {err})") from err
