"""File formats: Matrix Market matrices, JSON problems, JSON traces.

Numbers in JSON files may be plain numerics or strings of the form
"p/q" (exact rationals).  Under the rational backend decimal literals
are parsed with decimal semantics ("0.1" becomes 1/10, not the nearest
double), and everything written is written losslessly: rationals as
"p/q" tokens, floats as shortest round-tripping decimals.

Matrix Market support covers the coordinate and array formats with
real or integer fields and general or symmetric symmetry — the
standard interchange subset for dense SPD test matrices.  Parse errors
carry 1-based line numbers.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import numpy as np

from .linalg import (
    BACKENDS,
    Backend,
    F64,
    LinalgError,
    backend_of,
    scalar_token,
    sym_matrix,
    vector,
)
from .quadratic import QuadraticProblem
from .engine import CGTrace, IterateRecord


class MMParseError(LinalgError):
    """A Matrix Market file failed to parse; message cites the line."""


def exact_decimal(token: str) -> Fraction:
    """Parse a decimal literal exactly ("0.1" -> 1/10, "2/3" -> 2/3)."""
    token = token.strip()
    try:
        return Fraction(token)
    except ValueError:
        pass
    mantissa, _, exponent = token.lower().partition("e")
    try:
        frac = Fraction(mantissa)
        return frac * Fraction(10) ** int(exponent)
    except (ValueError, ZeroDivisionError) as err:
        raise LinalgError(f"cannot parse {token!r} as an exact number") from err


def _parse_value(token: str, field: str, backend: Backend, lineno: int):
    try:
        if field == "integer":
            return backend.scalar(int(token))
        if backend.exact:
            return exact_decimal(token)
        return float(token)
    except (ValueError, LinalgError) as err:
        raise MMParseError(f"line {lineno}: bad {field} value {token!r}") from err


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

    filled = [[None] * n for _ in range(n)]

    def put(i, j, value, lineno):
        if filled[i][j] is not None and filled[i][j] != value:
            raise MMParseError(
                f"line {lineno}: duplicate entry ({i + 1}, {j + 1}) with a different value"
            )
        filled[i][j] = value

    if fmt == "coordinate":
        nnz = sizes[2]
        entries = body[1:]
        if len(entries) != nnz:
            raise MMParseError(
                f"line {lineno}: declared {nnz} entries but file has {len(entries)}"
            )
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
            value = _parse_value(parts[2], field, backend, lno)
            put(i, j, value, lno)
            if symmetry == "symmetric" and i != j:
                put(j, i, value, lno)
    else:
        values = []
        for lno, line in body[1:]:
            for tok in line.split():
                values.append((lno, tok))
        if symmetry == "symmetric":
            coords = [(i, j) for j in range(n) for i in range(j, n)]
        else:
            coords = [(i, j) for j in range(n) for i in range(n)]
        if len(values) != len(coords):
            raise MMParseError(
                f"line {body[-1][0]}: expected {len(coords)} values, found {len(values)}"
            )
        for (i, j), (lno, tok) in zip(coords, values):
            value = _parse_value(tok, field, backend, lno)
            put(i, j, value, lno)
            if symmetry == "symmetric" and i != j:
                put(j, i, value, lno)

    for i in range(n):
        for j in range(n):
            if filled[i][j] is None:
                filled[i][j] = backend.zero
    return sym_matrix(filled, backend)


def write_matrix_market(M: np.ndarray, path, comment: str | None = None) -> None:
    """Write a symmetric matrix in array format, losslessly.

    The field is ``integer`` when every entry is integral; otherwise
    ``real`` with shortest round-tripping float tokens.  Non-integer
    rational matrices have no lossless Matrix Market encoding — store
    those in the JSON dense form instead.
    """
    backend = backend_of(M)
    n = M.shape[0]
    entries = [M[i, j] for j in range(n) for i in range(j, n)]
    if all(x == int(x) for x in entries):
        field, render = "integer", lambda x: str(int(x))
    elif backend.exact:
        raise LinalgError(
            "non-integer rational matrix cannot be written losslessly to "
            "Matrix Market; use the JSON dense form"
        )
    else:
        field, render = "real", lambda x: repr(float(x))
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix array {field} symmetric\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"% {line}\n")
        fh.write(f"{n} {n}\n")
        for x in entries:
            fh.write(render(x) + "\n")


def _entry_token(x, backend: Backend):
    if backend.exact:
        return scalar_token(x)
    return float(x)


def vector_tokens(v, backend: Backend) -> list:
    """Serialize a vector's entries losslessly for JSON embedding."""
    return [_entry_token(x, backend) for x in v]


def load_problem(path, backend: Backend = F64) -> QuadraticProblem:
    """Load a problem from its JSON file (H inline or via Matrix Market).

    Schema: {"n": int, "H": {"dense": [[...]]} | {"matrix_market": path},
    "c": [...], "x0": [...], "label"?: str}; numbers may be numerics or
    "p/q" strings, and a matrix_market path is taken relative to the
    JSON file.
    """
    with open(path) as fh:
        data = json.load(fh, parse_float=Fraction if backend.exact else float)
    try:
        n = data["n"]
        H_spec = data["H"]
        c_raw, x0_raw = data["c"], data["x0"]
    except (KeyError, TypeError) as err:
        raise LinalgError(f"{path}: problem JSON must define n, H, c, x0") from err
    if not isinstance(n, int) or isinstance(n, bool):
        raise LinalgError(f"{path}: n must be an integer, not {n!r}")

    if isinstance(H_spec, dict) and "dense" in H_spec:
        H = sym_matrix(H_spec["dense"], backend)
    elif isinstance(H_spec, dict) and "matrix_market" in H_spec:
        mm_path = os.path.join(os.path.dirname(os.path.abspath(path)), H_spec["matrix_market"])
        H = read_matrix_market(mm_path, backend)
    else:
        raise LinalgError(f'{path}: H must be {{"dense": ...}} or {{"matrix_market": ...}}')
    if H.shape[0] != n:
        raise LinalgError(f"{path}: H is {H.shape[0]}x{H.shape[0]} but n = {n}")
    label = data.get("label") or os.path.splitext(os.path.basename(path))[0]
    return QuadraticProblem(
        H=H, c=vector(c_raw, backend), x0=vector(x0_raw, backend), label=str(label)
    )


def save_problem(P: QuadraticProblem, path) -> None:
    """Write a problem as JSON with a dense H, losslessly for both backends."""
    backend = P.backend
    data = {
        "n": P.n,
        "H": {"dense": [vector_tokens(row, backend) for row in P.H]},
        "c": vector_tokens(P.c, backend),
        "x0": vector_tokens(P.x0, backend),
        "label": P.label,
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def save_trace(trace: CGTrace, path) -> None:
    """Write a trace as JSON; all numerics lossless."""
    backend = BACKENDS[trace.scalar_backend]

    def scal(x):
        return None if x is None else _entry_token(x, backend)

    def vec(v):
        return None if v is None else vector_tokens(v, backend)

    data = {
        "problem_id": trace.problem_id,
        "backend": trace.scalar_backend,
        "direction_mode": trace.direction_mode,
        "scaling_mode": trace.scaling_mode,
        "termination_reason": trace.termination_reason,
        "r": trace.termination_index,
        "records": [
            {
                "k": rec.k,
                "x": vec(rec.x_k),
                "g": vec(rec.g_k),
                "grad_norm_sq": scal(rec.grad_norm_sq),
                "p": vec(rec.p_k),
                "theta": scal(rec.theta_k),
                "beta": scal(rec.beta_k),
                "c": scal(rec.c_k),
            }
            for rec in trace.records
        ],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def _holds_float(node) -> bool:
    if isinstance(node, list):
        return any(_holds_float(x) for x in node)
    if isinstance(node, dict):
        return any(_holds_float(x) for x in node.values())
    return isinstance(node, float)


def load_trace(path) -> CGTrace:
    """Reconstruct a trace from its JSON file.

    The text is parsed once, with JSON decimals as floats: that is what a
    float64 trace holds, and ``save_trace`` writes rational numbers as
    "p/q" strings.  Only a rational trace that holds JSON decimals (one
    written by hand) is parsed a second time, to read them exactly.
    """
    with open(path) as fh:
        data = json.load(fh)
    try:
        backend = BACKENDS[data["backend"]]
        raw_records = data["records"]
    except KeyError as err:
        raise LinalgError(f"{path}: trace JSON must define backend and records") from err
    if backend.exact and _holds_float(raw_records):
        with open(path) as fh:
            data = json.load(fh, parse_float=Fraction)
        raw_records = data["records"]

    def scal(x):
        return None if x is None else backend.scalar(x)

    def vec(v):
        return None if v is None else vector(v, backend)

    records = tuple(
        IterateRecord(
            k=int(rec["k"]),
            x_k=vec(rec["x"]),
            g_k=vec(rec["g"]),
            grad_norm_sq=scal(rec["grad_norm_sq"]),
            p_k=vec(rec.get("p")),
            theta_k=scal(rec.get("theta")),
            beta_k=scal(rec.get("beta")),
            c_k=scal(rec.get("c")),
        )
        for rec in raw_records
    )
    return CGTrace(
        problem_id=str(data.get("problem_id", "unlabeled")),
        scalar_backend=backend.name,
        records=records,
        termination_index=int(data["r"]),
        termination_reason=str(data["termination_reason"]),
        direction_mode=str(data.get("direction_mode", "recursive")),
        scaling_mode=str(data.get("scaling_mode", "cg_standard")),
    )
