"""Command-line front door: classify, exponentiate, verify, and display
tensor-basis representations of matrices given as files or inline text.

Matrix input is either plaintext (whitespace-separated row-major scalars,
`#` comments, optional leading token `complex` followed by re,im interleaved
pairs) or a JSON object with fields n / kind / entries / label.  The matrix
argument is read as a file when a file of that name exists, otherwise parsed
as inline text.

Exit codes: 0 success, 1 verify residual above threshold, 2 parse or shape
error (non-finite entries included) or a matrix outside the series oracle's
domain (a 1-norm over its scaling cap, about 5.5e11), 3 forced route rejected
(class mismatch / not in algebra), 4 overflow (the exponential is beyond the
float64 range).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .classify import DEFAULT_TOL, as_real_if_possible, classify
from .covering import COVERING_ALGEBRAS, NotInAlgebra, exp_via_covering
from .expm_structured import ForcedClassMismatch, exp_structured_class, expm_auto
from .hxh import BASIS_NAMES, from_matrix
from .oracle import expm_series, rel_error
from .smalllin import expm2

VERIFY_TOL = 1e-10


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class MatrixDocument:
    """One matrix as it crosses the CLI boundary.  entries is row-major;
    complex matrices store re,im interleaved, so the count is 2n^2."""
    n: int
    kind: str                     # "real" or "complex"
    entries: tuple[float, ...]
    label: Optional[str] = None

    def matrix(self) -> np.ndarray:
        vals = np.asarray(self.entries, dtype=float)
        if self.kind == "complex":
            vals = vals[0::2] + 1j * vals[1::2]
        return vals.reshape(self.n, self.n)

    @classmethod
    def of_matrix(cls, m, label: Optional[str] = None) -> "MatrixDocument":
        m = np.asarray(m)
        n = int(m.shape[0])
        if np.iscomplexobj(m):
            flat = np.empty(2 * n * n)
            flat[0::2] = m.real.ravel()
            flat[1::2] = m.imag.ravel()
            return cls(n, "complex", tuple(float(v) for v in flat), label)
        return cls(n, "real", tuple(float(v) for v in m.ravel()), label)


def _checked_document(n, kind, entries, label) -> MatrixDocument:
    if n not in (2, 3, 4):
        raise ParseError(f"matrix size must be 2, 3 or 4, got {n}")
    if kind not in ("real", "complex"):
        raise ParseError(f"kind must be 'real' or 'complex', got {kind!r}")
    per = 2 if kind == "complex" else 1
    if len(entries) != per * n * n:
        raise ParseError(f"a {kind} {n}x{n} matrix needs {per * n * n} "
                         f"scalars, got {len(entries)}")
    if not np.all(np.isfinite(entries)):
        raise ParseError("matrix entries must be finite")
    return MatrixDocument(n, kind, tuple(entries), label)


def _parse_json(text: str) -> MatrixDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("JSON matrix input must be an object")
    try:
        n = int(doc["n"])
        kind = doc["kind"]
        entries = [float(v) for v in doc["entries"]]
    except (KeyError, TypeError, ValueError):
        raise ParseError("JSON matrix object needs integer 'n', string "
                         "'kind' and numeric 'entries'") from None
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise ParseError("'label' must be a string")
    return _checked_document(n, kind, entries, label)


def _parse_plain(text: str) -> MatrixDocument:
    tokens: list[str] = []
    for line in text.splitlines():
        tokens += line.split("#", 1)[0].split()
    kind = "real"
    if tokens and tokens[0].lower() == "complex":
        kind = "complex"
        tokens = tokens[1:]
    try:
        entries = [float(t) for t in tokens]
    except ValueError:
        bad = next(t for t in tokens if not _is_number(t))
        raise ParseError(f"not a number: {bad!r}") from None
    per = 2 if kind == "complex" else 1
    sizes = {per * 4: 2, per * 9: 3, per * 16: 4}
    if len(entries) not in sizes:
        raise ParseError(f"got {len(entries)} scalars, expected a full 2x2, "
                         f"3x3 or 4x4 {kind} matrix")
    return _checked_document(sizes[len(entries)], kind, entries, None)


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def parse_document(text: str) -> MatrixDocument:
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty matrix input")
    if stripped.startswith("{"):
        return _parse_json(stripped)
    return _parse_plain(stripped)


def load_document(arg: str) -> MatrixDocument:
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            return parse_document(fh.read())
    return parse_document(arg)


def format_document_json(doc: MatrixDocument, **extra) -> str:
    payload: dict = {"n": doc.n, "kind": doc.kind, "entries": list(doc.entries)}
    if doc.label is not None:
        payload["label"] = doc.label
    payload.update(extra)
    return json.dumps(payload, indent=2)


def _fmt_num(v) -> str:
    if isinstance(v, (complex, np.complexfloating)):
        return f"{v.real:.6g}{v.imag:+.6g}j"
    return f"{float(v):.6g}"


def format_matrix(m: np.ndarray) -> str:
    cells = [[_fmt_num(v) for v in row] for row in m]
    width = max(len(c) for row in cells for c in row)
    return "\n".join("  ".join(c.rjust(width) for c in row) for row in cells)


def describe_instance(inst) -> str:
    parts = []
    for f in dataclasses.fields(inst):
        v = getattr(inst, f.name)
        if isinstance(v, tuple):
            parts.append(f"{f.name}=({', '.join(_fmt_num(x) for x in v)})")
        elif isinstance(v, (int, np.integer)):
            parts.append(f"{f.name}={v}")
        else:
            parts.append(f"{f.name}={_fmt_num(v)}")
    return f"{inst.tag}: " + ", ".join(parts)


def _cmd_classify(args) -> int:
    doc = load_document(args.matrix)
    if doc.n != 4:
        raise ParseError(f"classify expects a 4x4 matrix, got {doc.n}x{doc.n}")
    matches = classify(doc.matrix(), args.tol)
    if not matches:
        print("no structured family matched")
        return 0
    for inst in matches:
        print(describe_instance(inst))
    return 0


# the covering algebras tried on real 3x3 and 4x4 matrices, in route order
_COVERINGS = {3: ("so3", "p3r", "so21r"), 4: ("so4", "p4r", "so22r")}


def _covering_routes(a: np.ndarray, tol: float):
    """(route, value) for each covering algebra of a's size that holds the
    real matrix a, computed lazily in route order."""
    if np.iscomplexobj(a):
        return
    for name in _COVERINGS[a.shape[0]]:
        try:
            value = exp_via_covering(COVERING_ALGEBRAS[name], a, tol)
        except NotInAlgebra:
            continue
        yield f"covering:{name}", value


def _exp_small(a: np.ndarray, tol: float) -> tuple[np.ndarray, str]:
    # 2x2 always has a closed form; 3x3 goes through a covering algebra when
    # the matrix sits in one, else falls back to the series
    if a.shape[0] == 2:
        return expm2(a), "expm2"
    route, value = next(_covering_routes(a, tol), ("oracle", None))
    return (expm_series(a) if value is None else value), route


def _cmd_expm(args) -> int:
    doc = load_document(args.matrix)
    a = doc.matrix()
    method = args.method
    if method.startswith("covering:"):
        name = method.split(":", 1)[1]
        if name not in COVERING_ALGEBRAS:
            raise ParseError(f"unknown covering algebra {name!r}; choose from "
                             + ", ".join(sorted(COVERING_ALGEBRAS)))
        value, route = exp_via_covering(COVERING_ALGEBRAS[name], a, args.tol), method
    elif doc.n == 4:
        result = expm_auto(a, method=method, tol=args.tol)
        value, route = result.value, result.route
    elif method == "oracle":
        value, route = expm_series(a), "oracle"
    elif method == "auto":
        value, route = _exp_small(a, args.tol)
    else:
        raise ParseError(f"method {method!r} needs a 4x4 matrix")

    if args.json:
        print(format_document_json(MatrixDocument.of_matrix(value, doc.label),
                                   route=route))
    else:
        print(f"route: {route}")
        print(format_matrix(value))
    return 0


def _applicable_routes(a: np.ndarray, all_routes: bool,
                       tol: float) -> list[tuple[str, np.ndarray]]:
    n = a.shape[0]
    if n == 2:
        return [("expm2", expm2(a))]
    if n == 3:
        return list(_covering_routes(a, tol))
    routes = [(inst.tag, exp_structured_class(inst)) for inst in classify(a, tol)]
    if all_routes:
        routes += _covering_routes(as_real_if_possible(a), tol)
    return routes


def _cmd_verify(args) -> int:
    doc = load_document(args.matrix)
    a = doc.matrix()
    reference = expm_series(a)
    rows = []
    worst = 0.0
    for name, value in _applicable_routes(a, args.all_routes, DEFAULT_TOL):
        if args.inject_fault:
            value = value + args.inject_fault * np.eye(doc.n)
        res = rel_error(value, reference)
        worst = max(worst, res)
        rows.append((name, res))

    width = max(len(name) for name, _ in rows + [("route", 0.0), ("oracle", 0.0)])
    print(f"{'route'.ljust(width)}  residual")
    for name, res in rows:
        print(f"{name.ljust(width)}  {res:.3e}")
    print(f"{'oracle'.ljust(width)}  reference")
    if worst > VERIFY_TOL:
        print(f"residual above {VERIFY_TOL:g}", file=sys.stderr)
        return 1
    return 0


def _cmd_rep(args) -> int:
    doc = load_document(args.matrix)
    if doc.n != 4:
        raise ParseError(f"rep expects a 4x4 matrix, got {doc.n}x{doc.n}")
    u = from_matrix(doc.matrix())
    for i in range(4):
        for j in range(4):
            print(f"{BASIS_NAMES[i]}⊗{BASIS_NAMES[j]}: {_fmt_num(u.c[i, j])}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first run and reused after."""
    parser = argparse.ArgumentParser(
        prog="structexp",
        description="closed-form structured matrix exponentials, "
                    "checked against a series oracle")
    sub = parser.add_subparsers(dest="command", required=True)

    def matrix_arg(p):
        p.add_argument("matrix",
                       help="matrix file, or the matrix itself as inline text")

    p = sub.add_parser("classify",
                       help="list every structured family containing the matrix")
    matrix_arg(p)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="relative residual tolerance (default %(default)g)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("expm", help="matrix exponential with route selection")
    matrix_arg(p)
    p.add_argument("--method", default="auto",
                   help="auto, oracle, a class tag, or covering:<algebra>")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="relative residual tolerance (default %(default)g)")
    p.add_argument("--json", action="store_true",
                   help="print the result as a JSON matrix document")
    p.set_defaults(func=_cmd_expm)

    p = sub.add_parser("verify",
                       help="run every applicable route against the series oracle")
    matrix_arg(p)
    p.add_argument("--all-routes", action="store_true", dest="all_routes",
                   help="also try the 4x4 covering algebras")
    p.add_argument("--inject-fault", type=float, default=0.0, metavar="EPS",
                   dest="inject_fault",
                   help="perturb each non-oracle result by EPS (testing hook)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("rep", help="print the sixteen tensor-basis coefficients")
    matrix_arg(p)
    p.set_defaults(func=_cmd_rep)
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ForcedClassMismatch, NotInAlgebra) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: overflow: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
