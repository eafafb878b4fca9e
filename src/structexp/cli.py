"""Command-line front door: classify, exponentiate, verify, and display
tensor-basis representations of matrices given as files or inline text.

The CLI only parses and prints: the route order (`_routes`, which `verify`
walks) and the `expm --method` dispatch (`_dispatch`, which `expm_auto` also
calls) live in `expm_structured`.

Each subcommand is described once, in `_COMMANDS`, and the argparse parser
is built from that table.  A command line is read from the table without
argparse when its first argument names a subcommand and each later token is
an exact option string of that subcommand (a flag, or a one-value option
followed by a value that does not begin with '-' and that its type accepts)
or a token argparse reads as a positional (not beginning with '-', or '-'
then a digit or '.' with a space in it, as in "-1 0 0 -1"), with exactly one
positional, the matrix.  Every other command line (-h, an abbreviation such
as --all, --tol=1e-6, --, a value argparse rejects, an unknown option, a
missing or extra matrix) goes to the parser's own parse_args, so every
usage, help and error message is argparse's own.

Matrix input is either plaintext (whitespace-separated row-major scalars,
`#` comments, optional leading token `complex` followed by re,im interleaved
pairs) or a JSON object with fields n / kind / entries / label: n a JSON
integer and each entry a JSON number, so a bool, a string or (for n) a
float is a parse error.  A JSON integer past the float64 range, of any
length, reads as +-inf, as 1e400 does: a non-finite entry, or an n that is
not an integer.  The matrix argument is read as a file when a file of that
name exists, otherwise parsed as inline text.

Exit codes: 0 success, 1 a verify residual above threshold or not a number,
2 parse or shape error (non-finite entries included), a --tol that is not
positive and finite (NaN, inf) or a matrix outside the series oracle's
domain (a 1-norm over its scaling cap, about 5.5e11), 3 forced route
rejected (class mismatch / not in algebra), 4 overflow (exp(A) itself is
beyond the float64 range).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .classify import DEFAULT_TOL, classify
from .covering import NotInAlgebra
from .expm_structured import ForcedClassMismatch, _dispatch, _routes
from .hxh import BASIS_NAMES, from_matrix
from .oracle import expm_series, rel_error
from .smalllin import Record, _setattr, frobenius

VERIFY_TOL = 1e-10


class ParseError(ValueError):
    pass


@dataclass(init=False, repr=False, eq=False)
class MatrixDocument(Record):
    """One matrix as it crosses the CLI boundary.  entries is row-major;
    complex matrices store re,im interleaved, so the count is 2n^2."""
    n: int
    kind: str                     # "real" or "complex"
    entries: tuple[float, ...]
    label: Optional[str] = None

    # every CLI call builds one: four assignments, no argument binding
    def __init__(self, n, kind, entries, label=None):
        _setattr(self, "n", n)
        _setattr(self, "kind", kind)
        _setattr(self, "entries", entries)
        _setattr(self, "label", label)

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
    if not all(map(math.isfinite, entries)):
        raise ParseError("matrix entries must be finite")
    return MatrixDocument(n, kind, tuple(entries), label)


def _json_int(digits: str):
    """A JSON integer: an int, or +-inf past the float64 range (as 1e400
    reads), so that no integer is too long for int() to read."""
    return int(digits) if math.isfinite(float(digits)) else float(digits)


def _parse_json(text: str) -> MatrixDocument:
    # imported here and in format_document_json, so that a process that
    # reads and writes plain text never loads json
    import json

    try:
        doc = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("JSON matrix input must be an object")
    n, entries = doc.get("n"), doc.get("entries")
    # json.loads makes int, float, bool, str, list, dict or None, and a bool
    # is an int
    if (type(n) is not int or "kind" not in doc or type(entries) is not list
            or not all(type(v) in (int, float) for v in entries)):
        raise ParseError("JSON matrix object needs integer 'n', string "
                         "'kind' and numeric 'entries'")
    entries = [float(v) for v in entries]
    kind = doc["kind"]
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise ParseError("'label' must be a string")
    return _checked_document(n, kind, entries, label)


def _parse_plain(text: str) -> MatrixDocument:
    # without a comment one split() reads the tokens of the per-line loop:
    # every line break splitlines() knows is whitespace to split()
    if "#" in text:
        tokens = [t for line in text.splitlines() for t in line.split("#", 1)[0].split()]
    else:
        tokens = text.split()
    kind = "real"
    if tokens and tokens[0].lower() == "complex":
        kind = "complex"
        tokens = tokens[1:]
    try:
        entries = list(map(float, tokens))
    except ValueError:
        for t in tokens:
            try:
                float(t)
            except ValueError:
                raise ParseError(f"not a number: {t!r}") from None
    per = 2 if kind == "complex" else 1
    sizes = {per * 4: 2, per * 9: 3, per * 16: 4}
    if len(entries) not in sizes:
        raise ParseError(f"got {len(entries)} scalars, expected a full 2x2, "
                         f"3x3 or 4x4 {kind} matrix")
    return _checked_document(sizes[len(entries)], kind, entries, None)


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
    import json

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
    matches = classify(load_document(args.matrix).matrix(), args.tol)
    for inst in matches:
        print(describe_instance(inst))
    if not matches:
        print("no structured family matched")
    return 0


def _cmd_expm(args) -> int:
    doc = load_document(args.matrix)
    route, value = _dispatch(doc.matrix(), args.method, args.tol)
    if args.json:
        print(format_document_json(MatrixDocument.of_matrix(value, doc.label),
                                   route=route))
    else:
        print(f"route: {route}")
        print(format_matrix(value))
    return 0


def _cmd_verify(args) -> int:
    doc = load_document(args.matrix)
    a = doc.matrix()
    reference = expm_series(a)
    # rel_error's denominator, taken once; rel_error itself where a norm
    # overflows
    den = 1.0 + frobenius(reference)
    # plain loops, as a generator is a frame of its own on CPython <= 3.11
    rows, width, passed = [], len("oracle"), True  # the longest fixed name
    for name, value in _routes(a, DEFAULT_TOL, args.all_routes):
        if args.inject_fault:
            # on the diagonal alone: an infinite EPS times an off-diagonal 0
            # would be NaN
            value = value.copy()
            value.flat[::doc.n + 1] += args.inject_fault
        num = frobenius(value - reference)
        res = (num / den if num < math.inf and den < math.inf
               else rel_error(value, reference))
        rows.append((name, res))
        width = max(width, len(name))
        # a NaN residual is not <= the tolerance either
        passed = passed and res <= VERIFY_TOL
    # one write for the whole report, where print makes two a line
    report = [f"{'route'.ljust(width)}  residual\n"]
    for name, res in rows:
        report.append(f"{name.ljust(width)}  {res:.3e}\n")
    report.append(f"{'oracle'.ljust(width)}  reference\n")
    sys.stdout.write("".join(report))
    if not passed:
        print(f"residual above {VERIFY_TOL:g}", file=sys.stderr)
        return 1
    return 0


def _cmd_rep(args) -> int:
    u = from_matrix(load_document(args.matrix).matrix())
    for (i, j), v in np.ndenumerate(u.c):
        print(f"{BASIS_NAMES[i]}⊗{BASIS_NAMES[j]}: {_fmt_num(v)}")
    return 0


class _Option(NamedTuple):
    """A flag (type None: False, or True when given), or a one-value option."""
    dest: str
    type: Optional[Callable[[str], object]]
    default: object
    help: str
    metavar: Optional[str] = None


_TOL = _Option("tol", float, DEFAULT_TOL,
               "relative residual tolerance (default %(default)g)")

# Each subcommand as (help, handler, options by option string); every one
# takes one positional, the matrix, first.
_COMMANDS = {
    "classify": ("list every structured family containing the matrix",
                 _cmd_classify, {"--tol": _TOL}),
    "expm": ("matrix exponential with route selection", _cmd_expm, {
        "--method": _Option("method", str, "auto",
                            "auto, oracle, a class tag, covering:<algebra> or expm2"),
        "--tol": _TOL,
        "--json": _Option("json", None, False,
                          "print the result as a JSON matrix document")}),
    "verify": ("run every applicable route against the series oracle", _cmd_verify, {
        "--all-routes": _Option("all_routes", None, False,
                                "also try the 4x4 covering algebras"),
        "--inject-fault": _Option("inject_fault", float, 0.0,
                                  "add EPS to the diagonal of each non-oracle result "
                                  "(testing hook)",
                                  "EPS")}),
    "rep": ("print the sixteen tensor-basis coefficients", _cmd_rep, {}),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser of _COMMANDS, built on the first run, then reused."""
    parser = argparse.ArgumentParser(
        prog="structexp",
        description="closed-form structured matrix exponentials, "
                    "checked against a series oracle")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("matrix", help="matrix file, or the matrix itself as inline text")
        for option, o in options.items():
            kind = ({"action": "store_true"} if o.type is None
                    else {"type": o.type, "metavar": o.metavar})
            p.add_argument(option, dest=o.dest, default=o.default, help=o.help, **kind)
        p.set_defaults(func=handler)
    return parser


_NUMBER_START = frozenset("0123456789.")


def _read_tokens(command, tokens) -> Optional[argparse.Namespace]:
    """The namespace argparse makes of a subcommand's tokens, read from
    _COMMANDS by the module docstring's rule; None when argparse must read them."""
    _, handler, options = _COMMANDS[command]
    values, given = {}, []
    for o in options.values():
        values[o.dest] = o.default
    tokens = iter(tokens)
    for tok in tokens:
        o = options.get(tok)
        if o is not None and o.type is None:
            values[o.dest] = True
        elif o is not None:
            value = next(tokens, "-")
            if value[:1] == "-":
                return None
            try:
                values[o.dest] = o.type(value)
            except ValueError:
                return None  # argparse reports it
        elif tok[:1] != "-" or (tok[1:2] in _NUMBER_START and " " in tok):
            given.append(tok)
        else:
            return None
    if len(given) != 1:
        return None
    ns = argparse.Namespace()
    vars(ns).update(values, command=command, matrix=given[0], func=handler)
    return ns


def _parse_args(argv) -> argparse.Namespace:
    """The parser's parse_args(argv).  When argv[0] names a subcommand, a
    command line _read_tokens can read is read without argparse."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_tokens(argv[0], argv[1:]) if argv and argv[0] in _COMMANDS else None
    return _parser().parse_args(argv) if args is None else args


def run(argv=None) -> int:
    args = _parse_args(argv)
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
