"""Tests for the command-line interface: parsing, formatting, and exit codes."""

import argparse
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from structexp import cli
from structexp.cli import (
    MatrixDocument,
    ParseError,
    _parse_args,
    _parser,
    format_document_json,
    format_matrix,
    load_document,
    parse_document,
    run,
)
from structexp.hxh import J4, R4
from structexp import (COVERING_ALGEBRAS, DEFAULT_TOL, exp_via_covering,
                       expm2, expm_auto, expm_series, rel_error)

from conftest import (COMPLEX_FAMILY_TAGS, REAL_FAMILY_TAGS, covering_member,
                      sample_family)


def _text(m) -> str:
    return "\n".join(" ".join(repr(float(v)) for v in row) for row in np.asarray(m))


J4_TEXT = _text(J4)
R4_TEXT = _text(R4)


# ---------------------------------------------------------------------- parsing


def test_parse_plain_real_with_comments():
    doc = parse_document("# a quarter turn\n0 1  # top row\n-1 0\n")
    assert doc.n == 2
    assert doc.kind == "real"
    assert doc.entries == (0.0, 1.0, -1.0, 0.0)
    assert not np.iscomplexobj(doc.matrix())


def test_parse_plain_complex_token():
    doc = parse_document("complex  0 0  1 0  -1 0  0 0")
    assert doc.n == 2
    assert doc.kind == "complex"
    m = doc.matrix()
    assert np.iscomplexobj(m)
    assert np.array_equal(m, np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex))


def test_parse_plain_rejects_bad_token():
    with pytest.raises(ParseError, match="banana"):
        parse_document("0 1 banana 0")


def test_parse_plain_rejects_bad_count():
    with pytest.raises(ParseError, match="scalars"):
        parse_document("1 2 3 4 5")


def _per_line_parse_plain(text: str) -> MatrixDocument:
    """_parse_plain as a loop over lines and then over tokens, one float()
    call each: the reading the one-split path must reproduce."""
    tokens: list[str] = []
    for line in text.splitlines():
        tokens += line.split("#", 1)[0].split()
    kind = "real"
    if tokens and tokens[0].lower() == "complex":
        kind = "complex"
        tokens = tokens[1:]
    entries = []
    for t in tokens:
        try:
            entries.append(float(t))
        except ValueError:
            raise ParseError(f"not a number: {t!r}") from None
    per = 2 if kind == "complex" else 1
    sizes = {per * 4: 2, per * 9: 3, per * 16: 4}
    if len(entries) not in sizes:
        raise ParseError(f"got {len(entries)} scalars, expected a full 2x2, "
                         f"3x3 or 4x4 {kind} matrix")
    return cli._checked_document(sizes[len(entries)], kind, entries, None)


def _plain_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


_NUMBER_TOKENS = st.sampled_from(["0", "1", "-1", "2.5", "-0.5", "+1e-3", "1_000", ".5", "-0",
                                  "1E5", "3.141592653589793", "1e-300", "-7e22", "0.1"])
# at most one of these replaces a number: a token float() rejects, one it
# reads as not finite, or a misplaced `complex`
_ODD_TOKENS = st.sampled_from(["x", "1,5", "banana", "0x10", "1e", "--1", "'1'",
                               "inf", "nan", "1e400", "-Infinity", "complex"])
# line breaks of every kind splitlines() knows, and comments (" #" takes
# the rest of its line)
_SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\t", "\n", "\r\n", "\r", "\x0b",
                               "\x0c", "\x1c", "\x85", "\u2028", " # note\n", "#\n", " #"])


@settings(max_examples=300, deadline=None)
@given(prefix=st.sampled_from(["", "complex ", "Complex\n", "# head\ncomplex\t", "COMPLEX#\n"]),
       count=st.sampled_from([3, 4, 5, 8, 9, 16, 18, 32]),
       numbers=st.lists(_NUMBER_TOKENS, min_size=32, max_size=32),
       odd=st.one_of(st.none(), st.tuples(st.integers(0, 31), _ODD_TOKENS)),
       seps=st.lists(_SEPARATORS, min_size=33, max_size=33))
def test_parse_plain_matches_the_per_line_loop(prefix, count, numbers, odd, seps):
    tokens = numbers[:count]
    if odd is not None:
        tokens[odd[0] % count] = odd[1]
    text = prefix + "".join(sep + tok for sep, tok in zip(seps, tokens)) + seps[count]
    assert (_plain_outcome(cli._parse_plain, text)
            == _plain_outcome(_per_line_parse_plain, text))


def test_parse_empty():
    with pytest.raises(ParseError):
        parse_document("")
    with pytest.raises(ParseError):
        parse_document("   \n  ")


def test_parse_json_round_trip():
    doc = MatrixDocument.of_matrix(np.eye(3), label="id3")
    again = parse_document(format_document_json(doc))
    assert again == doc


def test_parse_json_extra_keys_ignored():
    doc = MatrixDocument.of_matrix(np.eye(2))
    text = format_document_json(doc, route="oracle")
    assert parse_document(text).entries == doc.entries


def test_parse_json_rejects_malformed():
    with pytest.raises(ParseError):
        parse_document("{not json")
    with pytest.raises(ParseError):
        parse_document(json.dumps([1, 2, 3]))
    with pytest.raises(ParseError):
        parse_document(json.dumps({"n": 2, "kind": "real"}))
    with pytest.raises(ParseError):
        parse_document(json.dumps({"n": 5, "kind": "real", "entries": [0.0] * 25}))
    with pytest.raises(ParseError):
        parse_document(json.dumps({"n": 2, "kind": "octonion", "entries": [0.0] * 4}))
    with pytest.raises(ParseError):
        parse_document(json.dumps({"n": 2, "kind": "real", "entries": [0.0] * 4,
                                   "label": 7}))
    # n must be a JSON integer, and each entry a JSON number
    for n in (2.7, 2.0, "2", True, None):
        with pytest.raises(ParseError, match="integer 'n'"):
            parse_document(json.dumps({"n": n, "kind": "real", "entries": [0, 1, -1, 0]}))
    for bad in (True, "1", None, [1]):
        with pytest.raises(ParseError, match="numeric 'entries'"):
            parse_document(json.dumps({"n": 2, "kind": "real", "entries": [0, bad, -1, 0]}))
    with pytest.raises(ParseError, match="numeric 'entries'"):
        parse_document(json.dumps({"n": 2, "kind": "real", "entries": "0110"}))
    # an integer past the float64 range is a non-finite entry, as 1e400 is
    for big in (10 ** 400, -10 ** 400):
        with pytest.raises(ParseError, match="^matrix entries must be finite$"):
            parse_document(json.dumps({"n": 2, "kind": "real", "entries": [big, 0, 0, 0]}))
    with pytest.raises(ParseError, match="^matrix size must be 2, 3 or 4, got 5$"):
        parse_document(json.dumps({"n": 5, "kind": "real", "entries": [10 ** 400]}))
    # one too long for int() (over 4,300 digits) too, as an entry and as n
    big = "1" + "0" * 4300
    for sign in ("", "-"):
        with pytest.raises(ParseError, match="^matrix entries must be finite$"):
            parse_document(f'{{"n": 2, "kind": "real", "entries": [{sign}{big}, 0, 0, 0]}}')
    with pytest.raises(ParseError, match="integer 'n'"):
        parse_document(f'{{"n": {big}, "kind": "real", "entries": [0, 1, -1, 0]}}')


def test_parse_json_reads_integer_entries_as_floats():
    doc = parse_document('{"n": 2, "kind": "real", "entries": [0, 1, -1.5, 0]}')
    assert doc.entries == (0.0, 1.0, -1.5, 0.0)
    assert all(type(v) is float for v in doc.entries)


def test_matrix_document_complex_round_trip():
    rng = np.random.default_rng(91)
    m = rng.uniform(-2, 2, (4, 4)) + 1j * rng.uniform(-2, 2, (4, 4))
    doc = MatrixDocument.of_matrix(m)
    assert doc.kind == "complex"
    assert np.array_equal(doc.matrix(), m)


def test_load_document_file_then_inline(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("0 1\n-1 0\n")
    assert load_document(str(p)).entries == (0.0, 1.0, -1.0, 0.0)
    assert load_document("0 1 -1 0").entries == (0.0, 1.0, -1.0, 0.0)


def test_format_matrix_alignment():
    out = format_matrix(np.array([[1.0, -2.5], [0.125, 100.0]]))
    lines = out.splitlines()
    assert len(lines) == 2
    assert len(lines[0]) == len(lines[1])
    assert "-2.5" in lines[0]


# ------------------------------------------------------------------ arguments


def _parse_outcome(parse, argv, capsys):
    """(namespace fields or None, SystemExit code or None, stdout, stderr)."""
    try:
        fields, code = vars(parse(argv)), None
    except SystemExit as exc:
        fields, code = None, exc.code
    out, err = capsys.readouterr()
    return fields, code, out, err


@pytest.mark.parametrize("argv", [
    ["classify", "1 2 3 4"],
    ["classify", "1 2 3 4", "--tol", "1e-6"],
    ["expm", "1 2 3 4", "--method", "oracle", "--json"],
    ["verify", "1 2 3 4", "--all-routes", "--inject-fault", "1e-3"],
    ["rep", J4_TEXT],
    ["verify", "--all-routes", "1 2 3 4"],              # an option before the matrix
    ["expm", "--method=oracle", "-1 2 3 4"],
    ["verify", "--", "-1"],
    ["verify"],                                         # no matrix
    ["expm", "--json"],
    ["verify", "1 2 3 4", "--bogus"],                   # reported at the top level
    ["rep", "1 2 3 4", "5 6 7 8"],
    ["classify", "1 2 3 4", "--tol", "abc"],
    ["verify", "1 2 3 4", "--inject"],
    ["frobnicate", "1 2 3 4"],                          # no such command
    [],
    ["-h"],
    ["--help", "verify"],
    ["verify", "-h"],
    ["expm", "1 2 3 4", "--help"],
    ["verify", "-1 0 0 -1", "--all-routes"],            # a negative-leading matrix
    ["classify", "-.5 1 2 3"],
    ["verify", "-1"],                                   # no space: argparse reads these
    ["verify", "- 1"],
    ["verify", "-1\n0\n0\n1"],
    ["verify", "1 0 0 -1", "--all"],                    # an abbreviation
    ["classify", J4_TEXT, "--tol=1e-6"],
    ["classify", "1 2 3 4", "--tol", "-1e-6"],          # a value that begins with -
    ["verify", "1 2 3 4", "--all-routes", "--all-routes"],
    ["classify", "1 2 3 4", "--tol", "1e-3", "--tol", "1e-6"],
    ["verify", "1 2 3 4", "5 6 7 8"],                   # two matrices
    ["verify", ""],
], ids=lambda argv: " ".join(argv) or "no arguments")
def test_one_pass_parse_matches_the_full_parser(argv, capsys):
    full = _parse_outcome(_parser().parse_args, argv, capsys)
    assert _parse_outcome(_parse_args, argv, capsys) == full
    assert _parse_outcome(_parse_args, tuple(argv), capsys) == full


def _nan_safe(outcome):
    """A _parse_outcome with each NaN field read as "nan", so it equals itself."""
    fields, *rest = outcome
    if fields is not None:
        fields = {k: "nan" if isinstance(v, float) and math.isnan(v) else v
                  for k, v in fields.items()}
    return fields, *rest


_OPTIONS = ["--tol", "--method", "--inject-fault", "--json", "--all-routes", "--all",
            "--tol=1e-6", "--js", "-h", "--help", "--", "--bogus", "-x", "-"]
_VALUES = ["", "1e-6", "-1e-6", "nan", "abc", "oracle", "1 2 3 4", "-1 0 0 -1",
           "-.5 1 2 3", "-1", "- 1", "-1\n0\n0\n1", "-h 1", "-1 2=3", J4_TEXT]
# an option followed by a value, or a value alone
_CHUNKS = st.one_of(st.tuples(st.sampled_from(_OPTIONS), st.sampled_from(_VALUES)),
                    st.tuples(st.sampled_from(_VALUES)))


# capsys is read, and so emptied, after each parse
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from([None, "classify", "expm", "verify", "rep"]),
       chunks=st.lists(_CHUNKS, max_size=3))
def test_one_pass_parse_matches_the_full_parser_on_any_tokens(command, chunks, capsys):
    rest = [token for chunk in chunks for token in chunk]
    argv = rest if command is None else [command, *rest]
    assert (_nan_safe(_parse_outcome(_parse_args, argv, capsys))
            == _nan_safe(_parse_outcome(_parser().parse_args, argv, capsys)))


def test_a_well_formed_command_line_is_read_without_argparse(monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("argparse parsed the command line")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", unused)
    # every subcommand, and every option of each
    for argv, fields in [
        (["classify", J4_TEXT, "--tol", "1e-6"], {"tol": 1e-6, "func": cli._cmd_classify}),
        (["expm", J4_TEXT, "--method", "oracle", "--tol", "1e-6", "--json"],
         {"method": "oracle", "tol": 1e-6, "json": True, "func": cli._cmd_expm}),
        (["verify", J4_TEXT, "--inject-fault", "1e-3"],
         {"all_routes": False, "inject_fault": 1e-3, "func": cli._cmd_verify}),
        (["verify", "-0.5 0 0 1", "--all-routes"],
         {"all_routes": True, "inject_fault": 0.0, "func": cli._cmd_verify}),
        (["rep", J4_TEXT], {"func": cli._cmd_rep}),
    ]:
        assert vars(_parse_args(argv)) == {"command": argv[0], "matrix": argv[1], **fields}


@pytest.mark.parametrize("argv", [["verify", "1 2 3 4"], ["verify", "1 2 3 4", "--bogus"],
                                  ["-h"]])
def test_one_pass_parse_reads_sys_argv_by_default(argv, capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["structexp", *argv])
    assert (_parse_outcome(_parse_args, None, capsys)
            == _parse_outcome(_parser().parse_args, None, capsys))


def test_unknown_option_after_a_command_prints_the_top_level_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["verify", "1 2 3 4", "--bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: structexp [-h]")
    assert err.endswith("error: unrecognized arguments: --bogus\n")


# ------------------------------------------------------------------ subcommands


def test_rep_prints_all_sixteen(capsys):
    assert run(["rep", R4_TEXT]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 16
    assert lines[0] == "1⊗1: 0"
    assert "j⊗i: 1" in lines


def test_rep_needs_4x4(capsys):
    assert run(["rep", "0 1 -1 0"]) == 2
    assert "4x4" in capsys.readouterr().err


def test_json_entry_count_that_does_not_fit_n_exits_2(capsys):
    text = json.dumps({"n": 2, "kind": "real", "entries": [1, 2, 3]})
    assert run(["expm", text]) == 2
    assert "needs 4 scalars, got 3" in capsys.readouterr().err


def test_classify_lists_matches(capsys):
    assert run(["classify", J4_TEXT]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("SkewSymmetric:")


def test_classify_dense_no_match(capsys):
    rng = np.random.default_rng(92)
    assert run(["classify", _text(rng.uniform(-1, 1, (4, 4)))]) == 0
    assert "no structured family matched" in capsys.readouterr().out


def test_classify_rejects_small(capsys):
    assert run(["classify", "0 1 -1 0"]) == 2


def test_expm_zero_routes_to_skew_symmetric(capsys):
    assert run(["expm", _text(np.zeros((4, 4)))]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "route: SkewSymmetric"


def test_expm_json_output_parses_back(capsys):
    assert run(["expm", J4_TEXT, "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["route"] == "SkewSymmetric"
    value = parse_document(out).matrix()
    want = math.cos(1.0) * np.eye(4) + math.sin(1.0) * J4
    assert np.linalg.norm(value - want) < 1e-13


def test_expm_2x2_uses_closed_form(capsys):
    assert run(["expm", "0 1 -1 0"]) == 0
    out = capsys.readouterr().out
    assert "route: expm2" in out
    assert f"{math.cos(1.0):.6g}" in out


def test_expm_3x3_picks_a_covering(capsys):
    assert run(["expm", "0 -1 0  1 0 0  0 0 0"]) == 0
    assert "route: covering:so3" in capsys.readouterr().out


def test_expm_3x3_dense_falls_back_to_oracle(capsys):
    rng = np.random.default_rng(93)
    assert run(["expm", _text(rng.uniform(-1, 1, (3, 3)))]) == 0
    assert "route: oracle" in capsys.readouterr().out


def test_expm_forced_covering(capsys):
    assert run(["expm", J4_TEXT, "--method", "covering:so4"]) == 0
    assert "route: covering:so4" in capsys.readouterr().out


def test_expm_forced_covering_rejects_non_member(capsys):
    i22 = _text(np.diag([1.0, 1.0, -1.0, -1.0]))
    assert run(["expm", i22, "--method", "covering:so4"]) == 3
    assert "so4" in capsys.readouterr().err


def test_expm_forced_class_mismatch(capsys):
    assert run(["expm", J4_TEXT, "--method", "SymToeplitzTridiag"]) == 3
    assert "SymToeplitzTridiag" in capsys.readouterr().err


def test_expm_unknown_method(capsys):
    assert run(["expm", J4_TEXT, "--method", "Bogus"]) == 2
    assert run(["expm", J4_TEXT, "--method", "covering:nope"]) == 2


def test_expm_class_method_needs_4x4(capsys):
    assert run(["expm", "0 1 -1 0", "--method", "SkewSymmetric"]) == 2


def test_verify_skew_symmetric(capsys):
    assert run(["verify", J4_TEXT]) == 0
    out = capsys.readouterr().out
    assert "SkewSymmetric" in out
    assert "oracle" in out
    assert "reference" in out


def test_verify_all_routes_adds_coverings(capsys):
    assert run(["verify", J4_TEXT, "--all-routes"]) == 0
    assert "covering:so4" in capsys.readouterr().out


def test_verify_inject_fault_fails(capsys):
    assert run(["verify", J4_TEXT, "--inject-fault", "1e-6"]) == 1
    captured = capsys.readouterr()
    assert "residual above" in captured.err


@pytest.mark.parametrize("text", [J4_TEXT, "0 1 -1 0"])
def test_verify_infinite_fault_gives_an_infinite_residual(text, capsys):
    # the fault goes on the diagonal alone, so no inf * 0 makes a NaN (or a
    # RuntimeWarning, an error under this suite's filter)
    assert run(["verify", text, "--all-routes", "--inject-fault", "inf"]) == 1
    captured = capsys.readouterr()
    rows = [line.split() for line in captured.out.splitlines()[1:-1]]
    assert rows and all(res == "inf" for _, res in rows)
    assert captured.err == "residual above 1e-10\n"


def test_verify_finite_fault_is_added_to_the_diagonal(capsys):
    assert run(["verify", J4_TEXT, "--all-routes", "--inject-fault", "1e-3"]) == 1
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:-1]]
    reference = expm_series(J4)
    assert [name for name, _ in rows][::len(rows) - 1] == ["SkewSymmetric", "covering:so4"]
    for name, res in rows:
        value = expm_auto(J4, method=name).value + 1e-3 * np.eye(4)
        assert res == f"{rel_error(value, reference):.3e}", name


@pytest.mark.parametrize("text", [J4_TEXT, "0 1 -1 0"])
def test_verify_nan_residual_fails(text, capsys):
    # nan compares false with the tolerance, so it must fail the check
    assert run(["verify", text, "--inject-fault", "nan"]) == 1
    captured = capsys.readouterr()
    assert "nan" in captured.out
    assert "residual above" in captured.err


def test_verify_dense_has_only_the_reference(capsys):
    rng = np.random.default_rng(94)
    assert run(["verify", _text(rng.uniform(-1, 1, (4, 4)))]) == 0
    out = capsys.readouterr().out
    assert "reference" in out


def test_verify_2x2_and_3x3(capsys):
    assert run(["verify", "0 1 -1 0"]) == 0
    assert "expm2" in capsys.readouterr().out
    assert run(["verify", "0 -1 0  1 0 0  0 0 0", "--all-routes"]) == 0
    assert "covering:so3" in capsys.readouterr().out


def test_verify_complex_family(capsys):
    rng = np.random.default_rng(95)
    doc = MatrixDocument.of_matrix(sample_family("ComplexSO4", rng))
    assert run(["verify", format_document_json(doc), "--all-routes"]) == 0
    assert "ComplexSO4" in capsys.readouterr().out


def test_bad_file_contents(tmp_path, capsys):
    p = tmp_path / "short.txt"
    p.write_text("1 2 3\n")
    assert run(["verify", str(p)]) == 2
    p2 = tmp_path / "bad.json"
    p2.write_text("{\"n\": 2}")
    assert run(["classify", str(p2)]) == 2


def _one_sequence_inputs():
    rng = np.random.default_rng(96)
    yield rng.standard_normal((2, 2))
    for alg in COVERING_ALGEBRAS.values():
        if alg.dim == 3:
            yield covering_member(alg, rng)
    yield rng.standard_normal((3, 3))
    for tag in REAL_FAMILY_TAGS + COMPLEX_FAMILY_TAGS:
        a = sample_family(tag, rng)
        yield a
        yield 30.0 * a
    yield rng.standard_normal((4, 4))
    yield rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    yield J4.astype(complex)


def _library_route(route, a):
    """exp(a) through the named route, called on the library directly."""
    if route == "expm2":
        return expm2(a)
    if route == "oracle":
        return expm_series(a)
    if route.startswith("covering:"):
        return exp_via_covering(COVERING_ALGEBRAS[route.split(":")[1]], a, DEFAULT_TOL)
    return expm_auto(a, method=route, tol=DEFAULT_TOL).value


@pytest.mark.parametrize("a", list(_one_sequence_inputs()),
                         ids=lambda a: f"{a.shape[0]}x{a.shape[0]}")
def test_expm_takes_the_first_route_verify_lists(a, capsys):
    text = format_document_json(MatrixDocument.of_matrix(a))
    assert run(["verify", text]) == 0
    rows = capsys.readouterr().out.splitlines()[1:-1]
    first = rows[0].split()[0] if rows else "oracle"
    assert run(["expm", text, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["route"] == first
    value = MatrixDocument(doc["n"], doc["kind"], tuple(doc["entries"])).matrix()
    assert np.array_equal(value, _library_route(first, a)), first


# ------------------------------------------------------- 2x2 overflow, forced routes


@pytest.mark.parametrize("text, code", [
    ("800 0 0 0", 4),                # exp(800) is beyond the float64 range
    ("0 1e200 1e200 0", 2),          # |A|_F overflows: no route, the oracle's cap
    ("0 1e200 -1e200 0", 2),
])
def test_expm_2x2_never_prints_a_non_finite_number(text, code, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["expm", text]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("overflow" if code == 4 else "cap") in captured.err


@pytest.mark.parametrize("text", ["500 0 0 -1100", "-300 800 800 -300"])
def test_expm_2x2_returns_a_finite_exponential_past_cosh_overflow(text, capsys):
    # cosh(800) is beyond the float64 range, exp(A) (1.4e217, 7.0e216) is not
    values = {}
    for method in ("auto", "oracle"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["expm", text, "--json", "--method", method]) == 0
        doc = json.loads(capsys.readouterr().out)
        values[doc["route"]] = MatrixDocument(doc["n"], doc["kind"],
                                              tuple(doc["entries"])).matrix()
    assert rel_error(values["expm2"], values["oracle"]) <= 1e-12
    # verify's norms of exp(A) overflow, so its residual is rel_error's own
    assert run(["verify", text]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row == ["expm2", f"{rel_error(values['expm2'], values['oracle']):.3e}"]


@pytest.mark.parametrize("text, routes", [
    ("complex 0 0 -1 0 0 0  1 0 0 0 0 0  0 0 0 0 0 0", ["covering:so3", "covering:so21r"]),
    ("complex 0 0 1 0  -1 0 0 0", ["expm2"]),
])
def test_complex_typed_input_takes_the_real_routes(text, routes, capsys):
    # a zero imaginary part is dropped at every size, as for a 4x4
    assert run(["verify", text]) == 0
    rows = capsys.readouterr().out.splitlines()[1:-1]
    assert [row.split()[0] for row in rows] == routes
    assert run(["expm", text, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["route"], doc["kind"]) == (routes[0], "real")


def _forced_inputs():
    rng = np.random.default_rng(97)
    for tag in REAL_FAMILY_TAGS + COMPLEX_FAMILY_TAGS:
        yield tag, sample_family(tag, rng)
    for alg in COVERING_ALGEBRAS.values():
        yield f"covering:{alg.name}", covering_member(alg, rng)


@pytest.mark.parametrize("route, a", list(_forced_inputs()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_expm_forced_route_prints_that_route(route, a, capsys):
    text = format_document_json(MatrixDocument.of_matrix(a))
    assert run(["expm", text, "--json", "--method", route]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["route"] == route
    value = MatrixDocument(doc["n"], doc["kind"], tuple(doc["entries"])).matrix()
    assert np.array_equal(value, _library_route(route, a)), route
