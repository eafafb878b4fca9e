"""The public contract pinned with literal lists: dispatch order, instance
field names, and how non-finite and overflowing input is refused."""

import importlib
import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from structexp import (classify, expm_auto, expm_series, extract_special_normal,
                       extract_symmetric_rep)
from structexp.classify import COMPLEX_REGISTRY, EXTRACTORS, REAL_REGISTRY
from structexp.covering import COVERING_ALGEBRAS, exp_via_covering, psi_inverse
from structexp.cli import (MatrixDocument, ParseError, describe_instance,
                           format_document_json, parse_document, run)
from structexp.expm_structured import ForcedClassMismatch
from structexp.hxh import J4, R4, HxHElement, from_matrix
from structexp.smalllin import expm2, svd3, sym_eig3

from conftest import _refuse, _refuse_everywhere, covering_member, sample_family

REAL_DISPATCH_ORDER = [
    "SkewSymmetric", "SkewHamiltonian", "Perskewsymmetric",
    "Lie1", "Lie2", "Lie3", "Lie4", "Lie5", "Lie6", "Lie7", "Lie8",
    "Jordan1", "Jordan2", "Jordan3", "Jordan4", "Jordan5",
    "HamSymPersym", "SymToeplitzTridiag", "SymToeplitzS13Zero",
    "SpecialNormal", "BisymmetricRS", "SymmetricGeneral",
]
COMPLEX_DISPATCH_ORDER = ["ComplexSO4", "ComplexPerskew"]

LIE_FIELDS = ["k", "a", "b", "p", "q"]
JORDAN_FIELDS = ["k", "a", "b", "c", "vec"]
FIELDS = {
    "SkewSymmetric": ["p", "q"],
    "SkewHamiltonian": ["b", "p", "c", "d"],
    "Perskewsymmetric": ["p", "alpha", "q", "beta"],
    "Lie1": LIE_FIELDS, "Lie2": LIE_FIELDS, "Lie3": LIE_FIELDS,
    "Lie4": LIE_FIELDS, "Lie5": LIE_FIELDS, "Lie6": LIE_FIELDS,
    "Lie7": LIE_FIELDS, "Lie8": LIE_FIELDS,
    "Jordan1": JORDAN_FIELDS, "Jordan2": JORDAN_FIELDS,
    "Jordan3": JORDAN_FIELDS, "Jordan4": JORDAN_FIELDS,
    "Jordan5": JORDAN_FIELDS,
    "HamSymPersym": ["beta", "gamma", "delta"],
    "SymToeplitzTridiag": ["a", "b"],
    "SymToeplitzS13Zero": ["a", "b", "c"],
    "SpecialNormal": ["a", "s", "t_hat", "t", "s_hat"],
    "BisymmetricRS": ["a", "eps", "alpha", "beta", "gamma", "delta"],
    "SymmetricGeneral": ["a", "p", "q", "r"],
    "ComplexSO4": ["left", "right"],
    "ComplexPerskew": ["p", "alpha", "q", "beta"],
}


def test_dispatch_order():
    assert [tag for tag, _ in REAL_REGISTRY] == REAL_DISPATCH_ORDER
    assert [tag for tag, _ in COMPLEX_REGISTRY] == COMPLEX_DISPATCH_ORDER
    assert list(EXTRACTORS) == REAL_DISPATCH_ORDER + COMPLEX_DISPATCH_ORDER


@pytest.mark.parametrize("tag", list(FIELDS))
def test_instance_field_names(tag):
    a = sample_family(tag, np.random.default_rng(3))
    inst = next(i for i in classify(a) if i.tag == tag)
    assert [f.name for f in fields(inst)] == FIELDS[tag]
    text = describe_instance(inst)
    assert text.startswith(f"{tag}: ")
    assert [part.split("=")[0] for part in text[len(tag) + 2:].split(", ")
            if "=" in part] == FIELDS[tag]


def test_describe_instance_literal():
    assert describe_instance(classify(J4)[0]) == "SkewSymmetric: p=(0, 0, 0), q=(0, 1, 0)"


# ---------------------------------------------------------- non-finite input


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_matches_nothing(bad):
    rng = np.random.default_rng(11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for slot in range(16):
            a = sample_family("SpecialNormal", rng)
            a.flat[slot] = bad
            assert classify(a) == []
            with pytest.raises(OverflowError):
                expm_auto(a)
            for tag in REAL_DISPATCH_ORDER:
                with pytest.raises(ForcedClassMismatch):
                    expm_auto(a, method=tag)


@pytest.mark.parametrize("tag", REAL_DISPATCH_ORDER)
def test_forcing_a_real_table_family_on_complex_input_is_a_mismatch(tag):
    # the support slots of ComplexPerskew are those of Perskewsymmetric
    a = sample_family("ComplexPerskew", np.random.default_rng(12))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ForcedClassMismatch):
            expm_auto(a, method=tag)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


NON_FINITE_DOCS = [
    "nan 0 0 1",
    "1 0 0 inf",
    " ".join(["0"] * 15 + ["-inf"]),
    "complex 0 0 1 0 0 nan 0 0",
    '{"n": 2, "kind": "real", "entries": [NaN, 0, 0, 1]}',
    '{"n": 2, "kind": "complex", "entries": [0, 0, 1, 0, 0, Infinity, 0, 0]}',
]


@pytest.mark.parametrize("text", NON_FINITE_DOCS)
def test_non_finite_document_exits_2(text):
    with pytest.raises(ParseError, match="finite"):
        parse_document(text)
    for command in (["verify"], ["verify", "--all-routes"], ["expm"], ["rep"]):
        code, _, err = _cli(command + [text])
        assert code == 2, command
        assert "finite" in err


def test_bad_count_message_unchanged():
    with pytest.raises(ParseError, match="got 5 scalars"):
        parse_document("1 2 3 4 5")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_overflow_exits_4(n):
    text = " ".join(repr(float(v)) for v in (800.0 * np.eye(n)).ravel())
    for command in (["verify"], ["verify", "--all-routes"], ["expm"],
                    ["expm", "--method", "oracle"]):
        code, _, err = _cli(command + [text])
        assert code == 4, command
        assert "overflow" in err


def test_oracle_scaling_cap_exits_2():
    # a rotation generator of norm 1e13, and a 1-norm of 1e308 whose ratio
    # to the scaling threshold overflows: over the oracle's scaling cap
    rotation = " ".join(repr(float(v)) for v in (1e13 * J4).ravel())
    for text in (rotation, "5e307 5e307 5e307 5e307"):
        for command in (["verify"], ["expm", "--method", "oracle"]):
            code, _, err = _cli(command + [text])
            assert code == 2, (text, command)
            assert "cap" in err


def _text(a):
    if np.iscomplexobj(a):
        return "complex " + " ".join(f"{z.real!r} {z.imag!r}" for z in a.ravel().tolist())
    return " ".join(repr(v) for v in a.ravel().tolist())


def test_overflowing_norm_is_in_no_family():
    # past |A| of about 1.3e154, tol * max(1, |A|) was inf and every family
    # accepted: -1e160 S, S positive definite, came out as the identity
    m = np.random.default_rng(14).standard_normal((4, 4))
    a = -1e160 * (m @ m.T + np.eye(4))
    # a huge imaginary part was dropped as negligible against that inf
    z = J4 + 1e160j * R4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert classify(a) == []
        code, out, err = _cli(["expm", _text(a)])
        assert code == 2 and out == "" and "cap" in err
        with pytest.raises(ValueError, match="cap"):
            expm_auto(z)
        with pytest.raises(ForcedClassMismatch) as info:
            expm_auto(z, method="SkewSymmetric")
        assert info.value.residual == math.inf
        code, out, err = _cli(["expm", _text(z), "--method", "SkewSymmetric"])
        assert code == 3 and out == ""


# ------------------------------------------------------------ integer input


def _tags(matches):
    return [inst.tag for inst in matches]


def _forced(a, tag):
    """The bytes of the forced exponential, or the overflow it raises (a
    hyperbolic group of 3e9 J4 is past the float64 range)."""
    try:
        return expm_auto(a, method=tag).value.tobytes()
    except OverflowError:
        return OverflowError


def test_integer_input_equals_float_input_bitwise():
    # the int64 sum of squares of 3e9 J4 wraps past 2**63
    rng = np.random.default_rng(15)
    for a in (3_000_000_000 * J4.astype(np.int64),
              rng.integers(-5, 6, (4, 4)), np.eye(4, dtype=np.int32)):
        f = a.astype(float)
        assert classify(a) == classify(f)
        auto, auto_f = expm_auto(a), expm_auto(f)
        assert auto.route == auto_f.route
        assert np.array_equal(auto.value, auto_f.value)
        for tag in _tags(classify(f)):
            assert _forced(a, tag) == _forced(f, tag), tag
    for alg in COVERING_ALGEBRAS.values():
        k = rng.integers(-9, 10, (alg.dim, alg.dim))
        m = (alg.form @ (k - k.T)).astype(np.int64)
        # exp of the sl(2,R) factors of 3e9 m is past the float64 range
        for a in (m, 3_000_000_000 * m):
            for x, y in zip(psi_inverse(alg, a), psi_inverse(alg, a.astype(float))):
                assert x is y is None or np.array_equal(x, y), alg.name
        assert np.array_equal(exp_via_covering(alg, m),
                              exp_via_covering(alg, m.astype(float))), alg.name


def test_bool_input_takes_the_float_norm():
    # a bool sum of squares saturates at True: |b| is sqrt(8), not 1
    b = np.array([[0, 0, 1, 1], [0, 1, 0, 1], [0, 0, 0, 0], [1, 1, 0, 1]], dtype=bool)
    assert _tags(classify(b, 0.3)) == _tags(classify(b.astype(float), 0.3))
    assert _tags(classify(b, 0.3)) == ["SymmetricGeneral"]


# the one dtype rule: bool, integer, float and complex entries are numbers;
# every other kind raises TypeError with one message at every entry point
NOT_NUMERIC = "matrix entries must be bool, integer, float or complex numbers"


def _of_kind(n, kind):
    """An n x n matrix of dtype kind `kind`: eye(n) where it can hold it."""
    eye = np.eye(n)
    return {"object": eye.astype(object), "str": eye.astype(str),
            "bytes": eye.astype("S8"), "datetime64": np.zeros((n, n), "datetime64[s]"),
            "timedelta64": np.zeros((n, n), "timedelta64[s]"),
            "void": np.zeros((n, n), "V8"), "bool": eye.astype(bool),
            "int8": eye.astype(np.int8), "uint16": eye.astype(np.uint16),
            "float16": eye.astype(np.float16), "float32": eye.astype(np.float32),
            "complex64": eye.astype(np.complex64)}[kind]


def _entry_points(n):
    """Every entry point that takes an n x n matrix, by name."""
    calls = {"auto": expm_auto, "oracle": lambda a: expm_auto(a, method="oracle"),
             "expm_series": expm_series}
    algs = [alg for alg in COVERING_ALGEBRAS.values() if alg.dim == n]
    for alg in algs[:1]:
        calls[f"covering:{alg.name}"] = lambda a, alg=alg: expm_auto(a, method=f"covering:{alg.name}")
        calls["psi_inverse"] = lambda a, alg=alg: psi_inverse(alg, a)
        calls["exp_via_covering"] = lambda a, alg=alg: exp_via_covering(alg, a)
    if n == 2:
        calls.update(expm2=expm2, forced_expm2=lambda a: expm_auto(a, method="expm2"))
    if n == 3:
        calls.update(svd3=svd3, sym_eig3=sym_eig3)
    if n == 4:
        calls.update(classify=classify, SkewHamiltonian=lambda a: expm_auto(
            a, method="SkewHamiltonian"), extract_symmetric_rep=extract_symmetric_rep,
            extract_special_normal=extract_special_normal,
            HxHElement=lambda a: HxHElement(a).c, from_matrix=lambda a: from_matrix(a).c)
    return calls


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["object", "str", "bytes", "datetime64", "timedelta64",
                                  "void"])
def test_a_matrix_of_no_numeric_kind_raises_one_type_error(n, kind):
    a = _of_kind(n, kind)
    for name, call in _entry_points(n).items():
        with pytest.raises(TypeError) as info:
            call(a)
        assert str(info.value) == NOT_NUMERIC, (name, kind)


def _outcome(call, a):
    """What call(a) returns, its arrays as (dtype, bytes), or the type and
    message of what it raises."""
    try:
        got = call(a)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    got = getattr(got, "value", got)
    if isinstance(got, list):
        return got
    if hasattr(got, "__dataclass_fields__"):
        got = tuple(getattr(got, f.name) for f in fields(got))
    return [None if x is None else (np.asarray(x).dtype, np.asarray(x).tobytes())
            for x in (got if isinstance(got, tuple) else (got,))]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", ["bool", "int8", "uint16", "float16", "float32",
                                  "complex64"])
def test_a_matrix_of_each_numeric_kind_is_its_float64_or_complex128_copy(n, kind):
    # eye(n) of every numeric kind gives what its float64 (complex128) copy
    # gives at every entry point, a refusal included
    a = _of_kind(n, kind)
    f = a.astype(np.complex128 if a.dtype.kind == "c" else np.float64)
    for name, call in _entry_points(n).items():
        assert _outcome(call, a) == _outcome(call, f), (name, kind)


# ------------------------------------------------------------------ tolerance

BAD_TOLS = [np.nan, 0.0, -1.0, np.inf]


@pytest.mark.parametrize("tol", BAD_TOLS)
def test_bad_tol_is_refused_on_every_route(tol):
    a = sample_family("SkewSymmetric", np.random.default_rng(13))
    calls = [lambda: classify(a, tol), lambda: expm_auto(a, tol=tol),
             lambda: expm_auto(a, method="oracle", tol=tol),
             lambda: extract_special_normal(a, tol)]
    calls += [lambda tag=tag: expm_auto(a, method=tag, tol=tol)
              for tag in REAL_DISPATCH_ORDER]
    for call in calls:
        # not a ForcedClassMismatch, which is a ValueError too
        with pytest.raises(ValueError, match="tol must be positive"):
            call()


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
def test_bad_tol_exits_2(tol):
    j4 = " ".join(repr(float(v)) for v in J4.ravel())
    so3 = "0 -1 0  1 0 0  0 0 0"
    for command in (["classify", j4], ["expm", j4], ["expm", j4, "--method", "Lie3"],
                    ["expm", j4, "--method", "oracle"],
                    ["expm", so3], ["expm", so3, "--method", "covering:so3"]):
        code, out, err = _cli(command + ["--tol", tol])
        assert code == 2, command
        assert "tol must be positive" in err
        assert out == ""


# ------------------------------------------------------------------- tooling


def test_bench_tracer_finds_every_entry_point(monkeypatch):
    # bench/run.py --trace wraps these entry points by name; a refactor that
    # drops one fails here, not only in the benchmark smoke run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    importlib.import_module("structexp.cli")
    tracer = importlib.import_module("tracing").Tracer()
    try:
        assert tracer.install() == []
    finally:
        tracer.uninstall()


def test_routes_square_no_group_and_take_no_numpy_norm(monkeypatch):
    # mu comes from the member's coefficients and the Frobenius norms from
    # one vdot, so neither a group square nor np.linalg.norm is on a route
    hxh = importlib.import_module("structexp.hxh")
    rng = np.random.default_rng(21)
    tags = REAL_DISPATCH_ORDER + COMPLEX_DISPATCH_ORDER
    samples = {tag: sample_family(tag, rng) for tag in tags}
    _refuse_everywhere(monkeypatch, hxh.scalar_square)
    monkeypatch.setattr(np.linalg, "norm", _refuse)
    for tag, a in samples.items():
        assert expm_auto(a).route != "oracle", tag
        assert expm_auto(a, method=tag).route == tag


def test_routes_build_no_hxh_element(monkeypatch):
    # the routes pass coefficients as flat vectors and 4x4 tables:
    # HxHElement, from_matrix included, is only the public view of them
    rng = np.random.default_rng(24)
    tags = REAL_DISPATCH_ORDER + COMPLEX_DISPATCH_ORDER
    samples = {tag: sample_family(tag, rng) for tag in tags}
    dense = rng.standard_normal((4, 4))
    so4 = covering_member(COVERING_ALGEBRAS["so4"], rng)
    element = importlib.import_module("structexp.hxh").HxHElement
    monkeypatch.setattr(element, "__init__", _refuse)
    monkeypatch.setattr(element, "from_matrix", classmethod(_refuse))
    for tag, a in samples.items():
        assert tag in [inst.tag for inst in classify(a)]
        assert expm_auto(a).route in EXTRACTORS, tag
        assert expm_auto(a, method=tag).route == tag
    assert classify(dense) == [] and expm_auto(dense).route == "oracle"
    for route, a in {**samples, "oracle": dense, "covering:so4": so4}.items():
        text = format_document_json(MatrixDocument.of_matrix(a))
        with redirect_stdout(io.StringIO()) as out:
            assert run(["verify", text, "--all-routes"]) == 0, route
        assert f"\n{route} " in out.getvalue(), route
    # the stubs are live
    with pytest.raises(AssertionError, match="refused"):
        element.zero()
    with pytest.raises(AssertionError, match="refused"):
        element.from_matrix(J4)


def test_covering_routes_take_no_2x2_exponential(monkeypatch):
    # exp(A) is one precomputed bilinear map of the lift: neither expm2 nor
    # a per-basis coordinate solve is on a covering route
    covering = importlib.import_module("structexp.covering")
    routes_of = importlib.import_module("structexp.expm_structured")._routes
    smalllin = importlib.import_module("structexp.smalllin")
    rng = np.random.default_rng(23)
    samples = {name: covering_member(alg, rng) for name, alg in COVERING_ALGEBRAS.items()}
    want = {name: exp_via_covering(COVERING_ALGEBRAS[name], a) for name, a in samples.items()}
    for fn in (smalllin.expm2, covering._coords):
        _refuse_everywhere(monkeypatch, fn)
    for name, a in samples.items():
        alg = COVERING_ALGEBRAS[name]
        assert np.array_equal(exp_via_covering(alg, a), want[name]), name
        routes = dict(routes_of(a, 1e-9, coverings=True))
        assert np.array_equal(routes[f"covering:{name}"], want[name]), name


def test_psi_inverse_takes_no_lstsq(monkeypatch):
    rng = np.random.default_rng(22)
    samples = {name: covering_member(alg, rng) for name, alg in COVERING_ALGEBRAS.items()}
    monkeypatch.setattr(np.linalg, "lstsq", _refuse)
    for name, a in samples.items():
        g, h = psi_inverse(COVERING_ALGEBRAS[name], a)
        assert g.shape == (2, 2), name
