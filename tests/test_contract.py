"""The public contract pinned with literal lists: dispatch order, instance
field names, and how non-finite and overflowing input is refused."""

import io
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import numpy as np
import pytest

from structexp import classify, expm_auto
from structexp.classify import COMPLEX_REGISTRY, EXTRACTORS, REAL_REGISTRY
from structexp.cli import ParseError, describe_instance, parse_document, run
from structexp.expm_structured import ForcedClassMismatch
from structexp.hxh import J4

from conftest import sample_family

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
    # a rotation generator of norm 1e13: over the oracle's scaling cap
    text = " ".join(repr(float(v)) for v in (1e13 * J4).ravel())
    for command in (["verify"], ["expm", "--method", "oracle"]):
        code, _, err = _cli(command + [text])
        assert code == 2, command
        assert "cap" in err
