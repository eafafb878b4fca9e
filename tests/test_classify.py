"""Tests for structured family recognition and coefficient extraction."""

import warnings

import numpy as np
import pytest

from structexp import classify, extract_special_normal, extract_symmetric_rep
from structexp.classify import (
    COMPLEX_REGISTRY,
    DEFAULT_TOL,
    EXTRACTORS,
    REAL_REGISTRY,
    SkewHamiltonian,
    SkewSymmetric,
    SpecialNormal,
    SymmetricGeneral,
    as_real_if_possible,
)
from structexp.hxh import J4, R4, basis_matrix, from_matrix

from conftest import COMPLEX_FAMILY_TAGS, REAL_FAMILY_TAGS, sample_family

_PRIORITY = [tag for tag, _ in REAL_REGISTRY]


def test_j4_is_skew_symmetric():
    found = classify(J4)
    assert isinstance(found[0], SkewSymmetric)
    assert np.allclose(found[0].p, 0.0)
    assert np.allclose(found[0].q, (0.0, 1.0, 0.0))


def test_identity_routes_to_skew_hamiltonian():
    found = classify(np.eye(4))
    tags = [inst.tag for inst in found]
    assert tags[0] == "SkewHamiltonian"
    assert "SymToeplitzTridiag" in tags
    assert "SymmetricGeneral" in tags


def test_tridiagonal_toeplitz_literal():
    a, b = 0.4, -1.1
    m = np.array([
        [a, b, 0.0, 0.0],
        [b, a, b, 0.0],
        [0.0, b, a, b],
        [0.0, 0.0, b, a],
    ])
    found = classify(m)
    tags = [inst.tag for inst in found]
    assert tags[0] == "SymToeplitzTridiag"
    inst = found[0]
    assert inst.a == pytest.approx(a)
    assert inst.b == pytest.approx(b)
    assert "SymmetricGeneral" in tags
    assert "SymToeplitzS13Zero" not in tags


def test_dense_random_matches_nothing():
    rng = np.random.default_rng(51)
    for _ in range(20):
        assert classify(rng.uniform(-2.0, 2.0, (4, 4))) == []


def test_samplers_are_recognized_and_reconstruct():
    rng = np.random.default_rng(52)
    for tag in REAL_FAMILY_TAGS + COMPLEX_FAMILY_TAGS:
        for _ in range(40):
            a = sample_family(tag, rng)
            found = classify(a)
            tags = [inst.tag for inst in found]
            assert tag in tags, f"{tag} not recognized"
            inst = found[tags.index(tag)]
            err = np.linalg.norm(inst.reconstruct() - a)
            assert err <= 1e-12 * (1.0 + np.linalg.norm(a)), tag
            # matches come back in dispatch-priority order
            if tag in _PRIORITY:
                idx = [_PRIORITY.index(t) for t in tags]
                assert idx == sorted(idx), tag


def test_noise_removes_structure():
    rng = np.random.default_rng(53)
    for tag in REAL_FAMILY_TAGS:
        a = sample_family(tag, rng)
        e = rng.standard_normal((4, 4))
        e *= 20.0 * DEFAULT_TOL * max(1.0, np.linalg.norm(a)) / np.linalg.norm(e)
        tags = [inst.tag for inst in classify(a + e)]
        assert tag not in tags, tag
    for tag in COMPLEX_FAMILY_TAGS:
        a = sample_family(tag, rng)
        e = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        e *= 20.0 * DEFAULT_TOL * np.linalg.norm(a) / np.linalg.norm(e)
        tags = [inst.tag for inst in classify(a + e)]
        assert tag not in tags, tag


def _classify_by_loop(a, tol=DEFAULT_TOL):
    """classify as one extractor call per registry entry: the reference the
    stacked table residuals must agree with."""
    a = as_real_if_possible(np.asarray(a))
    u = from_matrix(a)
    tol_abs = tol * max(1.0, float(np.linalg.norm(a)))
    registry = COMPLEX_REGISTRY if np.iscomplexobj(a) else REAL_REGISTRY
    found = [EXTRACTORS[tag](a, u, tol, tol_abs)[0] for tag, _ in registry]
    return [inst for inst in found if inst is not None]


def _residual_per_unit(a, e, tag):
    """The residual of family `tag` at a + s e, divided by s, for a step s
    of one tolerance: the residual is linear in s for a table family and
    nearly so for the rank-one fits."""
    step = DEFAULT_TOL * max(1.0, float(np.linalg.norm(a)))
    m = as_real_if_possible(a + step * e)
    tol_abs = DEFAULT_TOL * max(1.0, float(np.linalg.norm(m)))
    return EXTRACTORS[tag](m, from_matrix(m), DEFAULT_TOL, tol_abs)[1] / step


@pytest.mark.parametrize("tag", REAL_FAMILY_TAGS + COMPLEX_FAMILY_TAGS)
def test_stacked_residuals_agree_with_extractor_loop(tag):
    rng = np.random.default_rng(56)
    for _ in range(10):
        a = sample_family(tag, rng)
        assert classify(a) == _classify_by_loop(a)
        e = rng.standard_normal((4, 4))
        if np.iscomplexobj(a):
            e = e + 1j * rng.standard_normal((4, 4))
        unit = _residual_per_unit(a, e, tag)
        tol_abs = DEFAULT_TOL * max(1.0, float(np.linalg.norm(a)))
        # just inside and just outside the family's tolerance
        for factor in (0.9, 1.1):
            m = a + (factor * tol_abs / unit) * e
            found = classify(m)
            assert found == _classify_by_loop(m)
            assert (tag in [inst.tag for inst in found]) == (factor < 1.0), factor


def test_stacked_residuals_agree_with_extractor_loop_on_dense():
    rng = np.random.default_rng(57)
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        assert classify(a) == _classify_by_loop(a) == []
        a = a + 1j * rng.standard_normal((4, 4))
        assert classify(a) == _classify_by_loop(a) == []


def test_ham_sym_persym_is_also_lie8_and_symmetric():
    rng = np.random.default_rng(54)
    a = sample_family("HamSymPersym", rng)
    tags = [inst.tag for inst in classify(a)]
    assert tags[0] == "Lie8"
    assert "HamSymPersym" in tags
    assert "SymmetricGeneral" in tags


def test_extract_symmetric_rep():
    a, p, q, r = extract_symmetric_rep(np.eye(4))
    assert a == 1.0
    assert np.allclose(p, 0.0) and np.allclose(q, 0.0) and np.allclose(r, 0.0)

    a, p, q, r = extract_symmetric_rep(R4)
    assert a == pytest.approx(0.0)
    assert np.allclose(p, (0.0, 1.0, 0.0))
    assert np.allclose(q, 0.0) and np.allclose(r, 0.0)

    with pytest.raises(ValueError):
        extract_symmetric_rep(J4)


def test_extract_symmetric_rep_round_trip():
    rng = np.random.default_rng(55)
    for _ in range(50):
        m = rng.uniform(-2.0, 2.0, (4, 4))
        s = m + m.T
        a, p, q, r = extract_symmetric_rep(s)
        back = SymmetricGeneral(a, tuple(p), tuple(q), tuple(r)).reconstruct()
        assert np.linalg.norm(back - s) < 1e-13 * (1.0 + np.linalg.norm(s))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_extract_symmetric_rep_rejects_non_finite(bad):
    # NaN compares false with every bound, so a symmetry check alone passes it
    a = np.eye(4)
    a[1, 2] = a[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        extract_symmetric_rep(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_extract_special_normal_of_non_finite_is_none_without_warnings(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for slot in range(16):
            a = np.eye(4)
            a.flat[slot] = bad
            assert extract_special_normal(a) is None


def test_extract_special_normal_pure_left():
    inst = extract_special_normal(basis_matrix(1, 0))
    assert inst is not None
    assert inst.a == pytest.approx(0.0)
    assert np.allclose(inst.s, (1.0, 0.0, 0.0))
    assert np.allclose(inst.t, 0.0)


def test_extract_special_normal_constructed():
    # the symmetric block has to be rank one along s and t, or A is not normal
    s = np.array([2.0, 0.0, 0.0])
    w = np.array([0.0, 0.7, 0.0])
    u = SpecialNormal(0.5, tuple(s), tuple(w), (0.0, 1.0, 0.0), tuple(s))
    a = u.reconstruct()
    inst = extract_special_normal(a)
    assert inst is not None
    back = inst.reconstruct()
    assert np.linalg.norm(back - a) < 1e-12
    # members are normal matrices
    assert np.linalg.norm(a @ a.T - a.T @ a) < 1e-12


def test_extract_special_normal_equal_norms_rejected():
    u = SpecialNormal(0.0, (1.0, 1.0, 0.0), (0.2, 0.1, 0.0),
                      (0.0, 1.0, 1.0), (1.0, 1.0, 0.0))
    assert extract_special_normal(u.reconstruct()) is None


def test_extract_special_normal_validation():
    with pytest.raises(ValueError):
        extract_special_normal(np.eye(3))


def test_complex_input_with_real_values_takes_real_path():
    found = classify(J4.astype(complex))
    assert isinstance(found[0], SkewSymmetric)


def test_as_real_if_possible():
    a = np.eye(4, dtype=complex)
    out = as_real_if_possible(a)
    assert not np.iscomplexobj(out)
    b = np.eye(4, dtype=complex) + 0.5j * J4
    assert np.iscomplexobj(as_real_if_possible(b))
    c = np.eye(4)
    assert as_real_if_possible(c) is c


def test_classify_validation():
    with pytest.raises(ValueError):
        classify(np.eye(3))
    with pytest.raises(ValueError):
        classify(np.eye(4), tol=0.0)
    with pytest.raises(ValueError):
        classify(np.eye(4), tol=-1e-9)
