"""Tests for structured family recognition and coefficient extraction."""

import contextlib
import functools
import importlib
import io
import math
import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structexp import (COVERING_ALGEBRAS, ForcedClassMismatch, NotInAlgebra, classify,
                       exp_via_covering, expm_auto, expm_series, extract_special_normal,
                       extract_symmetric_rep, psi_inverse, rel_error)
from structexp.classify import (
    COMPLEX_REGISTRY,
    DEFAULT_TOL,
    EXTRACTORS,
    FAMILIES,
    REAL_REGISTRY,
    SkewHamiltonian,
    SkewSymmetric,
    SpecialNormal,
    SymmetricGeneral,
    _FORCED,
    _admit,
    _forced,
    _walk,
    as_real_if_possible,
    instance,
)
from structexp.cli import MatrixDocument, format_document_json, run
from structexp.expm_structured import _exp_member
from structexp.hxh import (_BASIS_ROWS, _PROJECTION_ROWS, J4, R4, HxHElement, basis_matrix,
                           from_matrix)
from structexp.smalllin import _SAFE_NORM, frobenius

from conftest import COMPLEX_FAMILY_TAGS, REAL_FAMILY_TAGS, covering_member, sample_family

_PRIORITY = [tag for tag, _ in REAL_REGISTRY]
# the package attribute structexp.classify is the function
cls_mod = importlib.import_module("structexp.classify")
es_mod = importlib.import_module("structexp.expm_structured")


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
    """classify as one forced route per registry entry: the reference the
    walk's claims must agree with."""
    a = as_real_if_possible(np.asarray(a))
    registry = COMPLEX_REGISTRY if np.iscomplexobj(a) else REAL_REGISTRY
    found = [(tag, _forced_step(tag, a, tol)[0]) for tag, _ in registry]
    return [instance(tag, member) for tag, member in found if member is not None]


def _walked(a, tol=DEFAULT_TOL, coverings=True):
    """The (route, member) pairs of the membership walk on A."""
    a, _, tol_abs = _admit(a, tol, len(a))
    return list(_walk(a, tol_abs, coverings))


def _forced_step(route, a, tol=DEFAULT_TOL):
    """(member, None) of A forced onto `route`, or (None, residual) when the
    route refuses A."""
    try:
        return _forced(a, tol, _FORCED[route])[0], None
    except (ForcedClassMismatch, NotInAlgebra) as exc:
        return None, exc.residual


def _projector(tag):
    """P_f of a registry entry: off its family, or off a fit's slots."""
    return FAMILIES[tag].projector if tag in FAMILIES else cls_mod._off_support(tag)


def _reference_residual(tag, m, tol=DEFAULT_TOL):
    """The residual of family `tag` at M by the stacked-map reference: 2 |P_f c|
    for a table family, the fit's own residual for a hand-written one."""
    m = as_real_if_possible(np.asarray(m))
    c = from_matrix(m).c
    if tag in FAMILIES:
        return 2.0 * float(np.linalg.norm(_projector(tag) @ c.reshape(16)))
    return EXTRACTORS[tag](m, c, tol * max(1.0, float(np.linalg.norm(m))))[1]


def _residual_per_unit(a, e, tag):
    """The residual of family `tag` at a + s e, divided by s, for a step s
    of one tolerance: the residual is linear in s for a table family and
    nearly so for the rank-one fits."""
    step = DEFAULT_TOL * max(1.0, float(np.linalg.norm(a)))
    return _reference_residual(tag, a + step * e) / step


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


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_forced_and_auto_accept_the_same_members_at_the_bound(tag):
    # the forced route and auto (_walk) read one entry of one kernel: a
    # member moved to 0.5, 0.999, 1.001 and 2 times the bound must be
    # accepted by both or by neither
    rng = np.random.default_rng(97)
    for scale in (1.0, 30.0):
        for _ in range(5):
            a = scale * sample_family(tag, rng)
            e = rng.standard_normal((4, 4))
            if np.iscomplexobj(a):
                e = e + 1j * rng.standard_normal((4, 4))
            unit = _residual_per_unit(a, e, tag)
            tol_abs = DEFAULT_TOL * max(1.0, float(np.linalg.norm(a)))
            for factor in (0.5, 0.999, 1.001, 2.0):
                m = a + (factor * tol_abs / unit) * e
                forced = _forced_step(tag, m)[0] is not None
                auto = tag in [t for t, _ in _walked(m)]
                assert forced == auto == (factor < 1.0), (scale, factor)


def test_forced_refusal_calls_its_fit_once():
    # a fit that returns no member gives its residual with the refusal, so
    # the forced route refuses on that one call and reports that residual
    a = np.random.default_rng(0).standard_normal((4, 4))
    n, refuse, ((kernel, f), complex_entry) = _FORCED["SpecialNormal"]
    routes, rows, incidence = kernel
    tag, _, fit = routes[f]
    calls = []

    def counted(*args):
        calls.append(fit(*args))
        return calls[-1]

    routes = routes[:f] + ((tag, None, counted),) + routes[f + 1:]
    with pytest.raises(ForcedClassMismatch) as counted_refusal:
        _forced(a, DEFAULT_TOL, (n, refuse, (((routes, rows, incidence), f), complex_entry)))
    assert len(calls) == 1 and calls[0][0] is None
    with pytest.raises(ForcedClassMismatch) as refusal:
        _forced(a, DEFAULT_TOL, _FORCED["SpecialNormal"])
    assert counted_refusal.value.residual == refusal.value.residual == calls[0][1]


def _boundary_case(route, norm, rng):
    """(A, E, residual): a member A of `route` of Frobenius norm `norm`, a
    direction E off the route, and the route's residual of a matrix."""
    if route.startswith("covering:"):
        alg = COVERING_ALGEBRAS[route[len("covering:"):]]
        a = covering_member(alg, rng)
        # D = M S, S symmetric, is |S| from the algebra: half its relation
        # residual |D^T M + M D| = 2 |S|
        e = alg.form @ (lambda s: s + s.T)(rng.standard_normal((alg.dim, alg.dim)))
        return a * (norm / np.linalg.norm(a)), e, lambda m: np.linalg.norm(
            m.T @ alg.form + alg.form @ m) / 2.0
    a = sample_family(route, rng)
    e = rng.standard_normal((4, 4))
    if np.iscomplexobj(a):
        e = e + 1j * rng.standard_normal((4, 4))
    return a * (norm / np.linalg.norm(a)), e, lambda m: _reference_residual(route, m)


def _verify_listing(a):
    """The routes `structexp verify --all-routes` lists for A."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        run(["verify", format_document_json(MatrixDocument.of_matrix(a)), "--all-routes"])
    return [line.split()[0] for line in out.getvalue().splitlines()[1:-1]]


# the 30 entries of the membership kernels
_ROUTE_ENTRIES = (REAL_FAMILY_TAGS + COMPLEX_FAMILY_TAGS
                  + [f"covering:{name}" for name in COVERING_ALGEBRAS])


def _deciders(route, m):
    """Whether each decider takes M onto `route`: the walk (auto's), the
    forced route, the verify --all-routes listing, and classify for a
    family or psi_inverse for a covering algebra."""
    takes = [route in [r for r, _ in _walked(m)], _forced_step(route, m)[0] is not None,
             route in _verify_listing(m)]
    try:
        takes.append(expm_auto(m, method=route).route == route)
    except (ForcedClassMismatch, NotInAlgebra):
        takes.append(False)
    if route.startswith("covering:"):
        try:
            takes.append(psi_inverse(COVERING_ALGEBRAS[route[len("covering:"):]], m) is not None)
        except NotInAlgebra:
            takes.append(False)
    else:
        takes.append(route in [inst.tag for inst in classify(m)])
    return takes


def _to_the_bound(a, e, residual, factor):
    """The scale t that moves A along E to `factor` times the bound of A + t
    E, tol max(1, |A + t E|_F), by the route's `residual`, found by
    iteration."""
    t = factor * DEFAULT_TOL / residual(e)
    for _ in range(6):
        m = a + t * e
        t *= factor * DEFAULT_TOL * max(1.0, np.linalg.norm(m)) / residual(m)
    return t


def _bisected(route, a, e, lo, hi):
    """(lo, hi), adjacent floats: the last scale of the move from lo to hi
    that the walk takes onto `route`, and the next one, which it refuses."""
    while True:
        mid = lo + (hi - lo) / 2.0
        if mid in (lo, hi):
            break
        if route in [r for r, _ in _walked(a + mid * e)]:
            lo = mid
        else:
            hi = mid
    assert hi == np.nextafter(lo, np.inf)
    return lo, hi


@pytest.mark.parametrize("route", _ROUTE_ENTRIES)
def test_every_route_holds_a_to_the_one_bound(route):
    # a member moved to 0.999 and 1.001 times tol max(1, |A|_F) off its
    # route, at |A| of 1e-3, 1 and 30: the walk, the forced route, classify
    # and the verify --all-routes listing all take it, or all refuse it, on
    # the side of the bound it is on; and bisected to the last scale of the
    # move that the walk takes, where the next float above it is refused,
    # they all take the one and refuse the other
    rng = np.random.default_rng(31)
    for norm in (1e-3, 1.0, 30.0):
        a, e, residual = _boundary_case(route, norm, rng)
        ends = []
        for factor in (0.999, 1.001):
            t = _to_the_bound(a, e, residual, factor)
            assert set(_deciders(route, a + t * e)) == {factor < 1.0}, (norm, factor)
            ends.append(t)
        lo, hi = _bisected(route, a, e, *ends)
        assert set(_deciders(route, a + lo * e)) == {True}, (norm, lo)
        assert set(_deciders(route, a + hi * e)) == {False}, (norm, hi)


# pairs of routes on one set of real matrices: a covering algebra and the
# family of its form, and a complex family on real input and its real twin
_SAME_SET = [("SkewSymmetric", "covering:so4"), ("Perskewsymmetric", "covering:p4r"),
             ("Lie1", "covering:so22r"), ("SkewSymmetric", "ComplexSO4"),
             ("Perskewsymmetric", "ComplexPerskew")]


def _covering_refusals(alg, m):
    """The residual with which psi_inverse and exp_via_covering each refuse
    M, or None where it takes M."""
    out = []
    for fn in (psi_inverse, exp_via_covering):
        try:
            fn(alg, m)
            out.append(None)
        except NotInAlgebra as exc:
            out.append(exc.residual)
    return out


@pytest.mark.parametrize("family, other", _SAME_SET)
def test_routes_on_the_same_set_decide_alike(family, other):
    # a member of the family moved 0.999 and 1.001 times the bound off it,
    # at |A| of 1e-3, 1 and 30, is as far from the other route's set: both
    # routes take it or both refuse it, through the walk (a complex family
    # walks no real input) and through the forced route.  At the family's
    # bisected bound the two read one square: a covering algebra takes the
    # last scale and refuses the next through the walk, the verify listing,
    # its forced route, psi_inverse and exp_via_covering, and refuses with
    # the family's residual; a complex family forced on the real input
    # decides as its real twin does, with the same member, value and
    # refusal residual
    rng = np.random.default_rng(35)
    for norm in (1e-3, 1.0, 30.0):
        a, e, residual = _boundary_case(family, norm, rng)
        ends = []
        for factor in (0.999, 1.001):
            t = _to_the_bound(a, e, residual, factor)
            m = a + t * e
            walked = [r for r, _ in _walked(m)]
            takes = [family in walked, _forced_step(family, m)[0] is not None,
                     _forced_step(other, m)[0] is not None]
            if other.startswith("covering:"):
                takes.append(other in walked)
            assert set(takes) == {factor < 1.0}, (norm, factor)
            ends.append(t)
        lo, hi = _bisected(family, a, e, *ends)
        if other.startswith("covering:"):
            alg = COVERING_ALGEBRAS[other[len("covering:"):]]
            for t, took in ((lo, True), (hi, False)):
                m = a + t * e
                walked = [r for r, _ in _walked(m)]
                refusal = _forced_step(family, m)[1]
                assert (other in walked) == (other in _verify_listing(m)) == took, (norm, t)
                assert _forced_step(other, m)[1] == refusal, (norm, t)
                assert _covering_refusals(alg, m) == [refusal, refusal], (norm, t)
            continue
        took = _forced_step(other, a + lo * e)[0]
        assert took.tobytes() == _forced_step(family, a + lo * e)[0].tobytes(), (norm, lo)
        assert (expm_auto(a + lo * e, method=other).value.tobytes()
                == expm_auto(a + lo * e, method=family).value.tobytes()), (norm, lo)
        refused = _forced_step(other, a + hi * e)
        assert refused[0] is None and refused == _forced_step(family, a + hi * e), (norm, hi)


@pytest.mark.parametrize("twin, route", _SAME_SET)
def test_each_twin_has_its_routes_own_squared_distance(twin, route):
    # a route that reads its twin family's square is decided by the twin's
    # form: the twin's squared distance |A - P|_F^2 / 4 = vec A^T Q vec A,
    # Q from its entry of the real kernel, is the route's own to roundoff,
    # by (I - psi psi^+)/2 for a covering algebra and by the projector off
    # its family for a complex one
    name = route.removeprefix("covering:")
    assert len(cls_mod._TWINS) == len(_SAME_SET)
    f = cls_mod._TWINS[name]
    assert _PRIORITY[f] == twin
    _, kernel, incidence = cls_mod._REAL4
    twin_form = kernel.T @ np.diag(incidence[f]) @ kernel
    if name in COVERING_ALGEBRAS:
        alg = COVERING_ALGEBRAS[name]
        off = (np.eye(16) - alg.psi_matrix @ alg.psi_pinv) / 2.0
    else:
        off = FAMILIES[name].projector @ _PROJECTION_ROWS
    np.testing.assert_allclose(off.T @ off, twin_form, rtol=0.0, atol=1e-15)


def test_verify_walks_the_family_kernel_that_auto_walks():
    # one kernel for each input kind, the 4x4 covering algebras its entries
    # after the families', which classify does not walk: the family
    # routes that verify walks are auto's and classify's, member for member
    # bitwise, on members, on members at the bound (the Toeplitz tie rows
    # among them) and on dense input
    rng = np.random.default_rng(32)
    assert cls_mod._KERNELS[4, False] == (cls_mod._REAL4, len(REAL_REGISTRY))
    assert [r for r, _, _ in cls_mod._REAL4[0][len(REAL_REGISTRY):]] == [
        f"covering:{alg.name}" for alg in COVERING_ALGEBRAS.values() if alg.dim == 4]
    for cplx, tags in ((False, REAL_FAMILY_TAGS), (True, COMPLEX_FAMILY_TAGS)):
        for a in _kernel_inputs(tags, cplx, rng):
            families = _walked(a, coverings=False)
            walked = [(r, m) for r, m in _walked(a) if not r.startswith("covering:")]
            assert [r for r, _ in walked] == [r for r, _ in families]
            for (r, m), (_, want) in zip(walked, families):
                assert m.tobytes() == want.tobytes(), r


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


def test_complex_input_to_the_real_extractors_warns_nothing():
    real = sample_family("SpecialNormal", np.random.default_rng(58))
    sym = real + real.T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a vanishing imaginary part is dropped, so the real fit runs
        inst = extract_special_normal(real.astype(complex))
        assert inst == extract_special_normal(real)
        assert inst is not None
        assert all(np.array_equal(x, y) for x, y in
                   zip(extract_symmetric_rep(sym.astype(complex)), extract_symmetric_rep(sym)))
        # a kept one puts A in no real family
        assert extract_special_normal(real + 0.5j * J4) is None
        with pytest.raises(ValueError, match="not real"):
            extract_symmetric_rep(sym + 0.5j * np.eye(4))


@pytest.mark.parametrize("scale", [1e-200, 1e-320, 1e150])
def test_special_normal_members_at_the_ends_of_the_range(scale):
    # below about 1e-162 the squared skew norms underflow to an equal 0, and
    # near 1e150 the normality test's A^T A overflowed: both refused members
    rng = np.random.default_rng(59)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(5):
            a = sample_family("SpecialNormal", rng) * scale
            assert extract_special_normal(a) is not None
            assert "SpecialNormal" in [inst.tag for inst in classify(a)]
            if scale < 1.0:
                assert expm_auto(a, method="SpecialNormal").route == "SpecialNormal"


def test_extract_symmetric_rep_refuses_an_overflowing_norm():
    # |A - A^T| and |A| both overflowed to inf, and inf > 1e-12 * inf is false
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in ((np.eye(4) + J4) * 1e160, np.eye(4) * 1e300):
            with pytest.raises(ValueError, match="overflow"):
                extract_symmetric_rep(a)


# --------------------------------- the membership kernel, and the fit bounds


def _bisymmetric_rs_bound(a):
    """Twice the norm of A's part off the BisymmetricRS slots, as the real
    registry's membership kernel gives it to classification."""
    routes, kernel, incidence = cls_mod._REAL4
    f = _PRIORITY.index("BisymmetricRS")
    assert routes[f] == ("BisymmetricRS", None, cls_mod.EXTRACTORS["BisymmetricRS"])
    y = kernel @ a.reshape(16)
    return 2.0 * np.sqrt(incidence[f] @ (y * y))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(1e-3, 30.0),
       kind=st.sampled_from(["dense", "symmetric", "member"]))
def test_bisymmetric_rs_bound_never_exceeds_its_fit_residual(seed, scale, kind):
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((4, 4))
    if kind == "dense":
        a = e
    elif kind == "symmetric":
        a = e + e.T
    else:
        # a member moved off its family by 1e-13 to 1e-5 of its norm, about
        # the tolerance band
        a = sample_family("BisymmetricRS", rng)
        a = a + 10.0 ** rng.uniform(-13.0, -5.0) * np.linalg.norm(a) * e / np.linalg.norm(e)
    a = scale * a
    tol_abs = DEFAULT_TOL * max(1.0, float(np.linalg.norm(a)))
    _member, res = cls_mod._x_bisymmetric_rs(a, from_matrix(a).c, tol_abs)
    # the bound sums a subset of the residual's squares: equal up to rounding
    assert _bisymmetric_rs_bound(a) <= res * (1.0 + 1e-12)


def test_bisymmetric_rs_fit_runs_only_where_its_bound_allows(monkeypatch):
    calls = []
    fit = cls_mod.EXTRACTORS["BisymmetricRS"]

    def counting(*args):
        calls.append(args)
        return fit(*args)

    # the walk calls the fit its route carries
    routes, kernel, incidence = cls_mod._REAL4
    routes = tuple((tag, rows, counting if tag == "BisymmetricRS" else rule)
                   for tag, rows, rule in routes)
    monkeypatch.setitem(cls_mod._KERNELS, (4, False),
                        ((routes, kernel, incidence), cls_mod._KERNELS[4, False][1]))
    rng = np.random.default_rng(60)
    for _ in range(20):
        for a in (sample_family("SymmetricGeneral", rng), rng.standard_normal((4, 4))):
            classify(a)
            expm_auto(a)
    assert calls == []
    a = sample_family("BisymmetricRS", rng)
    assert "BisymmetricRS" in [inst.tag for inst in classify(a)]
    assert expm_auto(a).route == "BisymmetricRS"
    assert len(calls) == 2


_ENTRIES = [tag for tag, _ in REAL_REGISTRY + COMPLEX_REGISTRY]


def _kernel_inputs(tags, cplx, rng, scales=(1e-3, 1.0, 30.0, 1e150)):
    """Members of each family in `tags` at each scale, members of each moved
    0.5, 0.999, 1.001 and 2 tolerances off it, and 20 dense draws."""
    out = [s * sample_family(tag, rng) for tag in tags for s in scales]
    for tag in tags:
        a = sample_family(tag, rng)
        e = rng.standard_normal((4, 4))
        if cplx:
            e = e + 1j * rng.standard_normal((4, 4))
        unit = _residual_per_unit(a, e, tag)
        tol_abs = DEFAULT_TOL * max(1.0, float(np.linalg.norm(a)))
        out += [a + (factor * tol_abs / unit) * e for factor in (0.5, 0.999, 1.001, 2.0)]
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        out.append(a + 1j * rng.standard_normal((4, 4)) if cplx else a)
    return out


@pytest.mark.parametrize("tag", _ENTRIES)
def test_membership_kernel_is_each_entrys_projector_residual(tag):
    cplx = tag in COMPLEX_FAMILY_TAGS
    registry = COMPLEX_REGISTRY if cplx else REAL_REGISTRY
    _, kernel, incidence = cls_mod._COMPLEX4 if cplx else cls_mod._REAL4
    f = [t for t, _ in registry].index(tag)
    # W is 0/1, each column repeated for the floats of one coefficient
    pairs = incidence.shape[1] // kernel.shape[0]
    w = incidence[f, ::pairs]
    assert set(incidence.ravel().tolist()) <= {0.0, 1.0}
    assert np.array_equal(incidence[f], np.repeat(w, pairs))
    # Y = [I; T] P: the entry's coordinate rows and tie functionals rebuild
    # its projector, and its ties are orthonormal and off its patterns
    ties = (kernel[16:] @ _BASIS_ROWS.T)[w[16:] == 1.0]
    proj = _projector(tag)
    np.testing.assert_allclose(kernel[:16] @ _BASIS_ROWS.T, np.eye(16), atol=1e-15)
    np.testing.assert_allclose(np.diag(w[:16]) + ties.T @ ties, proj, atol=1e-15)
    np.testing.assert_allclose(ties @ ties.T, np.eye(len(ties)), atol=1e-15)
    if tag in FAMILIES:
        np.testing.assert_allclose(ties @ FAMILIES[tag].basis, 0.0, atol=1e-15)
    rng = np.random.default_rng(98)
    tags = COMPLEX_FAMILY_TAGS if cplx else REAL_FAMILY_TAGS
    for a in _kernel_inputs(tags, cplx, rng):
        y = (kernel @ a.reshape(16)).view(np.float64)
        res = 2.0 * np.sqrt(incidence[f] @ (y * y))
        want = 2.0 * np.linalg.norm(proj @ from_matrix(a).c.reshape(16))
        assert abs(res - want) <= 1e-14 * max(1.0, np.linalg.norm(a)), (res, want)


def _matches_by_stacked_map(a, tol=DEFAULT_TOL):
    """(passing entries, [(tag, member)]) by the map [I; P_1; ...; P_F] P
    with one 16-row block per registry entry, which gives the squares, and
    a table family's member as its block of [P; (I - P_1) P; ...; (I - P_F)
    P]: the reference the membership kernel must decide and extract as."""
    a, norm, _ = _admit(a, tol)
    registry = COMPLEX_REGISTRY if a.dtype.kind == "c" else REAL_REGISTRY
    projs = [_projector(t) for t, _ in registry]
    vec = a.reshape(16)
    out = (np.vstack([np.eye(16), *projs]) @ _PROJECTION_ROWS).dot(vec)
    c, off = out[:16], out[16:].reshape(-1, 16)
    members = (np.vstack([np.eye(16), *(np.eye(16) - p for p in projs)])
               @ _PROJECTION_ROWS).dot(vec)[16:].reshape(-1, 16)
    pairs = off.view(np.float64)
    tol_abs = tol * max(1.0, norm)
    passing = (np.add.reduce(pairs * pairs, axis=-1) <= (tol_abs / 2) ** 2).nonzero()[0].tolist()
    found = []
    for f in passing:
        tag, extract = registry[f]
        member = (members[f] if tag in FAMILIES
                  else extract(a, c.reshape(4, 4), tol_abs)[0])
        if member is not None:
            found.append((tag, member))
    return passing, found


@pytest.mark.parametrize("cplx", [False, True])
def test_membership_kernel_decides_and_extracts_as_the_stacked_map(cplx):
    rng = np.random.default_rng(99)
    tags = COMPLEX_FAMILY_TAGS if cplx else REAL_FAMILY_TAGS
    inputs = _kernel_inputs(tags, cplx, rng)
    inputs += [s * sample_family(tag, rng) for tag in REAL_FAMILY_TAGS + COMPLEX_FAMILY_TAGS
               for s in (0.1, 10.0)]
    _, kernel, incidence = cls_mod._COMPLEX4 if cplx else cls_mod._REAL4
    # the family entries, ahead of the 4x4 covering algebras'
    incidence = incidence[:len(COMPLEX_REGISTRY if cplx else REAL_REGISTRY)]
    for a in inputs:
        admitted = _admit(a, DEFAULT_TOL)
        if (admitted[0].dtype.kind == "c") != cplx:
            continue
        passing, found = _matches_by_stacked_map(a)
        y = kernel.dot(admitted[0].reshape(16)).view(np.float64)
        half = 0.5 * DEFAULT_TOL * max(1.0, admitted[1])
        assert (incidence.dot(y * y) <= half * half).nonzero()[0].tolist() == passing
        got = _walked(a, coverings=False)
        assert [t for t, _ in got] == [t for t, _ in found]
        for (tag, m), (_, want) in zip(got, found):
            assert m.tobytes() == want.tobytes(), tag


def _claims(routes, squares, a, vec, y, tol_abs):
    """The entries that claim A, by _claim from each entry past the last."""
    out, claim = [], cls_mod._claim(routes, squares, 0, a, vec, y, tol_abs)
    while claim is not None:
        out.append(claim[0])
        claim = cls_mod._claim(routes, squares, claim[0] + 1, a, vec, y, tol_abs)
    return out


@pytest.mark.parametrize("cplx", [False, True])
def test_the_walk_helpers_pass_what_the_bound_passes(cplx):
    # the squares of _residuals, read as floats, pass where numpy's
    # comparison of W (y o y) with (tol_abs/2)^2 does, and _claim claims
    # every passing table family and each passing fit whose extractor
    # returns a member
    rng = np.random.default_rng(33)
    tags = COMPLEX_FAMILY_TAGS if cplx else REAL_FAMILY_TAGS
    routes, kernel, incidence = cls_mod._COMPLEX4 if cplx else cls_mod._REAL4
    for a in _kernel_inputs(tags, cplx, rng):
        a, _, tol_abs = _admit(a, DEFAULT_TOL)
        if (a.dtype.kind == "c") != cplx:
            continue
        vec = a.reshape(16)
        pairs = kernel.dot(vec).view(np.float64)
        passing = (incidence.dot(pairs * pairs) <= (tol_abs / 2) ** 2).nonzero()[0].tolist()
        y, squares = cls_mod._residuals(kernel, incidence, vec)
        assert y.tobytes() == kernel.dot(vec).tobytes()
        squares = squares.tolist()
        assert [f for f, sq in enumerate(squares) if sq <= (tol_abs / 2) ** 2] == passing
        c = y[:16]
        want = [f for f in passing if routes[f][2] is None
                or routes[f][2](a, c, tol_abs)[0] is not None]
        assert _claims(routes, squares, a, vec, y, tol_abs) == want


def test_a_nan_square_claims_nothing():
    routes, kernel, incidence = cls_mod._REAL4
    a = np.eye(4)
    vec = a.reshape(16)
    y, squares = cls_mod._residuals(kernel, incidence, vec)
    squares = squares.tolist()
    f = _PRIORITY.index("SkewHamiltonian")
    assert _claims(routes, squares, a, vec, y, DEFAULT_TOL)[0] == f
    squares[f] = math.nan
    assert f not in _claims(routes, squares, a, vec, y, DEFAULT_TOL)


def test_every_fit_entry_holds_its_own_extractor():
    # a route is (name, rows, rule), exactly one of rows and rule set: every
    # table family, the two Toeplitz families too, and every covering
    # algebra take their member by their rows (I - P_f) P and psi^+, a
    # hand-written fit carries its extractor, and a 2x2's rule returns A
    # itself; no other entry has a rule
    seen, ruled = set(), set()
    for (routes, _, _), _ in cls_mod._KERNELS.values():
        for name, rows, rule in routes:
            seen.add(name)
            assert (rows is None) != (rule is None), name
            if rule is not None:
                ruled.add(name)
            if name in FAMILIES:
                assert rows is not None and rule is None, name
                want = (np.eye(16) - FAMILIES[name].projector) @ _PROJECTION_ROWS
                assert rows.tobytes() == want.astype(rows.dtype).tobytes(), name
            elif name in EXTRACTORS:
                assert rows is None and rule is EXTRACTORS[name], name
            elif name.startswith("covering:"):
                assert rows is not None and rule is None, name
            else:
                assert (name, rows) == ("expm2", None)
                a = np.array([[1.0, 2.0], [3.0, 4.0]])
                assert rule(a, a.ravel()[:0], DEFAULT_TOL)[0] is a
    assert seen == set(EXTRACTORS) | {f"covering:{n}" for n in COVERING_ALGEBRAS} | {"expm2"}
    assert ruled == {"SpecialNormal", "BisymmetricRS", "expm2"}


@pytest.mark.parametrize("tag", ["SymToeplitzTridiag", "SymToeplitzS13Zero"])
def test_a_toeplitz_member_is_its_member_rows_on_vec_a(tag):
    # the walk (whose _claim auto runs) and the forced route both take the
    # member (I - P_f) P vec A, bitwise, with no rule of their own
    rows = (np.eye(16) - FAMILIES[tag].projector) @ _PROJECTION_ROWS
    rng = np.random.default_rng(36)
    for scale in (0.1, 1.0, 30.0):
        for _ in range(20):
            a = scale * sample_family(tag, rng)
            want = rows.dot(a.reshape(16)).tobytes()
            assert dict(_walked(a, coverings=False))[tag].tobytes() == want, scale
            assert _forced_step(tag, a)[0].tobytes() == want, scale


def test_a_kernel_stacked_in_another_order_calls_each_tags_own_fit():
    routes, kernel, incidence = cls_mod._stack(REAL_REGISTRY[::-1])
    assert [r[0] for r in routes] == _PRIORITY[::-1]
    rng = np.random.default_rng(34)
    for tag in ("SpecialNormal", "BisymmetricRS", "SymmetricGeneral", "SkewSymmetric"):
        for _ in range(5):
            a, _, tol_abs = _admit(sample_family(tag, rng), DEFAULT_TOL)
            vec = a.reshape(16)
            y, squares = cls_mod._residuals(kernel, incidence, vec)
            squares = squares.tolist()
            claims = {}
            for f in _claims(routes, squares, a, vec, y, tol_abs):
                claims[routes[f][0]] = cls_mod._claim(routes, squares, f, a, vec, y,
                                                      tol_abs)[1].tobytes()
            want = {r: m.tobytes() for r, m in _walked(a, coverings=False)}
            assert claims == want, tag


def _first_of_walk(a, tol=DEFAULT_TOL):
    """(route, exp(A)) of the first route of the walk without coverings,
    by its closed form, or of the oracle when the walk yields none."""
    admitted = _admit(a, tol, len(a))
    first = None if admitted is None else next(_walk(admitted[0], admitted[2], False), None)
    if first is None:
        return "oracle", expm_series(a)
    return first[0], es_mod._ROUTES[first[0]](first[1], admitted[1], admitted[2])


def _assert_auto_takes_the_first_claim(a, label):
    got, (route, value) = expm_auto(a), _first_of_walk(a)
    assert got.route == route, label
    assert got.value.dtype == value.dtype and got.value.tobytes() == value.tobytes(), label


@pytest.mark.parametrize("route", REAL_FAMILY_TAGS + COMPLEX_FAMILY_TAGS
                         + ["covering:so3", "covering:p3r", "covering:so21r"])
def test_auto_takes_the_first_claim_of_the_walk_at_the_bound(route):
    # a member moved to 0.999 and 1.001 times tol max(1, |A|_F) off its
    # route, at |A| of 1e-3, 1 and 30 (as in
    # test_every_route_holds_a_to_the_one_bound)
    rng = np.random.default_rng(35)
    for norm in (1e-3, 1.0, 30.0):
        a, e, residual = _boundary_case(route, norm, rng)
        _assert_auto_takes_the_first_claim(a, (norm, "member"))
        for factor in (0.999, 1.001):
            t = factor * DEFAULT_TOL / residual(e)
            for _ in range(6):
                m = a + t * e
                t *= factor * DEFAULT_TOL * max(1.0, np.linalg.norm(m)) / residual(m)
            _assert_auto_takes_the_first_claim(a + t * e, (norm, factor))


def test_auto_takes_the_first_claim_of_the_walk_elsewhere():
    # complex-typed real members, dense real and complex 4x4s, 2x2s and a
    # dense 3x3, real and complex
    rng = np.random.default_rng(36)
    for tag in REAL_FAMILY_TAGS:
        a = sample_family(tag, rng).astype(complex)
        _assert_auto_takes_the_first_claim(a, tag)
        assert expm_auto(a).route != "oracle", tag
    for n in (2, 3, 4):
        for _ in range(10):
            a = rng.standard_normal((n, n))
            _assert_auto_takes_the_first_claim(a, n)
            _assert_auto_takes_the_first_claim(a + 1j * rng.standard_normal((n, n)), n)
    assert expm_auto(rng.standard_normal((2, 2))).route == "expm2"


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.floats(-3.0, 150.0))
def test_special_normal_fit_takes_normality_from_a_at_any_scale(seed, exponent):
    # the fit accepts a member, and rejects the same skew part s(x)1 + 1(x)t
    # with the pure block s (x) w / |s|, w _|_ t and |w| = |t|, which is not
    # normal: its part along s_hat(x)t_hat is 0, so the fit's residual
    # 2 |B - lambda s(x)t| is 2 |B| = 2 |t|
    rng = np.random.default_rng(seed)
    a = sample_family("SpecialNormal", rng) * 10.0 ** exponent
    c = from_matrix(a).c
    s, t = c[1:, 0], c[0, 1:]
    w = np.cross(t, rng.standard_normal(3))
    c[1:, 1:] = np.outer(s, w) * (np.linalg.norm(t) / np.linalg.norm(w) / np.linalg.norm(s))
    bad = HxHElement(c).to_matrix()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert extract_special_normal(a) is not None
        member, res = _forced_step("SpecialNormal", bad)
    assert member is None
    block = from_matrix(bad).c[1:, 1:]
    u, v = s / np.linalg.norm(s), t / np.linalg.norm(t)
    assert res == pytest.approx(2.0 * np.linalg.norm(block - (u @ block @ v) * np.outer(u, v)),
                                rel=1e-10)
    assert res == pytest.approx(2.0 * np.linalg.norm(t), rel=1e-10)


def _d(block, s, t):
    """D of the SpecialNormal normality test: column j is B[:, j] x s, and
    row i adds B[i, :] x t."""
    return np.cross(block.T, s).T + np.cross(block, t)


def test_special_normal_normality_decides_in_the_band():
    # near |A| = 1e3 the commutator's bound tol |A|^2 is below the
    # commutator of a block part that the fit's residual still accepts: the
    # direction off s_hat(x)t_hat that maximises |D| is refused at 0.9
    # tol_abs, on the commutator, and accepted at 0.5 tol_abs
    s, t = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.4, 0.0])
    c = np.zeros((4, 4))
    c[1:, 0], c[0, 1:] = s, t
    c *= 1e3 / np.linalg.norm(HxHElement(c).to_matrix())
    s, t = c[1:, 0], c[0, 1:]
    lin = np.column_stack([_d(e.reshape(3, 3), s, t).ravel() for e in np.eye(9)])
    worst = np.linalg.svd(lin)[2][0].reshape(3, 3)
    tol_abs = DEFAULT_TOL * 1e3
    for factor, accepted in ((0.9, False), (0.5, True)):
        band = c.copy()
        band[1:, 1:] = factor * tol_abs / 2.0 * worst
        a = HxHElement(band).to_matrix()
        member, res = _forced_step("SpecialNormal", a)
        assert (member is not None) == accepted, factor
        comm = np.linalg.norm(a.T @ a - a @ a.T) / 2.0
        assert 4.0 * np.linalg.norm(_d(band[1:, 1:], s, t)) == pytest.approx(comm, rel=1e-6)
        if not accepted:
            assert res == pytest.approx(comm, rel=1e-6)
            assert res > DEFAULT_TOL * max(1.0, np.linalg.norm(a)) ** 2


@pytest.mark.parametrize("tag", ["SpecialNormal", "BisymmetricRS"])
def test_band_members_are_exponentiated_as_members(tag):
    # members moved 0.9 tol_abs off the family: the fit returns a member of
    # the family, so the closed form is the exponential of its own matrix
    rng = np.random.default_rng(93)
    for scale in (1.0, 10.0, 30.0):
        for _ in range(10):
            a = scale * sample_family(tag, rng)
            e = rng.standard_normal((4, 4))
            tol_abs = DEFAULT_TOL * max(1.0, float(np.linalg.norm(a)))
            m = a + (0.9 * tol_abs / _residual_per_unit(a, e, tag)) * e
            admitted = _admit(m, DEFAULT_TOL)
            member, res = _forced_step(tag, m)[0], _reference_residual(tag, m)
            assert member is not None and res > 0.5 * tol_abs, (scale, res)
            p = (member @ _BASIS_ROWS).reshape(4, 4)
            if tag == "SpecialNormal":
                assert np.linalg.norm(p.T @ p - p @ p.T) <= 1e-14 * np.linalg.norm(p) ** 2
            value = _exp_member(tag, member, *admitted[1:])
            assert rel_error(value, expm_series(p)) <= 1e-13, scale


@pytest.mark.parametrize("tag", REAL_FAMILY_TAGS + COMPLEX_FAMILY_TAGS)
def test_overflow_gate_bound_is_at_least_the_member_norm(tag, monkeypatch):
    # auto (_walk), forced (_forced) and exp_structured_class hand the
    # closed form A's norm and bound, which give its overflow gate
    # |A|_F/2 + tol_abs, or the instance's own norm: never below the
    # member's norm, so the closed form raises OverflowError on exactly the
    # members that its own norm gates
    es = importlib.import_module("structexp.expm_structured")
    real, seen, path = es._exp_member, [], [None]

    def record(t, member, norm, tol_abs):
        seen.append((path[0], t, member, norm / 2.0 + tol_abs, norm, tol_abs))
        return np.eye(4)

    monkeypatch.setattr(es, "_exp_member", record)
    for t in EXTRACTORS:
        monkeypatch.setitem(es._ROUTES, t, functools.partial(record, t))
    rng = np.random.default_rng(95)
    # across _SAFE_NORM, and at 3000, where exp(A) overflows for most families
    norms = [*np.geomspace(1e-3, 800.0, 10), 0.999 * _SAFE_NORM, _SAFE_NORM,
             1.001 * _SAFE_NORM, 3000.0]
    for norm in norms:
        a = sample_family(tag, rng)
        a = a * (2.0 * norm / np.linalg.norm(a))  # coefficient norm `norm`
        e = rng.standard_normal((4, 4))
        if np.iscomplexobj(a):
            e = e + 1j * rng.standard_normal((4, 4))
        tol_abs = DEFAULT_TOL * max(1.0, float(np.linalg.norm(a)))
        band = a + (0.9 * tol_abs / _residual_per_unit(a, e, tag)) * e
        for m in (a, band):
            path[0] = "auto"
            list(es._routes(m, DEFAULT_TOL))
            path[0] = "forced"
            es._dispatch(m, tag, DEFAULT_TOL)
            path[0] = "class"
            for inst in classify(m):
                es.exp_structured_class(inst)
    assert {(p, t) for p, t, *_ in seen} >= {(p, tag) for p in ("auto", "forced", "class")}
    for p, t, member, bound, norm, tol_abs in seen:
        assert bound >= frobenius(member), (p, t, bound)
        try:
            want = real(t, member, 2.0 * frobenius(member), 0.0)
        except OverflowError:
            with pytest.raises(OverflowError):
                real(t, member, norm, tol_abs)
            continue
        assert np.array_equal(real(t, member, norm, tol_abs), want), (p, t)


@pytest.mark.parametrize("tag", REAL_FAMILY_TAGS + COMPLEX_FAMILY_TAGS)
def test_long_double_input_takes_the_float64_route(tag):
    rng = np.random.default_rng(94)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(5):
            a = sample_family(tag, rng)
            want = expm_auto(a)
            kinds = [np.clongdouble] if np.iscomplexobj(a) else [np.longdouble, np.clongdouble]
            for kind in kinds:
                wide = a.astype(kind)
                assert classify(wide) == classify(a), kind
                got = expm_auto(wide)
                assert got.route == want.route, kind
                assert np.linalg.norm(got.value - want.value) <= 1e-15 * np.linalg.norm(want.value)
                forced = expm_auto(wide, method=tag).value
                assert np.array_equal(forced, expm_auto(a, method=tag).value), kind


def test_admission_drops_an_imaginary_part_once_by_the_public_criterion(monkeypatch):
    # _admit reuses its own norm for the test as_real_if_possible makes:
    # max |Im A| <= 1e-14 max(1, |A|_F)
    a = 3.0 * sample_family("SkewSymmetric", np.random.default_rng(95)).astype(complex)
    edge = 1e-14 * np.linalg.norm(a)
    calls = []
    lin_mod = importlib.import_module("structexp.smalllin")
    norm = lin_mod.frobenius

    def counting(x):
        calls.append(x)
        return norm(x)

    monkeypatch.setattr(lin_mod, "frobenius", counting)
    for im, dropped in ((edge, True), (1.01 * edge, False)):
        b = a.copy()
        b[0, 1] += 1j * im
        calls.clear()
        admitted = cls_mod._admit(b, DEFAULT_TOL)[0]
        assert len(calls) == 1
        assert np.iscomplexobj(admitted) != dropped
        assert np.iscomplexobj(as_real_if_possible(b)) != dropped


def test_a_tolerance_past_the_square_root_of_the_float64_range_raises_nothing():
    # the bound is squared as a product, which gives inf where ** raises
    a = sample_family("Lie3", np.random.default_rng(62)) + 0.5
    want = [m.tag for m in classify(a, 1e100)]
    assert "Lie3" in want
    assert [m.tag for m in classify(a, 1e160)] == want
    member = _forced_step("Lie3", a, 1e160)[0]
    assert member is not None
    lifts = [route for route, _ in _walked(np.eye(3), 1e160)]
    assert lifts == ["covering:so3", "covering:p3r", "covering:so21r"]


def _comprehension_x_special_normal(a, c, tol_abs):
    """The SpecialNormal fit as it was written with comprehensions, the
    reference of its straight-line form: the same float operations in the
    same order."""
    c00, s, t, b = cls_mod._special_normal_parts(c.reshape(16).tolist())
    ns, nt = math.hypot(*s), math.hypot(*t)
    norm = 2.0 * math.hypot(c00, ns, nt, *b)
    k = max(1.0, norm)
    if not abs(ns - nt) * k > tol_abs * (ns + nt):
        return None, np.inf
    small = 1e-12 * max(1.0, norm / 2.0)
    fs = ns if ns > small or ns > nt else 0.0
    ft = nt if nt > small or nt > ns else 0.0
    u, v, mu = cls_mod._special_normal_frame(s, t, b, fs, ft)
    fit = [mu * x * y for x in u for y in v]
    res = 2.0 * math.hypot(*map(operator.sub, b, fit), ns - fs, nt - ft)
    if not res <= tol_abs:
        return None, res
    s1, s2, s3, t1, t2, t3 = [x / k for x in s + t]
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    comm = 4.0 * math.hypot(
        b3 * s3 - b6 * s2 + b1 * t3 - b2 * t2, b4 * s3 - b7 * s2 + b2 * t1 - b0 * t3,
        b5 * s3 - b8 * s2 + b0 * t2 - b1 * t1, b6 * s1 - b0 * s3 + b4 * t3 - b5 * t2,
        b7 * s1 - b1 * s3 + b5 * t1 - b3 * t3, b8 * s1 - b2 * s3 + b3 * t2 - b4 * t1,
        b0 * s2 - b3 * s1 + b7 * t3 - b8 * t2, b1 * s2 - b4 * s1 + b8 * t1 - b6 * t3,
        b2 * s2 - b5 * s1 + b6 * t2 - b7 * t1)
    if not comm <= tol_abs:
        return None, max(res, comm * k)
    s1, s2, s3 = s if fs else (0.0, 0.0, 0.0)
    return np.array([c00, *(t if ft else (0.0, 0.0, 0.0)), s1, *fit[:3], s2, *fit[3:6],
                     s3, *fit[6:]]), res


def test_straight_line_special_normal_fit_is_bitwise_the_comprehension_form():
    # members at three scales, members moved 0.999 and 1.001 tol_abs off the
    # family, and members whose smaller skew part is below the fit's cut
    rng = np.random.default_rng(27)
    cases = []
    for scale in (1e-3, 1.0, 30.0):
        for _ in range(10):
            a = scale * sample_family("SpecialNormal", rng)
            e = rng.standard_normal((4, 4))
            tol_abs = DEFAULT_TOL * max(1.0, float(np.linalg.norm(a)))
            unit = _residual_per_unit(a, e, "SpecialNormal")
            cases += [a] + [a + (f * tol_abs / unit) * e for f in (0.999, 1.001)]
            for part in (np.s_[1:, 0], np.s_[0, 1:]):  # s or t near zero
                c = from_matrix(a).c
                c[part] *= 1e-13
                cases.append(HxHElement(c).to_matrix())
    accepted = 0
    for a in cases:
        c = from_matrix(a).c
        tol_abs = DEFAULT_TOL * max(1.0, frobenius(a))
        member, res = cls_mod._x_special_normal(a, c, tol_abs)
        ref_member, ref_res = _comprehension_x_special_normal(a, c, tol_abs)
        assert res == ref_res
        assert (member is None) == (ref_member is None)
        if member is not None:
            accepted += 1
            assert member.tobytes() == ref_member.tobytes()
    assert 0 < accepted < len(cases)
