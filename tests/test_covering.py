"""Tests for the covering-homomorphism exponentials."""

import dataclasses
import io
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structexp import (
    COVERING_ALGEBRAS,
    DEFAULT_TOL,
    NotInAlgebra,
    expm_auto,
    expm_series,
    exp_via_covering,
    psi,
    psi_inverse,
    rel_error,
)
from structexp import covering
from structexp.classify import _admit, _walk
from structexp.cli import run
from structexp.covering import (_SU2, P3R, P4R, SIGMA_X, SIGMA_Y, SIGMA_Z, SO3, SO4,
                                SO21R, SO22R, CoveringAlgebra, _lift)
from structexp.expm_structured import _routes
from structexp.smalllin import expm2

from conftest import _refuse_everywhere, covering_member, rodrigues, u17


def _skew3(w):
    return np.array([
        [0.0, -w[2], w[1]],
        [w[2], 0.0, -w[0]],
        [-w[1], w[0], 0.0],
    ])


def _upstairs(alg, rng):
    return sum(u17(rng) * p for p in alg.params)


def test_registry_names():
    assert set(COVERING_ALGEBRAS) == {"so3", "so4", "p4r", "so22r", "p3r", "so21r"}
    for name, alg in COVERING_ALGEBRAS.items():
        assert alg.name == name
        assert alg.form.shape == (alg.dim, alg.dim)


def test_zero_maps_to_identity():
    for alg in COVERING_ALGEBRAS.values():
        g, h = psi_inverse(alg, np.zeros((alg.dim, alg.dim)))
        assert np.linalg.norm(g) < 1e-12
        assert (h is None) == (not alg.two_factor)
        if h is not None:
            assert np.linalg.norm(h) < 1e-12
        e = exp_via_covering(alg, np.zeros((alg.dim, alg.dim)))
        assert np.linalg.norm(e - np.eye(alg.dim)) < 1e-14


def test_so3_z_generator():
    a = _skew3((0.0, 0.0, 1.3))
    g, h = psi_inverse(SO3, a)
    assert h is None
    assert np.linalg.norm(psi(SO3, g) - a) < 1e-13


def test_psi_inverse_round_trip():
    rng = np.random.default_rng(81)
    for alg in COVERING_ALGEBRAS.values():
        for _ in range(50):
            a = covering_member(alg, rng)
            g, h = psi_inverse(alg, a)
            assert abs(np.trace(g)) < 1e-12
            if alg.two_factor:
                assert abs(np.trace(h)) < 1e-12
            back = psi(alg, g, h)
            assert np.linalg.norm(back - a) < 1e-12 * (1.0 + np.linalg.norm(a))


def test_user_built_algebra_inverts_like_the_built_in():
    # a copy rebuilds every table from the six defining fields
    rng = np.random.default_rng(82)
    for alg in COVERING_ALGEBRAS.values():
        own = dataclasses.replace(alg)
        assert own is not alg and own.psi_matrix is not alg.psi_matrix
        a = covering_member(alg, rng)
        for got, want in zip(psi_inverse(own, a), psi_inverse(alg, a)):
            if want is None:
                assert got is None
            else:
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
        assert rel_error(exp_via_covering(own, a), exp_via_covering(alg, a)) <= 1e-14


# so3 over the cyclically permuted basis: new data, not a registry copy
_SO3_YZX = dict(name="so3yzx", dim=3, basis=(SIGMA_Y, SIGMA_Z, SIGMA_X), params=_SU2,
                two_factor=False, form=np.eye(3))


def test_algebra_built_from_new_data_exponentiates():
    alg = CoveringAlgebra(**_SO3_YZX)
    rng = np.random.default_rng(93)
    for _ in range(50):
        a = _skew3(u17(rng, 3))
        assert rel_error(exp_via_covering(alg, a), expm_series(a)) <= 1e-12
        g, h = psi_inverse(alg, a)
        assert h is None
        assert np.linalg.norm(psi(alg, g) - a) <= 1e-12 * (1.0 + np.linalg.norm(a))
        # the permuted basis lifts A to another g than the registry's so3
        assert np.linalg.norm(g - psi_inverse(SO3, a)[0]) > 1e-3


def test_construction_takes_neither_psi_nor_coords(monkeypatch):
    # every table is read off the einsums of the defining data
    for fn in (covering.psi, covering._coords):
        _refuse_everywhere(monkeypatch, fn)
    for data in [_SO3_YZX] + [{f.name: getattr(alg, f.name) for f in dataclasses.fields(alg)
                               if f.init} for alg in COVERING_ALGEBRAS.values()]:
        alg = CoveringAlgebra(**data)
        a = covering_member(alg, np.random.default_rng(94))
        assert rel_error(exp_via_covering(alg, a), expm_series(a)) <= 1e-12, alg.name


def test_derived_arrays_are_read_only():
    for alg in [CoveringAlgebra(**_SO3_YZX), *COVERING_ALGEBRAS.values()]:
        derived = [f.name for f in dataclasses.fields(alg) if not f.init]
        assert derived
        for attr in derived:
            value = getattr(alg, attr)
            if isinstance(value, tuple):
                assert all(isinstance(row, tuple) for row in value), attr
                continue
            with pytest.raises(ValueError):
                value.flat[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            alg.psi_matrix = None


def test_an_algebra_built_outside_the_registry_builds_its_route_once(monkeypatch):
    calls = []
    kernel = covering._kernel

    def counting(algebras):
        calls.append(algebras)
        return kernel(algebras)

    monkeypatch.setattr(covering, "_kernel", counting)
    rng = np.random.default_rng(83)
    for alg in (SO4, SO3):
        own = dataclasses.replace(alg)
        members = [covering_member(alg, rng) for _ in range(100)]
        calls.clear()
        for a in members:
            got = psi_inverse(own, a)
        assert len(calls) <= 1, alg.name
        a = members[-1]
        for x, y in zip(got, psi_inverse(alg, a)):
            assert (x is None and y is None) or x.tobytes() == y.tobytes(), alg.name
        assert exp_via_covering(own, a).tobytes() == exp_via_covering(alg, a).tobytes()
        assert len(calls) <= 1, alg.name
    # the cache holds its algebras weakly: a dropped copy is dropped from it
    n = len(covering._LIFTS)
    calls.clear()
    del own
    assert len(covering._LIFTS) == n - 1


def test_algebras_compare_and_hash_by_identity():
    # array fields have no truth value, so fieldwise == would raise
    copy = dataclasses.replace(SO3)
    assert copy != SO3 and SO3 == SO3
    assert len({copy, *COVERING_ALGEBRAS.values()}) == len(COVERING_ALGEBRAS) + 1


def test_exp_matches_oracle():
    rng = np.random.default_rng(82)
    for alg in COVERING_ALGEBRAS.values():
        for _ in range(50):
            a = covering_member(alg, rng)
            assert rel_error(exp_via_covering(alg, a), expm_series(a)) < 1e-10, alg.name


def test_so3_against_rodrigues():
    rng = np.random.default_rng(83)
    for _ in range(100):
        k = _skew3(u17(rng, 3))
        got = exp_via_covering(SO3, k)
        assert np.linalg.norm(got - rodrigues(k)) < 1e-12


def test_covering_is_two_to_one():
    # adding a full turn around the same axis flips the upstairs pair
    # but must not move the downstairs rotation
    w = np.array([0.5, -1.1, 0.8])
    th = np.linalg.norm(w)
    w_plus = w * (1.0 + 2.0 * np.pi / th)
    e1 = exp_via_covering(SO3, _skew3(w))
    e2 = exp_via_covering(SO3, _skew3(w_plus))
    assert np.linalg.norm(e1 - e2) < 1e-10


def test_exponential_is_one_parameter_group():
    rng = np.random.default_rng(84)
    for alg in COVERING_ALGEBRAS.values():
        a = covering_member(alg, rng)
        e1 = exp_via_covering(alg, a)
        e2 = exp_via_covering(alg, 2.0 * a)
        assert np.linalg.norm(e1 @ e1 - e2) < 1e-10 * (1.0 + np.linalg.norm(e2))


def test_group_preserves_form():
    rng = np.random.default_rng(85)
    for alg in COVERING_ALGEBRAS.values():
        for _ in range(25):
            g = exp_via_covering(alg, covering_member(alg, rng))
            err = np.linalg.norm(g.T @ alg.form @ g - alg.form)
            assert err < 1e-11 * (1.0 + np.linalg.norm(g) ** 2), alg.name


def test_psi_is_a_lie_homomorphism():
    rng = np.random.default_rng(86)
    for alg in COVERING_ALGEBRAS.values():
        g1, g2 = _upstairs(alg, rng), _upstairs(alg, rng)
        if alg.two_factor:
            h1, h2 = _upstairs(alg, rng), _upstairs(alg, rng)
        else:
            h1 = h2 = None
        m1 = psi(alg, g1, h1)
        m2 = psi(alg, g2, h2)
        gb = g1 @ g2 - g2 @ g1
        hb = None if h1 is None else h1 @ h2 - h2 @ h1
        lhs = psi(alg, gb, hb)
        rhs = m1 @ m2 - m2 @ m1
        assert np.linalg.norm(lhs - rhs) < 1e-12 * (1.0 + np.linalg.norm(rhs)), alg.name


def test_psi_image_satisfies_defining_relation():
    rng = np.random.default_rng(87)
    for alg in COVERING_ALGEBRAS.values():
        g = _upstairs(alg, rng)
        h = _upstairs(alg, rng) if alg.two_factor else None
        x = psi(alg, g, h)
        assert np.linalg.norm(x.T @ alg.form + alg.form @ x) < 1e-12


def _trace_gram(alg):
    n = len(alg.basis)
    return np.array([[np.trace(alg.basis[i] @ alg.basis[j]).real
                      for j in range(n)] for i in range(n)])


def _det_polarization_gram(alg):
    n = len(alg.basis)
    def q(x):
        return float(np.linalg.det(x).real)
    return np.array([[(q(alg.basis[i] + alg.basis[j]) - q(alg.basis[i])
                       - q(alg.basis[j])) / 2.0 for j in range(n)]
                     for i in range(n)])


def test_gram_matrices_realize_the_forms():
    # adjoint algebras carry the trace form on V
    assert np.allclose(_trace_gram(SO3), 2.0 * SO3.form)
    assert np.allclose(_trace_gram(P3R), P3R.form)
    assert np.allclose(_trace_gram(SO21R), 2.0 * SO21R.form)
    # two-factor algebras carry the determinant form on V
    assert np.allclose(_det_polarization_gram(SO4), SO4.form)
    assert np.allclose(_det_polarization_gram(P4R), P4R.form / 2.0)
    assert np.allclose(_det_polarization_gram(SO22R), SO22R.form)


def test_four_by_four_coverings_agree_with_structured_routes():
    rng = np.random.default_rng(88)
    family_of = {"so4": "SkewSymmetric", "p4r": "Perskewsymmetric", "so22r": "Lie1"}
    for name, tag in family_of.items():
        alg = COVERING_ALGEBRAS[name]
        for _ in range(25):
            a = covering_member(alg, rng)
            r = expm_auto(a)
            assert r.route == tag
            via_cover = exp_via_covering(alg, a)
            assert np.linalg.norm(via_cover - r.value) < 1e-10 * (1.0 + np.linalg.norm(r.value))


def test_rejects_non_members():
    rng = np.random.default_rng(89)
    dense = rng.uniform(-1.0, 1.0, (3, 3)) + np.eye(3)
    with pytest.raises(NotInAlgebra) as exc:
        psi_inverse(SO3, dense)
    assert exc.value.name == "so3"
    assert exc.value.residual > 1e-3
    with pytest.raises(NotInAlgebra):
        exp_via_covering(SO21R, np.diag([1.0, 1.0, 1.0]))
    with pytest.raises(NotInAlgebra):
        psi_inverse(SO3, 1j * _skew3((1.0, 0.0, 0.0)))
    with pytest.raises(ValueError):
        psi_inverse(SO4, np.zeros((3, 3)))


def test_member_of_the_form_outside_the_image_of_psi_is_refused():
    # so3's Pauli basis and su(2) with the form diag(1, 1, -1): psi maps
    # onto so(3), not onto so(2,1), so a member of so(2,1) that is not skew
    # passes the defining relation and is outside the image of psi
    alg = CoveringAlgebra("so3_21", 3, (SIGMA_X, SIGMA_Y, SIGMA_Z), _SU2, False,
                          np.diag([1.0, 1.0, -1.0]))
    a = alg.form @ _skew3((1.0, 2.0, 3.0))
    assert np.array_equal(a.T @ alg.form + alg.form @ a, np.zeros((3, 3)))
    for route in (exp_via_covering, psi_inverse):
        with pytest.raises(NotInAlgebra) as exc:
            route(alg, a)
        assert exc.value.name == "so3_21"
        assert exc.value.residual > 1.0


def test_complex_entries_with_zero_imag_accepted():
    a = _skew3((0.3, -0.2, 0.9)).astype(complex)
    g, _ = psi_inverse(SO3, a)
    assert np.linalg.norm(psi(SO3, g) - a.real) < 1e-12


def test_psi_matrix_is_psi_of_each_generator():
    # column m is vec(psi(generator m)), in the coordinates coord_pinv
    # solves for: built here from those coordinates directly, and bitwise
    # equal to the matrix each built-in algebra holds
    for alg in COVERING_ALGEBRAS.values():
        def coords(x):
            x = np.asarray(x, dtype=complex)
            return alg.coord_pinv @ np.concatenate([x.real.ravel(), x.imag.ravel()])

        zero = np.zeros((2, 2))
        pairs = [(g, zero if alg.two_factor else g) for g in alg.params]
        if alg.two_factor:
            pairs += [(zero, h) for h in alg.params]
        cols = [np.column_stack([coords(g @ v - v @ h) for v in alg.basis]) for g, h in pairs]
        want = np.column_stack([c.ravel() for c in cols])
        assert want.tobytes() == alg.psi_matrix.tobytes(), alg.name


@pytest.mark.parametrize("scale", [1e155, 1e160, 1e300])
def test_overflowing_norm_is_not_in_algebra(scale):
    # the bound tol max(1, |A|) is inf there, so every residual passed it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alg in COVERING_ALGEBRAS.values():
            member = covering_member(alg, np.random.default_rng(84))
            for a in (-scale * np.eye(alg.dim), scale * member,
                      member + 1j * scale * np.eye(alg.dim)):
                with pytest.raises(NotInAlgebra) as info:
                    psi_inverse(alg, a)
                assert info.value.residual == math.inf, alg.name


def test_overflowing_3x3_falls_through_to_the_oracle_cap():
    text = "-1e160 0 0  0 -1e160 0  0 0 -1e160"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert run(["expm", text]) == 2
        assert run(["expm", text, "--method", "covering:so3"]) == 3
    assert out.getvalue() == ""
    assert "cap" in err.getvalue()


def _exp_by_factors(alg, a):
    """exp(A) the long way: the two 2x2 factor exponentials, and the action
    of the pair on each basis matrix of V solved for its coordinates."""
    g, h = psi_inverse(alg, a)
    big_g = expm2(g)
    big_h_inv = expm2(-(g if h is None else h))
    cols = []
    for v in alg.basis:
        x = (big_g @ v @ big_h_inv).astype(complex)
        cols.append(alg.coord_pinv @ np.concatenate([x.real.ravel(), x.imag.ravel()]))
    return np.column_stack(cols)


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(COVERING_ALGEBRAS)),
       seed=st.integers(0, 2 ** 32 - 1), exponent=st.floats(-3.0, 2.0))
def test_bilinear_map_matches_the_factor_exponentials(name, seed, exponent):
    alg = COVERING_ALGEBRAS[name]
    member = covering_member(alg, np.random.default_rng(seed))
    a = member * (10.0 ** exponent / np.linalg.norm(member))
    assert rel_error(exp_via_covering(alg, a), _exp_by_factors(alg, a)) <= 1e-13


@pytest.mark.parametrize("alg", [P4R, SO22R], ids=lambda alg: alg.name)
def test_folded_growth_agrees_with_the_factor_product(alg):
    # the bilinear map folds the growth of both hyperbolic factors into one
    # exponent from smalllin._factors; at lifts of norm 140, below _SAFE_NORM,
    # where the map runs unchecked, it must still give the product of the
    # two factor exponentials
    rng = np.random.default_rng(85)
    for _ in range(20):
        member = covering_member(alg, rng)
        a = member * (140.0 / np.linalg.norm(alg.psi_pinv @ member.ravel()))
        assert rel_error(exp_via_covering(alg, a), _exp_by_factors(alg, a)) <= 1e-13


def _accepts(alg, a, tol):
    try:
        psi_inverse(alg, a, tol)
    except NotInAlgebra:
        return False
    return True


def _moved(alg, member, side, tol, rng):
    """member + t D with D exactly 1 from the algebra: every form has
    M = M^T = M^-1, so D = M S, S symmetric, is |S| from the algebra, half
    its defining-relation residual D^T M + M D = 2 S; t is side * tol *
    max(1, |A|), the one bound of every route, found by iteration."""
    s = rng.standard_normal((alg.dim, alg.dim))
    s = s + s.T
    off = alg.form @ s / np.linalg.norm(s)
    t = 0.0
    for _ in range(5):
        t = side * tol * max(1.0, np.linalg.norm(member + t * off))
    return member + t * off


@pytest.mark.parametrize("side", [1.0 - 1e-3, 1.0 + 1e-3])
@pytest.mark.parametrize("name", sorted(COVERING_ALGEBRAS))
def test_routes_list_the_algebras_psi_inverse_accepts(name, side):
    alg, tol = COVERING_ALGEBRAS[name], DEFAULT_TOL
    rng = np.random.default_rng(90)
    a = _moved(alg, covering_member(alg, rng), side, tol, rng)
    routes = [r for r, _ in _routes(a, tol, coverings=True) if r.startswith("covering:")]
    accepted = [f"covering:{b.name}" for b in COVERING_ALGEBRAS.values()
                if b.dim == alg.dim and _accepts(b, a, tol)]
    assert routes == accepted
    assert (f"covering:{name}" in routes) == (side < 1.0)


@pytest.mark.parametrize("name", sorted(COVERING_ALGEBRAS))
def test_refusal_residual_is_the_defining_relation_residual(name):
    # every built-in form is orthogonal and symmetric, so the residual of
    # the image of psi, the distance |A - P|_F to the algebra, is
    # |A^T M + M A|_F / 2: on dense matrices and on members moved to twice
    # the bound
    alg, tol = COVERING_ALGEBRAS[name], DEFAULT_TOL
    rng = np.random.default_rng(94)
    inputs = [scale * rng.standard_normal((alg.dim, alg.dim))
              for scale in (1e-3, 1e-1, 1.0, 10.0, 1e3) for _ in range(4)]
    inputs += [_moved(alg, covering_member(alg, rng, scale), 2.0, tol, rng)
               for scale in (1e-3, 1.0, 30.0, 1e3)]
    for a in inputs:
        relation = np.linalg.norm(a.T @ alg.form + alg.form @ a) / 2.0
        for route in (exp_via_covering, psi_inverse):
            with pytest.raises(NotInAlgebra) as exc:
                route(alg, a)
            assert abs(exc.value.residual - relation) <= 1e-12 * (1.0 + np.linalg.norm(a))


class _ConstructionFails(NotInAlgebra):
    def __init__(self, *args):
        raise AssertionError(f"NotInAlgebra{args} constructed")


def _lifts(a, tol):
    """(algebra name, x) of each covering route of the walk, with its lift."""
    a, _, tol_abs = _admit(a, tol, len(a))
    return [(route[len("covering:"):], x) for route, x in _walk(a, tol_abs, True)
            if route.startswith("covering:")]


@pytest.mark.parametrize("n", [3, 4])
def test_lifts_outside_every_algebra_construct_no_exception(n, monkeypatch):
    monkeypatch.setattr(covering, "NotInAlgebra", _ConstructionFails)
    rng = np.random.default_rng(91 + n)
    for _ in range(20):
        a = rng.standard_normal((n, n))
        assert _lifts(a, DEFAULT_TOL) == []
        assert not any(r.startswith("covering:")
                       for r, _ in _routes(a, DEFAULT_TOL, coverings=True))


@pytest.mark.parametrize("name", sorted(COVERING_ALGEBRAS))
def test_lifts_are_the_lifts_of_each_algebra(name):
    alg, tol = COVERING_ALGEBRAS[name], DEFAULT_TOL
    rng = np.random.default_rng(92)
    for scale in (1e-3, 1.0, 30.0):
        a = covering_member(alg, rng, scale)
        lifts = _lifts(a, tol)
        expected = []
        for other in COVERING_ALGEBRAS.values():
            if other.dim == alg.dim:
                try:
                    expected.append((other.name, _lift(other, a, tol)))
                except NotInAlgebra:
                    pass
        assert name in [n for n, _ in lifts]
        assert [n for n, _ in lifts] == [n for n, _ in expected]
        assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(lifts, expected))


@pytest.mark.parametrize("name", sorted(COVERING_ALGEBRAS))
def test_lifts_accept_what_lift_accepts_on_both_sides_of_the_bound(name):
    # members, and members moved to half and twice the bound: the
    # squared-norm test of the walk takes the algebras _lift takes
    alg, tol = COVERING_ALGEBRAS[name], DEFAULT_TOL
    rng = np.random.default_rng(93)
    sized = [b for b in COVERING_ALGEBRAS.values() if b.dim == alg.dim]
    for scale in (1e-3, 1.0, 30.0):
        for side in (0.0, 0.5, 2.0):
            a = _moved(alg, covering_member(alg, rng, scale), side, tol, rng)
            lifts = [b for b, _ in _lifts(a, tol)]
            assert lifts == [b.name for b in sized if _accepts(b, a, tol)]
            assert (name in lifts) == (side < 1.0)


def _p4r_member_times_200():
    # exp of this member overflows: expm_series raises OverflowError on it
    a = 200.0 * covering_member(P4R, np.random.default_rng(0))
    return " ".join(repr(v) for v in a.ravel().tolist())


@pytest.mark.parametrize("argv", [
    ["expm", "720 0 0 0 0 0 0 0 -720"],                # p3r, the default route
    ["expm", "0 0 720  0 0 0  720 0 0"],               # an so21r boost
    ["expm", "--method", "covering:p4r", _p4r_member_times_200()],
])
def test_overflowing_covering_exponential_exits_4(argv):
    # these printed inf or NaN with exit 0 while the covering map did not
    # check its result
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with redirect_stdout(out), redirect_stderr(err):
            assert run(argv) == 4
            assert run(["verify", argv[-1], "--all-routes"]) == 4
    assert out.getvalue() == ""
    assert "overflow" in err.getvalue()


def test_overflowing_covering_exponential_raises():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alg, a in ((P3R, np.diag([720.0, 0.0, -720.0])),
                       (SO21R, 720.0 * np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0],
                                                 [1.0, 0.0, 0.0]]))):
            with pytest.raises(OverflowError):
                expm_series(a)
            with pytest.raises(OverflowError):
                exp_via_covering(alg, a)
            # a member whose exponential is finite still gets it at |x| >= 150
            assert rel_error(exp_via_covering(alg, a / 2.0), expm_series(a / 2.0)) < 1e-12
