"""Property tests over every 4x4 entry point at the edges of float64:
family members from 1e-320 to 1e300 (norms that overflow included), NaN and
inf in any slot, subnormal entries, and imaginary parts up to 1e-15 |A|.

Each call gives a documented outcome, and a value it returns is within
1e-10 of expm_series wherever the series returns one.  pytest turns every
RuntimeWarning into a failure (pyproject.toml), so none may be emitted.

Accuracy for a matrix that an earlier family accepts without holding it
(below norm 1 the acceptance band tol * max(1, |A|) is absolute) is a
separate open item, so such routes are held to their outcome only.
"""

import math
import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structexp import (classify, expm_auto, expm_series, extract_special_normal,
                       extract_symmetric_rep, rel_error)
from structexp.cli import run
from structexp.expm_structured import ForcedClassMismatch

from conftest import COMPLEX_FAMILY_TAGS, REAL_FAMILY_TAGS, sample_family

ALL_TAGS = REAL_FAMILY_TAGS + COMPLEX_FAMILY_TAGS
SYMMETRIC_TAGS = {"HamSymPersym", "SymToeplitzTridiag", "SymToeplitzS13Zero",
                  "BisymmetricRS", "SymmetricGeneral"}
# the largest Frobenius norm whose square is finite
MAX_NORM = math.sqrt(np.finfo(float).max)


def _norm(a) -> float:
    """|A|_F, without overflow or underflow."""
    return math.hypot(*np.abs(a).ravel().tolist())


def _series(a):
    """expm_series(A), or None outside its domain (the documented refusals:
    OverflowError for a non-finite input or result, ValueError past its
    scaling cap)."""
    try:
        return expm_series(a)
    except (OverflowError, ValueError):
        return None


def _close(value, a, ref) -> bool:
    """Within 1e-10 of the series, relative.  Past |A| = 1000 the bound
    grows with |A|: rounding A itself moves exp(A) by about eps |A|, which
    the series' 2^s squarings amplify alike."""
    return rel_error(value, ref) <= max(1e-10, 1e-13 * _norm(a))


def _cli_verify(a):
    """(exit code, {route: residual}) of `structexp verify --all-routes`."""
    if np.iscomplexobj(a):
        text = "complex " + " ".join(f"{z.real!r} {z.imag!r}" for z in a.ravel().tolist())
    else:
        text = " ".join(repr(v) for v in a.ravel().tolist())
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run(["verify", text, "--all-routes"])
    rows = [line.split() for line in out.getvalue().splitlines()[1:-1]]
    return code, {name: float(res) for name, res in rows}


def _check_member(tag, a):
    """Every entry point on A, a member of family `tag` (possibly scaled
    past the point where its norm overflows)."""
    norm = _norm(a)
    admitted = norm < MAX_NORM
    # a complex member whose imaginary part is at most 1e-14 max(1, |A|) is
    # read as real (as_real_if_possible): the real families take it
    listed = admitted and (tag not in COMPLEX_FAMILY_TAGS
                           or np.abs(a.imag).max() > 1e-14 * max(1.0, norm))
    ref = _series(a)

    tags = [inst.tag for inst in classify(a)]
    if listed:
        assert tag in tags
    if not admitted:
        assert tags == []

    # a closed form raises OverflowError only where exp(A) itself is beyond
    # the float64 range, which the series then reports too
    overflows = ref is None
    try:
        result = expm_auto(a)
    except OverflowError:
        assert overflows
    except ValueError:
        assert ref is None and not admitted
    else:
        assert np.isfinite(result.value).all()
        own = result.route in (tag, "oracle") or norm >= 1.0
        if ref is not None and own:
            assert _close(result.value, a, ref), result.route

    for method in ALL_TAGS:
        try:
            value = expm_auto(a, method=method).value
        except ForcedClassMismatch as exc:
            assert method != tag or not admitted, exc
            assert admitted or exc.residual == math.inf
        except OverflowError:
            assert admitted and overflows
        else:
            assert np.isfinite(value).all()
            if method == tag and ref is not None:
                assert _close(value, a, ref), method

    inst = extract_special_normal(a)
    if tag == "SpecialNormal" and admitted:
        assert inst is not None
    if not admitted:
        assert inst is None

    if tag in SYMMETRIC_TAGS and admitted:
        assert len(extract_symmetric_rep(a)) == 4
    elif not admitted or norm >= 1.0:
        # below norm 1 the symmetry test is absolute too
        with pytest.raises(ValueError):
            extract_symmetric_rep(a)

    code, rows = _cli_verify(a)
    if ref is None:
        assert code in (2, 4)
    else:
        assert code in (0, 1), rows
        if listed:
            assert rows[tag] <= max(1e-10, 1e-13 * norm), rows


@settings(max_examples=150, deadline=None)
@given(tag=st.sampled_from(ALL_TAGS), seed=st.integers(0, 2 ** 32 - 1),
       exponent=st.floats(-320.0, 300.0), imag=st.floats(0.0, 1e-15))
def test_members_at_every_scale(tag, seed, exponent, imag):
    rng = np.random.default_rng(seed)
    a = sample_family(tag, rng) * 10.0 ** exponent
    if imag and not np.iscomplexobj(a):
        # an imaginary part this small is dropped: A stays in its real family
        a = a + 1j * (imag * _norm(a)) * rng.uniform(-1.0, 1.0, (4, 4))
    _check_member(tag, a)


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_members_on_a_grid_of_scales(tag):
    # the ends of the range, and 300 to 1e3, where exp(A) itself overflows
    rng = np.random.default_rng(71)
    for scale in (1e-320, 1e-200, 1e-160, 1e-10, 1.0, 30.0, 300.0, 1e3, 1e5,
                  1e150, 1e160, 1e300):
        _check_member(tag, sample_family(tag, rng) * scale)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), slot=st.integers(0, 15),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       exponent=st.floats(-320.0, 300.0), cplx=st.booleans())
def test_non_finite_entry_is_in_no_family(seed, slot, bad, exponent, cplx):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4)) * 10.0 ** exponent
    if cplx:
        a = a + 1j * rng.standard_normal((4, 4))
    a.flat[slot] = bad
    assert classify(a) == []
    with pytest.raises(OverflowError):
        expm_auto(a)
    for method in ALL_TAGS:
        with pytest.raises(ForcedClassMismatch) as info:
            expm_auto(a, method=method)
        assert info.value.residual == math.inf
    assert extract_special_normal(a) is None
    with pytest.raises(ValueError, match="non-finite"):
        extract_symmetric_rep(a)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.floats(-323.0, -300.0))
def test_subnormal_entries(seed, exponent):
    # entries at or below the subnormal range: every family's residual is
    # far inside its band, which is absolute there, so each route answers
    # I plus a projection of A, up to the rounding of its arithmetic
    a = np.random.default_rng(seed).standard_normal((4, 4)) * 10.0 ** exponent
    bound = 2.0 * _norm(a) + 1e-15
    tags = [inst.tag for inst in classify(a)]
    assert tags[0] == "SkewSymmetric"
    for method in ["auto"] + ALL_TAGS:
        try:
            value = expm_auto(a, method=method).value
        except ForcedClassMismatch:
            # a draw whose skew norms |s| = |t| rounded to equal (both 0,
            # say) is not SpecialNormal
            assert method == "SpecialNormal"
        else:
            assert np.abs(value - np.eye(4)).max() <= bound
    code, rows = _cli_verify(a)
    assert code == 0 and all(res <= bound for res in rows.values())


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e300, 1e307])
def test_dense_matrix_whose_norm_overflows(scale):
    a = np.random.default_rng(72).standard_normal((4, 4)) * scale
    assert classify(a) == []
    with pytest.raises(ValueError, match="cap"):
        expm_auto(a)
    for method in ALL_TAGS:
        with pytest.raises(ForcedClassMismatch):
            expm_auto(a, method=method)
    assert extract_special_normal(a) is None
    with pytest.raises(ValueError):
        extract_symmetric_rep(a)
    assert _cli_verify(a)[0] == 2
