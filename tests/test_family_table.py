"""The family table: every entry's parameter patterns are consistent, the
commuting groups derived from each entry's support fit its closed form, and
random parameters survive instance -> reconstruct -> forced route.  Extending
the table is safe exactly when these hold."""

import itertools
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import structexp
from structexp.classify import _FORCED, FAMILIES, SkewSymmetric, _forced, instance
from structexp.expm_structured import (_PLANS, ClosedFormDefect, _exp_grouped,
                                       _exp_member, _group_plan, exp_structured_class)
from structexp.hxh import _BASIS_ROWS, HxHElement, basis_matrix, from_matrix, hxh_mul
from structexp.oracle import expm_series, rel_error
from structexp.quat import Quaternion, quat_exp
from structexp.smalllin import frobenius

from conftest import COMPLEX_FAMILY_TAGS, sample_family

# the one entry without a group plan: its closed form sums the joint sign
# patterns of the involutions svd3 rotates out of each matrix
GROUPLESS = {"SymmetricGeneral"}
GROUPED = [tag for tag in FAMILIES if tag not in GROUPLESS]


def _groups(tag):
    """The derived groups of family `tag`, as sets of (a, b) slots."""
    return [{divmod(i, 4) for i, _ in group} for group in _PLANS[tag][0]]


def _patterns(fam):
    return [pat for pats in fam.params.values() for pat in pats]


def _support(fam):
    return {slot for pat in _patterns(fam) for slot in pat}


def _product(s, t):
    return hxh_mul(HxHElement.basis(*s), HxHElement.basis(*t)).c


def test_table_has_22_entries():
    assert len(FAMILIES) == 22
    assert set(FAMILIES) - set(_PLANS) == GROUPLESS


@pytest.mark.parametrize("tag", list(FAMILIES))
def test_parameter_patterns_are_disjoint(tag):
    seen = set()
    for pat in _patterns(FAMILIES[tag]):
        assert not set(pat) & seen, tag
        seen |= set(pat)


@pytest.mark.parametrize("tag", GROUPED)
def test_groups_partition_the_support_minus_scalar(tag):
    fam = FAMILIES[tag]
    union = set()
    for group in _groups(tag):
        assert group, tag
        assert not group & union, tag
        union |= group
    assert (0, 0) not in union
    assert union == _support(fam) - {(0, 0)}


@pytest.mark.parametrize("tag", GROUPED)
def test_groups_anticommute_inside_and_commute_across(tag):
    groups = _groups(tag)
    for group in groups:
        for s, t in itertools.combinations(sorted(group), 2):
            assert np.array_equal(_product(s, t), -_product(t, s)), (tag, s, t)
    for g, h in itertools.combinations(groups, 2):
        for s, t in itertools.product(g, h):
            assert np.array_equal(_product(s, t), _product(t, s)), (tag, s, t)


@pytest.mark.parametrize("tag", list(FAMILIES))
def test_random_parameters_round_trip(tag):
    fam = FAMILIES[tag]
    rng = np.random.default_rng(list(FAMILIES).index(tag))
    n = fam.basis.shape[1]
    held = ~fam.basis.any(axis=0)       # vector components held at zero
    for _ in range(25):
        theta = rng.uniform(-1.7, 1.7, n)
        if tag in COMPLEX_FAMILY_TAGS:
            theta = theta + 1j * rng.uniform(-1.2, 1.2, n)
        theta[held] = 0.0
        inst = fam.instance(fam.basis @ theta)
        # the record's scalars are of the member's kind
        assert np.iscomplexobj(np.hstack(astuple(inst))) == (tag in COMPLEX_FAMILY_TAGS), tag
        a = inst.reconstruct()
        tol_abs = 1e-9 * max(1.0, float(np.linalg.norm(a)))
        member = _forced(a, 1e-9, _FORCED[tag])[0]
        res = 2.0 * np.linalg.norm(fam.projector @ from_matrix(a).c.reshape(16))
        assert member is not None and res <= tol_abs, tag
        back = instance(tag, member)
        assert type(back) is type(inst) and back.tag == tag
        assert np.allclose(np.hstack(astuple(back)), np.hstack(astuple(inst)),
                           rtol=0.0, atol=1e-14), tag


@pytest.mark.parametrize("tag", GROUPED)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(1e-3, 30.0))
def test_mu_from_coefficients_is_the_group_square(tag, seed, scale):
    a = scale * sample_family(tag, np.random.default_rng(seed))
    member = _forced(a, 1e-9, _FORCED[tag])[0]
    assert member is not None
    groups, _ = _PLANS[tag]
    for group in groups:
        g = sum(member[i] * _BASIS_ROWS[i] for i, _ in group).reshape(4, 4)
        mu = sum(sq * member[i] ** 2 for i, sq in group)
        off = np.linalg.norm(g @ g - mu * np.eye(4)) / 2.0
        assert off <= 1e-10 * (1.0 + np.linalg.norm(g) ** 2 / 4.0), (tag, mu)
    ref = expm_series((member @ _BASIS_ROWS).reshape(4, 4))
    value = _exp_member(tag, member, 2.0 * frobenius(member), 0.0)
    assert np.linalg.norm(value - ref) <= 1e-10 * np.linalg.norm(ref)


def test_skew_symmetric_groups_agree_with_quaternion_pair_form():
    # p(x)1 and 1(x)q commute, so exp is exp(p)(x)exp(q), two unit quaternions
    rng = np.random.default_rng(7)
    for _ in range(25):
        p, q = rng.uniform(-1.7, 1.7, 3), rng.uniform(-1.7, 1.7, 3)
        pair = HxHElement.from_pair(quat_exp(Quaternion.pure(p)).components,
                                    quat_exp(Quaternion.pure(q)).components)
        inst = SkewSymmetric(tuple(p), tuple(q))
        assert np.linalg.norm(exp_structured_class(inst) - pair.to_matrix()) < 1e-13


def test_symmetric_general_support_is_a_defect():
    # its pure block is one part under anticommutation, i(x)i anticommuting
    # with i(x)j and j(x)i, but i(x)i and j(x)j commute, so (i(x)i +
    # j(x)j)^2 = 2 + 2 k(x)k is not a multiple of the identity
    group = basis_matrix("i", "i") + basis_matrix("j", "j")
    assert np.count_nonzero(group @ group - np.trace(group @ group) / 4 * np.eye(4))
    with pytest.raises(ClosedFormDefect, match="not at most two scalar squares"):
        _group_plan(_support(FAMILIES["SymmetricGeneral"]))


def test_plan_of_two_commuting_slots():
    # i(x)1 and 1(x)i commute: two groups, the one holding the lowest slot
    # (flat 1) last, each squaring to -1, and (i(x)1)(1(x)i) = i(x)i
    assert _group_plan([(0, 0), (1, 0), (0, 1)]) == (
        (((4, -1.0),), ((1, -1.0),)), ((4, 1, 5, 1.0),))
    # i(x)1 and j(x)1 anticommute: one group, and no cross table
    assert _group_plan([(2, 0), (1, 0)]) == ((((4, -1.0), (8, -1.0)),), ())


def test_plan_of_the_scalar_slot_alone():
    # no group: exp(c00 1(x)1) = e^c00 I, also at 700, where e^c00 is applied
    # in two halves
    plan = _group_plan([(0, 0)])
    assert plan == ((), ())
    for c00 in (0.0, -1.5, 0.7, 700.0):
        member = np.zeros(16)
        member[0] = c00
        assert rel_error(_exp_grouped(plan, member), np.exp(c00) * np.eye(4)) <= 1e-15


@pytest.mark.parametrize("tag", GROUPED)
def test_cross_table_is_the_basis_product(tag):
    groups, cross = _PLANS[tag]
    assert len(cross) == (len(groups[0]) * len(groups[1]) if len(groups) == 2 else 0)
    basis = _BASIS_ROWS.reshape(16, 4, 4)
    for i, j, k, sign in cross:
        assert np.array_equal(basis[i] @ basis[j], sign * basis[k]), (i, j, k, sign)


def test_three_groups_are_a_defect():
    # i(x)1, 1(x)i and i(x)i commute pairwise: three groups, and the form
    # multiplies at most two
    with pytest.raises(ClosedFormDefect, match="at most two"):
        _group_plan([(1, 0), (0, 1), (1, 1)])


def test_table_family_without_a_plan_fails_the_import():
    # a table family with SymmetricGeneral's support but no hand-written
    # form: building the plans, as at import, raises ClosedFormDefect
    code = """if True:
        import importlib
        import structexp.expm_structured as es
        from structexp.classify import FAMILIES, Family, SymmetricGeneral
        FAMILIES["Symmetric2"] = Family(SymmetricGeneral,
                                        FAMILIES["SymmetricGeneral"].params)
        try:
            importlib.reload(es)
        except Exception as exc:
            print(type(exc).__name__)
        """
    src = str(Path(structexp.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["ClosedFormDefect"]
