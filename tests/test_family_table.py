"""The family table: every entry's parameter patterns and commuting groups
are consistent, and random parameters survive instance -> reconstruct ->
extractor.  Extending the table is safe exactly when these hold."""

import itertools
from dataclasses import astuple

import numpy as np
import pytest

from structexp.classify import EXTRACTORS, FAMILIES, SkewSymmetric
from structexp.expm_structured import (ClosedFormDefect, _exp_groups,
                                       exp_structured_class)
from structexp.hxh import HxHElement, basis_matrix, from_matrix, hxh_mul
from structexp.quat import Quaternion, quat_exp

# the one entry without fixed groups: its closed form sums the joint sign
# patterns of the involutions svd3 rotates out of each matrix
GROUPLESS = {"SymmetricGeneral"}
GROUPED = [tag for tag in FAMILIES if tag not in GROUPLESS]


def _patterns(fam):
    return [pat for pats in fam.params.values() for pat in pats]


def _support(fam):
    return {slot for pat in _patterns(fam) for slot in pat}


def _product(s, t):
    return hxh_mul(HxHElement.basis(*s), HxHElement.basis(*t)).c


def test_table_has_22_entries():
    assert len(FAMILIES) == 22
    assert {tag for tag, fam in FAMILIES.items() if not fam.groups} == GROUPLESS


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
    for group in fam.groups:
        assert group, tag
        assert not group & union, tag
        union |= group
    assert (0, 0) not in union
    assert union == _support(fam) - {(0, 0)}


@pytest.mark.parametrize("tag", GROUPED)
def test_groups_anticommute_inside_and_commute_across(tag):
    fam = FAMILIES[tag]
    for group in fam.groups:
        for s, t in itertools.combinations(sorted(group), 2):
            assert np.array_equal(_product(s, t), -_product(t, s)), (tag, s, t)
    for g, h in itertools.combinations(fam.groups, 2):
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
        if fam.complex_scalars:
            theta = theta + 1j * rng.uniform(-1.2, 1.2, n)
        theta[held] = 0.0
        inst = fam.instance(theta)
        a = inst.reconstruct()
        tol_abs = 1e-9 * max(1.0, float(np.linalg.norm(a)))
        back, res = EXTRACTORS[tag](a, from_matrix(a), 1e-9, tol_abs)
        assert back is not None and res <= tol_abs, tag
        assert type(back) is type(inst) and back.tag == tag
        assert np.allclose(np.hstack(astuple(back)), np.hstack(astuple(inst)),
                           rtol=0.0, atol=1e-14), tag


def test_skew_symmetric_groups_agree_with_quaternion_pair_form():
    # p(x)1 and 1(x)q commute, so exp is exp(p)(x)exp(q), two unit quaternions
    rng = np.random.default_rng(7)
    for _ in range(25):
        p, q = rng.uniform(-1.7, 1.7, 3), rng.uniform(-1.7, 1.7, 3)
        pair = HxHElement.from_pair(quat_exp(Quaternion.pure(p)).components,
                                    quat_exp(Quaternion.pure(q)).components)
        inst = SkewSymmetric(tuple(p), tuple(q))
        assert np.linalg.norm(exp_structured_class(inst) - pair.to_matrix()) < 1e-13


def test_group_with_non_scalar_square_is_a_defect():
    # (i(x)1 + 1(x)i)^2 = -2 + 2 i(x)i is not a multiple of the identity
    group = basis_matrix("i", "1") + basis_matrix("1", "i")
    with pytest.raises(ClosedFormDefect):
        _exp_groups(0.0, [group])
