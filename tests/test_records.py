"""The record classes against the frozen dataclasses they replace.

Every record class is declared on `smalllin.Record` with
@dataclass(init=False, repr=False, eq=False), so the decorator only
registers its fields; each is compared here with a twin that
`dataclasses.make_dataclass(..., frozen=True)` builds from the same fields.
"""

import copy
import dataclasses
import functools
import importlib
import inspect
import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import structexp
from structexp import (COVERING_ALGEBRAS, CoveringAlgebra, ExpResult, MinimalPolySkew, classify,
                       expm_auto, minimal_poly_skewT, svd3, sym_eig3)
from structexp import cli, covering, expm_structured, smalllin
from structexp.hxh import J4
from structexp.smalllin import Record

from conftest import COMPLEX_FAMILY_TAGS, REAL_FAMILY_TAGS, sample_family


def _records():
    """Two instances of each of the 19 record classes, by class."""
    rng = np.random.default_rng(32)
    found = {}
    for tag in REAL_FAMILY_TAGS + COMPLEX_FAMILY_TAGS:
        for _ in range(2):
            for inst in classify(sample_family(tag, rng)):
                group = found.setdefault(type(inst), [])
                if len(group) < 2:
                    group.append(inst)
    s = np.array([[2.0, 1.0, 0.0], [1.0, -3.0, 0.5], [0.0, 0.5, 1.0]])
    found[ExpResult] = [expm_auto(J4, verify=True), expm_auto(J4, method="oracle")]
    found[MinimalPolySkew] = [minimal_poly_skewT((1, 2, 3), (0, 0, 1)),
                              minimal_poly_skewT((0, 0, 0), (0, 0, 0))]
    found[smalllin.SymEig3] = [sym_eig3(s), sym_eig3(np.eye(3))]
    found[smalllin.Svd3] = [svd3(s), svd3(np.eye(3))]
    found[CoveringAlgebra] = [COVERING_ALGEBRAS["so3"], COVERING_ALGEBRAS["p4r"]]
    found[cli.MatrixDocument] = [cli.parse_document("1 2 3 4"),
                                 cli.MatrixDocument(2, "real", (1.0, 0.0, 0.0, 1.0), "eye")]
    return found


RECORDS = _records()


@functools.cache
def _twin(cls):
    """A frozen dataclass of the same name and fields as the record class
    `cls`: identity == and hash for CoveringAlgebra, slots for ExpResult."""
    specs = [(f.name, f.type, dataclasses.field(default=f.default,
                                                default_factory=f.default_factory,
                                                init=f.init, repr=f.repr, compare=f.compare))
             for f in dataclasses.fields(cls)]
    namespace = {k: v for k, v in vars(cls).items() if k == "__post_init__"}
    return dataclasses.make_dataclass(cls.__name__, specs, namespace=namespace, frozen=True,
                                      eq=cls is not CoveringAlgebra, slots=cls is ExpResult)


def _args(inst):
    return [getattr(inst, name) for name in type(inst).__match_args__]


def _outcome(fn):
    """What fn() returns, or the type of what it raises."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def _pairs(cls):
    """(record, twin) for each instance of `cls`, built from the same arguments."""
    twin_cls = _twin(cls)
    return [(inst, twin_cls(*_args(inst))) for inst in RECORDS[cls]]


def test_every_record_class_is_on_the_base():
    # the package exports the function classify under the module's name
    modules = (importlib.import_module("structexp.classify"), cli, covering,
               expm_structured, smalllin)
    classes = {cls for module in modules
               for _, cls in inspect.getmembers(module, inspect.isclass)
               if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__}
    assert classes == set(RECORDS) and len(classes) == 19
    assert all(issubclass(cls, Record) for cls in classes)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_matches_its_frozen_dataclass_twin(cls):
    twin_cls = _twin(cls)
    pairs = _pairs(cls)
    assert cls.__match_args__ == twin_cls.__match_args__
    assert ([(f.name, f.type, f.init, f.repr, f.compare, f.default) for f in
             dataclasses.fields(cls)]
            == [(f.name, f.type, f.init, f.repr, f.compare, f.default) for f in
                dataclasses.fields(twin_cls)])
    for (rec, twin), (other, other_twin) in zip(pairs, pairs[::-1]):
        assert repr(rec) == repr(twin)
        assert repr(dataclasses.astuple(rec)) == repr(dataclasses.astuple(twin))
        same = cls(*_args(rec))
        same_twin = twin_cls(*_args(twin))
        for x, y, tx, ty in [(rec, same, twin, same_twin), (rec, other, twin, other_twin),
                             (rec, rec, twin, twin)]:
            assert _outcome(lambda: x == y) == _outcome(lambda: tx == ty)
            assert _outcome(lambda: x != y) == _outcome(lambda: tx != ty)
        if cls is CoveringAlgebra:
            assert hash(rec) == object.__hash__(rec) and hash(twin) == object.__hash__(twin)
        else:
            assert _outcome(lambda: hash(rec)) == _outcome(lambda: hash(twin))
        assert (rec == twin) is False
        first = cls.__match_args__[0]
        changes = {first: getattr(other, first)}
        assert (repr(dataclasses.replace(rec, **changes))
                == repr(dataclasses.replace(twin, **changes)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_refuses_what_its_twin_refuses(cls):
    for rec, twin in _pairs(cls):
        args = _args(rec)
        # a slotted frozen dataclass takes a name that is no field for one
        # of a subclass, and raises TypeError, so only the record sees it
        for name, targets in [(cls.__match_args__[-1], (rec, twin)), ("unknown", (rec,))]:
            for x in targets:
                with pytest.raises(dataclasses.FrozenInstanceError) as assigned:
                    setattr(x, name, 0)
                with pytest.raises(dataclasses.FrozenInstanceError) as deleted:
                    delattr(x, name)
                assert str(assigned.value) == f"cannot assign to field {name!r}"
                assert str(deleted.value) == f"cannot delete field {name!r}"
        for build in (type(rec), type(twin)):
            for call in (lambda: build(), lambda: build(*args, 0),
                         lambda: build(*args, unknown=0),
                         lambda: build(*args, **{cls.__match_args__[0]: args[0]})):
                with pytest.raises(TypeError):
                    call()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_round_trips_through_pickle_and_copy(cls):
    for rec, twin in _pairs(cls):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(rec, protocol))
            assert type(back) is cls and repr(back) == repr(rec)
        # the record's copy against a twin built from copies of its
        # arguments, so that only the record's copy state is under test
        for clone in (copy.copy, copy.deepcopy):
            back, twin_back = clone(rec), type(twin)(*clone(_args(twin)))
            assert type(back) is cls and repr(back) == repr(twin_back)
            if cls is not CoveringAlgebra:
                assert _outcome(lambda: back == rec) == _outcome(lambda: twin_back == twin)


def test_keyword_and_default_arguments_fill_the_fields_in_order():
    doc = cli.MatrixDocument(kind="real", entries=(1.0,) * 4, n=2)
    assert doc == cli.MatrixDocument(2, "real", (1.0,) * 4, None)
    assert vars(doc) == {"n": 2, "kind": "real", "entries": (1.0,) * 4, "label": None}
    result = ExpResult(J4, "oracle")
    assert result.verified is None and not hasattr(result, "__dict__")


def test_import_compiles_no_generated_code():
    # dataclasses hands each method it generates to exec as source text,
    # while importlib runs each module as a code object: with every record
    # on the base, importing the package and its CLI compiles no source; and
    # json is imported only by the functions that read or write JSON
    probe = textwrap.dedent("""
        import builtins
        import numpy
        compiled = []
        real_exec = builtins.exec
        def counting_exec(source, *args, **kwargs):
            if isinstance(source, str):
                compiled.append(source)
            return real_exec(source, *args, **kwargs)
        builtins.exec = counting_exec
        import structexp, structexp.cli
        builtins.exec = real_exec
        import sys
        print(structexp.__file__)
        print(len(compiled))
        print('json' not in sys.modules)
    """)
    src = os.path.dirname(os.path.dirname(structexp.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True).stdout.split()
    assert out == [structexp.__file__, "0", "True"]
