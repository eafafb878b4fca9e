"""Seeded input generators owned by the benchmark (numpy only).

Family members are built from coefficient tables in the quaternion tensor
basis, which is rebuilt here from the Hamilton structure constants, so the
inputs do not depend on any code of the library under test. Each sampler
draws the parameters the acceptance samplers draw (uniform in [-1.7, 1.7],
complex parts in [-1.2, 1.2]); the whole matrix is then scaled by a factor
log-uniform in [0.1, 10].

Kinds are dealt from shuffled decks, so every block of a deck holds each kind
in its fixed share and two seeds differ only in order and values.
"""

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

REAL_FAMILY_TAGS = (
    ("SkewSymmetric", "Perskewsymmetric", "SkewHamiltonian")
    + tuple(f"Lie{k}" for k in range(1, 9))
    + tuple(f"Jordan{k}" for k in range(1, 6))
    + ("HamSymPersym", "SymToeplitzTridiag", "SymToeplitzS13Zero",
       "SpecialNormal", "BisymmetricRS", "SymmetricGeneral")
)
FAMILY_TAGS = REAL_FAMILY_TAGS + ("ComplexSO4", "ComplexPerskew")

SCALE_MIN, SCALE_MAX = 0.1, 10.0

# e_a e_b = _SGN[a, b] e_{_IDX[a, b]} over (1, i, j, k)
_IDX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_SGN = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, -1, -1, 1], [1, 1, -1, -1]],
                dtype=float)
_STRUCT = np.zeros((4, 4, 4))
for _a in range(4):
    for _b in range(4):
        _STRUCT[_a, _b, _IDX[_a, _b]] = _SGN[_a, _b]
_LEFT = np.einsum("acm->amc", _STRUCT)
_RIGHT = np.einsum("b,cbm->bmc", np.array([1.0, -1.0, -1.0, -1.0]), _STRUCT)
# BASIS[a, b] is the matrix of x -> e_a x conj(e_b)
BASIS = np.einsum("amn,bnc->abmc", _LEFT, _RIGHT)
R4 = BASIS[2, 1].copy()

# symmetric form e_x (x) e_y of each Lie class; skew form of each Jordan class
LIE_FORMS = {1: (1, 1), 2: (2, 2), 3: (3, 3), 4: (3, 1),
             5: (3, 2), 6: (1, 2), 7: (1, 3), 8: (2, 3)}
JORDAN_FORMS = {1: ("right", 3), 2: ("right", 1), 3: ("left", 1),
                4: ("left", 2), 5: ("left", 3)}

# defining form M of each covering algebra {A : A^T M + M A = 0}
COVERING_FORMS = {
    "so3": np.eye(3), "p3r": np.eye(3)[::-1].copy(),
    "so21r": np.diag([1.0, 1.0, -1.0]),
    "so4": np.eye(4), "p4r": np.eye(4)[::-1].copy(),
    "so22r": np.diag([1.0, 1.0, -1.0, -1.0]),
}


def to_matrix(c: np.ndarray) -> np.ndarray:
    return np.einsum("ab,abmc->mc", c, BASIS)


def _u(rng, n=None):
    return rng.uniform(-1.7, 1.7, n)


def _cu(rng, n=None):
    return rng.uniform(-1.2, 1.2, n) + 1j * rng.uniform(-1.2, 1.2, n)


def _two_groups(c, x, y, draw, rng):
    c[0, y] = draw(rng)
    c[x, 0] = draw(rng)
    p = draw(rng, 3)
    p[x - 1] = 0.0
    q = draw(rng, 3)
    q[y - 1] = 0.0
    c[1:, y] += p
    c[x, 1:] += q


def family_member(tag: str, rng) -> np.ndarray:
    """A random member of the family at the acceptance samplers' range."""
    c = np.zeros((4, 4), dtype=complex if tag.startswith("Complex") else float)
    if tag in ("SkewSymmetric", "ComplexSO4"):
        draw = _cu if tag == "ComplexSO4" else _u
        c[1:, 0] = draw(rng, 3)
        c[0, 1:] = draw(rng, 3)
    elif tag in ("Perskewsymmetric", "ComplexPerskew"):
        _two_groups(c, 2, 1, _cu if tag == "ComplexPerskew" else _u, rng)
    elif tag == "SkewHamiltonian":
        c[0, 0] = _u(rng)
        c[1:, 2] = _u(rng, 3)
        c[0, 1] = _u(rng)
        c[0, 3] = _u(rng)
    elif tag.startswith("Lie"):
        x, y = LIE_FORMS[int(tag[3:])]
        _two_groups(c, x, y, _u, rng)
    elif tag.startswith("Jordan"):
        side, w = JORDAN_FORMS[int(tag[6:])]
        m1, m2 = [m for m in (1, 2, 3) if m != w]
        c[0, 0] = _u(rng)
        if side == "left":
            c[m1, 0], c[m2, 0] = _u(rng, 2)
            c[w, 1:] = _u(rng, 3)
        else:
            c[0, m1], c[0, m2] = _u(rng, 2)
            c[1:, w] = _u(rng, 3)
    elif tag == "HamSymPersym":
        c[2, 1], c[1, 3], c[3, 3] = _u(rng, 3)
    elif tag == "SymToeplitzTridiag":
        a, b = _u(rng, 2)
        c[0, 0] = a
        c[2, 1] = c[1, 2] = b / 2.0
        c[3, 2] = b
    elif tag == "SymToeplitzS13Zero":
        c[0, 0], b, c[1, 2] = _u(rng, 3)
        c[2, 1] = c[3, 2] = b
    elif tag == "SpecialNormal":
        c[0, 0] = _u(rng)
        s = _u(rng, 3)
        while np.linalg.norm(s) < 0.3:
            s = _u(rng, 3)
        t = _u(rng, 3)
        # the family needs a clear gap between the two skew norms
        while (np.linalg.norm(t) < 0.3
               or abs(np.linalg.norm(s) - np.linalg.norm(t))
               <= 0.15 * (np.linalg.norm(s) + np.linalg.norm(t))):
            t = _u(rng, 3)
        c[1:, 0] = s
        c[0, 1:] = t
        c[1:, 1:] = _u(rng) * np.outer(s / np.linalg.norm(s),
                                       t / np.linalg.norm(t))
    elif tag == "BisymmetricRS":
        c[0, 0], c[2, 1] = _u(rng, 2)
        ab = _u(rng, 2)
        gd = _u(rng, 2)
        c[1, 2], c[1, 3] = ab[0] * gd[0], ab[0] * gd[1]
        c[3, 2], c[3, 3] = ab[1] * gd[0], ab[1] * gd[1]
        return R4 @ to_matrix(c)
    elif tag == "SymmetricGeneral":
        c[0, 0] = _u(rng)
        c[1:, 1:] = _u(rng, (3, 3))
    else:
        raise ValueError(f"no sampler for {tag}")
    return to_matrix(c)


def covering_member(name: str, rng) -> np.ndarray:
    """A = M K with K skew: then A^T M + M A = 0, since M = M^T and M^2 = I."""
    form = COVERING_FORMS[name]
    k = rng.standard_normal(form.shape)
    return form @ (k - k.T)


def log_scale(rng) -> float:
    return float(np.exp(rng.uniform(np.log(SCALE_MIN), np.log(SCALE_MAX))))


def deal(rng, deck) -> Iterator:
    """Endless shuffled passes over the deck."""
    deck = list(deck)
    while True:
        for i in rng.permutation(len(deck)):
            yield deck[i]


@dataclass(frozen=True)
class MatrixInput:
    kind: str            # family tag, or "dense"
    a: np.ndarray
    valid: bool = True   # every matrix input has a frozen reference


def matrix_stream(rng, dense: bool) -> Iterator[MatrixInput]:
    """auto_mixed (dense=True): all 24 families in equal shares plus one
    unstructured dense matrix in 25. forced_family: the families only."""
    deck = FAMILY_TAGS + (("dense",) if dense else ())
    for kind in deal(rng, deck):
        if kind == "dense":
            a = rng.standard_normal((4, 4))
        else:
            a = family_member(kind, rng)
        yield MatrixInput(kind, log_scale(rng) * a)


def format_plain(a: np.ndarray) -> str:
    """structexp's plaintext matrix format, with round-trip exact floats."""
    flat = a.ravel()
    if np.iscomplexobj(a):
        vals = np.empty(2 * flat.size)
        vals[0::2] = flat.real
        vals[1::2] = flat.imag
        return "complex " + " ".join(repr(float(v)) for v in vals)
    return " ".join(repr(float(v)) for v in flat)


@dataclass(frozen=True)
class DocInput:
    kind: str                    # family tag, "covering:<name>", "general2", or invalid:*
    text: str
    a: Optional[np.ndarray]      # the matrix the text encodes, None if unparseable
    valid: bool
    route: Optional[str] = None  # the verify route a valid document must list


# one of each invalid kind per 150 documents: about one in 50
_VALID_DOC_KINDS = ("structured", "covering", "general2")
_INVALID_DOC_KINDS = ("invalid:nonfinite", "invalid:overflow", "invalid:bad_count")
_DOC_DECK = _VALID_DOC_KINDS * 49 + _INVALID_DOC_KINDS


def _document(kind: str, rng) -> DocInput:
    if kind == "structured":
        tag = FAMILY_TAGS[rng.integers(len(FAMILY_TAGS))]
        a = log_scale(rng) * family_member(tag, rng)
        return DocInput(tag, format_plain(a), a, True, tag)
    if kind == "covering":
        route = f"covering:{tuple(COVERING_FORMS)[rng.integers(len(COVERING_FORMS))]}"
        a = log_scale(rng) * covering_member(route.split(":")[1], rng)
        return DocInput(route, format_plain(a), a, True, route)
    if kind == "general2":
        a = log_scale(rng) * rng.standard_normal((2, 2))
        return DocInput(kind, format_plain(a), a, True, "expm2")
    a = family_member(REAL_FAMILY_TAGS[rng.integers(len(REAL_FAMILY_TAGS))], rng)
    if kind == "invalid:bad_count":
        return DocInput(kind, format_plain(a.ravel()[:15]), None, False)
    if kind == "invalid:nonfinite":
        a.flat[rng.integers(16)] = np.nan if rng.integers(2) else np.inf
    else:
        # exp(800) is beyond the float64 range
        a = 800.0 * np.eye(int(rng.integers(2, 5)))
    return DocInput(kind, format_plain(a), a, False)


def doc_stream(rng) -> Iterator[DocInput]:
    """verify_cli: a third scaled structured 4x4 members, a third members of
    the six covering algebras, a third general 2x2 matrices, and about one
    document in 50 that verify must reject."""
    for kind in deal(rng, _DOC_DECK):
        yield _document(kind, rng)
