"""Quaternion arithmetic and the quaternion exponential.

The scalar/pure split q = w + (x i + y j + z k) drives everything downstream:
for a pure quaternion p the exponential is exp(p) = cos|p| + (sin|p|/|p|) p,
and exp(w + p) = exp(w) exp(p) because scalars commute with everything.
"""

from __future__ import annotations

import math

_SERIES_CUTOFF = 1e-4


def sinc(t: float) -> float:
    """sin(t)/t, switching to a 6-term Taylor series for |t| < 1e-4."""
    if abs(t) < _SERIES_CUTOFF:
        t2 = t * t
        return (1.0 - t2 / 6.0 + t2**2 / 120.0 - t2**3 / 5040.0
                + t2**4 / 362880.0 - t2**5 / 39916800.0)
    return math.sin(t) / t


class Quaternion:
    """A real quaternion w + x i + y j + z k.

    Plain value type: no implicit normalization anywhere.  Multiplication is
    the Hamilton product (i j = k, j k = i, k i = j, i i = j j = k k = -1).
    """

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0.0, x=0.0, y=0.0, z=0.0):
        self.w = float(w)
        self.x = float(x)
        self.y = float(y)
        self.z = float(z)

    @classmethod
    def pure(cls, v) -> "Quaternion":
        """Build a pure quaternion from a length-3 sequence (x, y, z)."""
        x, y, z = v
        return cls(0.0, x, y, z)

    @property
    def components(self):
        return (self.w, self.x, self.y, self.z)

    @property
    def vector(self):
        """The pure part as a tuple (x, y, z)."""
        return (self.x, self.y, self.z)

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def vector_norm(self) -> float:
        return math.sqrt(self.x**2 + self.y**2 + self.z**2)

    def __add__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return quat_mul(self, other)
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __repr__(self):
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"

    def __eq__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self.components == other.components


def quat_mul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product a b."""
    return Quaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


def quat_exp(q: Quaternion) -> Quaternion:
    """exp(q) = exp(w) (cos t + (sin t / t) (x i + y j + z k)), t = |pure part|.

    Exact on pure inputs up to rounding: the result then has unit norm.
    """
    t = q.vector_norm()
    s = math.exp(q.w)
    f = s * sinc(t)
    return Quaternion(s * math.cos(t), f * q.x, f * q.y, f * q.z)
