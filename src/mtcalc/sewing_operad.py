"""Sphere sewing combinatorics: elements, closed-formula sewing, oracle.

An arity-n element is a sphere with n positively oriented punctures carrying
scaling-type local coordinates (the last puncture sits at 0) and one
negatively oriented puncture at infinity whose coordinate is determined by a
single translation parameter.  Sewing is implemented twice: by the closed
formula, and by an independent Moebius-composition oracle that glues the
charts through w -> -1/w and re-solves the canonical normalization.

All arithmetic is generic over the scalar type: complex floats, or exact
Gaussian rationals (`GaussRat`) for the tolerance-free mode, whose squared
radii (`_Abs2`) are compared by cross-multiplying integers.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import gcd, sqrt
from typing import NamedTuple

import numpy as np

from .report import Report

__all__ = [
    "GaussRat",
    "PuncturedSphere",
    "SewingError",
    "identity_sphere",
    "vacuum_sphere",
    "rescaling_sphere",
    "sew",
    "geometric_sew_oracle",
    "is_sewable",
    "permute",
    "insertion_permutation",
    "verify_operad_axioms",
    "random_sphere",
]

SEW_MARGIN = 1e-6
# random elements: the scale of a float number's normal draw, and the draws
# a randomized check makes before it gives up on a sewable sample
SPREAD = 4.0
MAX_TRIES = 500
_LOW, _HIGH = np.tile([-8, 1, -8, 1], 16), np.tile([9, 5, 9, 5], 16)  # bounds of 16 exact numbers


class SewingError(ValueError):
    """Unsewable configuration, bad index, or degenerate normalization."""


# ---------------------------------------------------------------------------
# exact scalars


class GaussRat:
    """Gaussian rational (x + iy)/d: exact complex number over three ints.

    The form is canonical (d > 0 and gcd(x, y, d) = 1), so equal values have
    equal parts; ``re`` and ``im`` read the parts back as Fractions.
    """

    __slots__ = ("_x", "_y", "_d")

    def __new__(cls, re, im=0):
        re, im = Fraction(re), Fraction(im)
        return cls._make(re.numerator * im.denominator,
                         im.numerator * re.denominator,
                         re.denominator * im.denominator)

    @classmethod
    def _make(cls, x, y, d):
        """(x + iy)/d for d > 0, reduced by one gcd."""
        g = gcd(x, y, d)
        if g != 1:
            x, y, d = x // g, y // g, d // g
        out = _new(cls)
        _set_x(out, x)
        _set_y(out, y)
        _set_d(out, d)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"GaussRat is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GaussRat is immutable; cannot delete {name!r}")

    @property
    def re(self) -> Fraction:
        return Fraction(self._x, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._y, self._d)

    def __add__(self, o):
        x, y, d = (o._x, o._y, o._d) if o.__class__ is GaussRat else _parts(o)
        e = self._d
        return GaussRat._make(self._x * d + x * e, self._y * d + y * e, e * d)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat._make(-self._x, -self._y, self._d)

    def __sub__(self, o):
        x, y, d = (o._x, o._y, o._d) if o.__class__ is GaussRat else _parts(o)
        e = self._d
        return GaussRat._make(self._x * d - x * e, self._y * d - y * e, e * d)

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        x, y, d = (o._x, o._y, o._d) if o.__class__ is GaussRat else _parts(o)
        a, b = self._x, self._y
        return GaussRat._make(a * x - b * y, a * y + b * x, self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, o):
        # (a + ib)/e / ((x + iy)/d) = (a + ib)(x - iy) d / (e (x^2 + y^2))
        x, y, d = (o._x, o._y, o._d) if o.__class__ is GaussRat else _parts(o)
        n = x * x + y * y
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a, b = self._x, self._y
        return GaussRat._make((a * x + b * y) * d, (b * x - a * y) * d, self._d * n)

    def __rtruediv__(self, o):
        return GaussRat._make(*_parts(o)) / self

    def abs2(self) -> Fraction:
        return Fraction(self._x * self._x + self._y * self._y, self._d * self._d)

    def __abs__(self) -> float:
        return sqrt(self.abs2())

    def __bool__(self):
        return bool(self._x) or bool(self._y)

    def __eq__(self, o):
        try:
            x, y, d = (o._x, o._y, o._d) if o.__class__ is GaussRat else _parts(o)
        except TypeError:
            return NotImplemented
        return self._x == x and self._y == y and self._d == d

    def __hash__(self):
        # a real value hashes like the Fraction (and int) it equals
        if self._y == 0:
            return hash(Fraction(self._x, self._d))
        return hash((self._x, self._y, self._d))

    def __complex__(self):
        # int true division is correctly rounded, as Fraction.__float__ is
        return complex(self._x / self._d, self._y / self._d)

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __reduce__(self):
        # pickle and copy rebuild through the constructor: setattr refuses
        return GaussRat, (self.re, self.im)


def _parts(x):
    """Canonical (x, y, d) of an int or a Fraction; floats are refused."""
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    if isinstance(x, complex):
        raise TypeError("cannot mix floats into exact arithmetic")
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussRat")


class _Abs2:
    """|x|^2 = n/d of a ``GaussRat``, compared by cross-multiplying (``a < b`` as
    ``b > a``); a class, as numpy would unpack a tuple into an object column."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, n, d):
        self.numerator, self.denominator = n, d

    def __mul__(self, o):
        return _Abs2(self.numerator * o.numerator, self.denominator * o.denominator)

    def __gt__(self, o):
        return self.numerator * o.denominator > o.numerator * self.denominator

    def __eq__(self, o):
        return self.numerator * o.denominator == o.numerator * self.denominator

    def __float__(self):  # correctly rounded, as Fraction.__float__ is
        return self.numerator / self.denominator


def _abs2(x):
    """|x|^2: a float, or for a ``GaussRat`` an ``_Abs2``."""
    if x.__class__ is not complex:
        if x.__class__ is GaussRat:
            return _Abs2(x._x * x._x + x._y * x._y, x._d * x._d)
        x = complex(x)
    return x.real * x.real + x.imag * x.imag


def _zero_like(x):
    """The zero of x's scalar type; for a column, a column of zeros."""
    if x.__class__ is not complex:
        if isinstance(x, GaussRat):
            return _ZERO
        if isinstance(x, np.ndarray):
            return np.full(x.shape, _zero_like(x[0]), dtype=object)
    return 0j


# ---------------------------------------------------------------------------
# elements


class PuncturedSphere:
    """Arity-n sewing element, immutable.

    ``z`` holds the first n-1 puncture positions (the n-th is at 0), ``a``
    the translation parameter of the coordinate at infinity, ``scales`` the
    n local scaling factors, and ``positions`` all n finite puncture
    positions, the implicit last one included.  Equality and hash are over
    (z, a, scales).
    """

    __slots__ = ("z", "a", "scales", "positions")

    def __init__(self, z, a, scales):
        z, scales = tuple(z), tuple(scales)
        n = len(scales)
        if len(z) != max(n - 1, 0):
            raise SewingError("puncture list does not match the arity")
        zero = _zero_like(a)
        if n == 0 and a != zero:
            raise SewingError("the arity-0 element has zero infinity parameter")
        pos = z + (zero,) if n else ()
        for p in z:
            if not p:
                raise SewingError("punctures must be nonzero")
        for k, p in enumerate(pos):
            for q in pos[k + 1:]:
                if p == q:
                    raise SewingError("punctures must be pairwise distinct")
        for s in scales:
            if not s:
                raise SewingError("scalings must be nonzero")
        _set_z(self, z)
        _set_a(self, a)
        _set_scales(self, scales)
        _set_positions(self, pos)

    def __setattr__(self, name, value):
        raise AttributeError(f"PuncturedSphere is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PuncturedSphere is immutable; cannot delete {name!r}")

    def __eq__(self, o):
        if o.__class__ is not self.__class__:
            return NotImplemented
        return (self.z, self.a, self.scales) == (o.z, o.a, o.scales)

    def __hash__(self):
        return hash((self.z, self.a, self.scales))

    def __repr__(self):
        return f"PuncturedSphere(z={self.z!r}, a={self.a!r}, scales={self.scales!r})"

    def __reduce__(self):
        # pickle and copy rebuild through the constructor: setattr refuses
        return PuncturedSphere, (self.z, self.a, self.scales)

    @property
    def arity(self) -> int:
        return len(self.scales)

    def is_exact(self) -> bool:
        return isinstance(self.a, GaussRat)


# ``GaussRat._make`` and ``PuncturedSphere.__init__`` set slots by descriptor
_new = object.__new__
_set_x, _set_y, _set_d, _set_z, _set_a, _set_scales, _set_positions = (
    cls.__dict__[k].__set__ for cls in (GaussRat, PuncturedSphere) for k in cls.__slots__)
_ZERO = GaussRat(0)


def vacuum_sphere(exact: bool = False) -> PuncturedSphere:
    return PuncturedSphere((), _ZERO if exact else 0j, ())


def identity_sphere(exact: bool = False) -> PuncturedSphere:
    return rescaling_sphere(GaussRat(1) if exact else 1 + 0j)


def rescaling_sphere(c) -> PuncturedSphere:
    """The arity-1 element of scaling c, exact when c is a ``GaussRat``."""
    return PuncturedSphere(*_rescaling_parts(c))


# ---------------------------------------------------------------------------
# sewability


def _sew_bounds(P: PuncturedSphere, i: int, Q: PuncturedSphere):
    """(inner, outer): the chart-radius window for sewing slot i of P."""
    # running extremes seeded by the first term, as ``max`` and ``min`` do
    b = Q.a
    qpos = Q.positions
    inner = _abs2(qpos[0] - b) if qpos else 0
    for xi in qpos[1:]:
        d = _abs2(xi - b)
        if d > inner:
            inner = d
    s2 = _abs2(P.scales[i - 1])
    ppos = P.positions
    zi = ppos[i - 1]
    outer = None
    for p in ppos[:i - 1] + ppos[i:]:
        cand = s2 * _abs2(p - zi)
        if outer is None or outer > cand:
            outer = cand
    return inner, outer  # squared radii


def is_sewable(P: PuncturedSphere, i: int, Q: PuncturedSphere) -> bool:
    """Disk-disjointness test for sewing the i-th slot of P with Q."""
    if not 1 <= i <= P.arity:
        raise SewingError(f"slot {i} out of range for arity {P.arity}")
    inner, outer = _sew_bounds(P, i, Q)
    return outer is None or _window(inner, outer, P.is_exact() and Q.is_exact())


def _window(inner, outer, exact: bool) -> bool:
    """Is there a chart radius between the squared radii inner and outer?"""
    if exact:
        return inner < outer
    inner, outer = float(inner), float(outer)
    if inner == 0.0:
        return outer > 0.0
    # scan a log-spaced grid of candidate radii with a safety margin
    lo, hi = sqrt(inner), sqrt(outer)
    start = lo * (1.0 + SEW_MARGIN)
    if not hi > start:
        return False
    # the grid's first point is exactly ``start``: where it fits, the grid
    # accepts.  Away from overflow and underflow it fits wherever the grid
    # runs upward; only a grid that runs downward (hi < start * (1+M)) needs
    # its other points
    if _radius_fits(start, inner, outer):
        return True
    grid = np.geomspace(start, hi / (1.0 + SEW_MARGIN), 9)
    return any(_radius_fits(r, inner, outer) for r in grid[1:])


def _radius_fits(r, inner, outer) -> bool:
    """Does the chart radius r clear both squared bounds with the margin?"""
    return inner < r * r * (1.0 - SEW_MARGIN) and r * r * (1.0 + SEW_MARGIN) < outer


# ---------------------------------------------------------------------------
# the closed sewing formula, over parts
#
# The parts of an element are its positions (z, once canonical), its infinity
# parameter a and its scalings.  A part is a scalar, or a column: an object
# array of scalars, one per lane.  The functions below use only arithmetic,
# tuple slicing and ``_gather``, so one statement serves one element and a
# column of lanes alike, each lane by the same scalar operation on the same
# operands.  They do not validate: the wrappers build a ``PuncturedSphere``,
# and the suite checks its columns with ``_invalid``.


def _canonical_parts(positions: tuple, a, scales: tuple) -> tuple:
    """(z, a, scales), translated so the last puncture is at 0; the arity-0
    case resets a.

    Two punctures that coincide before the translation still coincide after
    it (or one lands on 0), so validating its result also catches every
    coincidence of the inputs.
    """
    if not scales:
        return (), _zero_like(a), ()
    t = positions[-1]
    return tuple(p - t for p in positions[:-1]), a - t, scales


def _sew_parts(ppos, pa, pscales, i, qpos, qa, qscales) -> tuple:
    """(z, a, scales) of Q sewn into slot i of P, from their parts.

    The inserted punctures are the Q punctures translated by the parameter
    of Q's infinity coordinate and rescaled by the slot scaling; scalings
    multiply, and the whole configuration is re-translated into canonical
    form (a no-op unless the last slot is sewn).
    """
    s = pscales[i - 1]
    zi = ppos[i - 1]
    inserted = tuple((xi - qa) / s + zi for xi in qpos)
    scales = pscales[:i - 1] + tuple(s * t for t in qscales) + pscales[i:]
    return _canonical_parts(ppos[:i - 1] + inserted + ppos[i:], pa, scales)


def _gather(parts: tuple, inv) -> tuple:
    """(parts[inv[0]], parts[inv[1]], ...); for columns of slot numbers,
    lane l of the result's slot j is lane l of part inv[j][l]."""
    if inv and not isinstance(inv[0], int):
        stack = np.array(parts)
        lanes = np.arange(stack.shape[1])
        return tuple(stack[k, lanes] for k in inv)
    return tuple(parts[k] for k in inv)


def _permute_parts(positions, a, scales, inv) -> tuple:
    """(z, a, scales) with slot j holding slot inv[j] (0-based) of the parts."""
    return _canonical_parts(_gather(positions, inv), a, _gather(scales, inv))


def _vacuum_parts(positions, a, scales, i) -> tuple:
    """(z, a, scales) with slot i removed: the vacuum sewn into it."""
    return _canonical_parts(positions[:i - 1] + positions[i:], a,
                            scales[:i - 1] + scales[i:])


def _rescaling_parts(c) -> tuple:
    """(z, a, scales) of the arity-1 element of scaling c."""
    return (), _zero_like(c), (c,)


def _placed(z, a, scales) -> tuple:
    """(positions, a, scales): z with the last puncture at 0 appended."""
    return (z + (_zero_like(a),) if scales else ()), a, scales


def sew(P: PuncturedSphere, i: int, Q: PuncturedSphere,
        check: bool = True) -> PuncturedSphere:
    """Sew Q into the i-th slot of P (slots are 1-based), by ``_sew_parts``.

    Coincident punctures in the result raise SewingError.  ``check=False``
    skips the sewability test, for a triple already known to pass it.
    """
    if not 1 <= i <= P.arity:
        raise SewingError(f"slot {i} out of range for arity {P.arity}")
    if check and not is_sewable(P, i, Q):
        raise SewingError(f"slot {i} of the outer element cannot be sewn")
    return PuncturedSphere(*_sew_parts(P.positions, P.a, P.scales, i,
                                       Q.positions, Q.a, Q.scales))


# ---------------------------------------------------------------------------
# the geometric oracle


class _Moebius:
    """w -> (p*w + q) / (r*w + s), generic over the scalar type."""

    __slots__ = ("p", "q", "r", "s")

    def __init__(self, p, q, r, s):
        self.p, self.q, self.r, self.s = p, q, r, s

    def __matmul__(self, o: "_Moebius") -> "_Moebius":
        if self.p.__class__ is GaussRat:
            return _Moebius(_dot(self.p, o.p, self.q, o.r), _dot(self.p, o.q, self.q, o.s),
                            _dot(self.r, o.p, self.s, o.r), _dot(self.r, o.q, self.s, o.s))
        return _Moebius(self.p * o.p + self.q * o.r, self.p * o.q + self.q * o.s,
                        self.r * o.p + self.s * o.r, self.r * o.q + self.s * o.s)

    def inverse(self) -> "_Moebius":
        return _Moebius(self.s, -1 * self.q, -1 * self.r, self.p)

    def apply(self, x):
        den = self.r * x + self.s
        if not den:
            raise SewingError("Moebius map sends a puncture to infinity")
        return (self.p * x + self.q) / den

    def derivative(self, x):
        den = self.r * x + self.s
        return (self.p * self.s - self.q * self.r) / (den * den)


def _dot(a, b, c, e):
    """a*b + c*e over exact scalars, without the products that have a zero
    factor: affine charts have r = 0, the gluing map p = s = 0."""
    if a and b:
        return a * b + c * e if c and e else a * b
    return c * e if c and e else _ZERO


def _affine(c, p):
    """The local chart x -> c*(x - p)."""
    return _Moebius(c, -1 * c * p, _zero_like(c), c / c)


def _chart_infinity(a):
    one = a / a if a else _zero_like(a) + 1
    return _Moebius(_zero_like(a), -1 * one, one, -1 * a)


def geometric_sew_oracle(P: PuncturedSphere, i: int, Q: PuncturedSphere,
                         check: bool = True) -> PuncturedSphere:
    """Sewing by explicit chart gluing and canonical re-normalization.

    Models every local coordinate as a Moebius map, glues through
    w -> -1/w, then solves for the unique affine change of coordinate that
    restores the canonical form, and reads the data back off the charts.
    """
    if not 1 <= i <= P.arity:
        raise SewingError(f"slot {i} out of range for arity {P.arity}")
    if check and not is_sewable(P, i, Q):
        raise SewingError(f"slot {i} of the outer element cannot be sewn")
    exact = P.is_exact()
    one = GaussRat(1) if exact else 1 + 0j
    zero = _zero_like(one)

    ppos = P.positions
    phi_i = _affine(P.scales[i - 1], ppos[i - 1])
    psi_0 = _chart_infinity(Q.a)
    jmap = _Moebius(zero, -1 * one, one, zero)  # w -> -1/w
    glue = psi_0.inverse() @ jmap @ phi_i       # P-side x to Q-side y
    glue_inv = glue.inverse()

    punctures = []  # (position, chart) on the glued sphere, P coordinates
    for j, p in enumerate(ppos):
        if j != i - 1:
            punctures.append((p, _affine(P.scales[j], p)))
    qpos = Q.positions
    inserted = []
    for k, xi in enumerate(qpos):
        chart = _affine(Q.scales[k], xi) @ glue
        inserted.append((glue_inv.apply(xi), chart))
    head = punctures[: i - 1]
    tail = punctures[i - 1:]
    ordered = head + inserted + tail
    inf_chart = _chart_infinity(P.a)

    if not ordered:
        return vacuum_sphere(exact)

    # canonical normalization x = N(x'): translate the last puncture to 0,
    # then solve the leading coefficient of the infinity chart
    t = ordered[-1][0]
    translate = _Moebius(one, t, zero, one)
    shifted = inf_chart @ translate
    if shifted.p != zero and abs(shifted.p) > 1e-12 * abs(shifted.r):
        raise SewingError("degenerate normalization: infinity chart moved")
    alpha = -1 * shifted.q / shifted.r
    norm = translate @ _Moebius(alpha, zero, zero, one)
    norm_inv = norm.inverse()

    final_inf = inf_chart @ norm
    a_new = -1 * final_inf.s / final_inf.r
    positions, scales = [], []
    for p, chart in ordered:
        moved = chart @ norm
        pos = norm_inv.apply(p)
        positions.append(pos)
        scales.append(moved.derivative(pos))
    return PuncturedSphere(positions[:-1], a_new, scales)


# ---------------------------------------------------------------------------
# permutations


def permute(P: PuncturedSphere, sigma) -> PuncturedSphere:
    """Relabel punctures: slot j of the result is slot sigma^{-1}(j) of P.

    ``sigma`` is a tuple with sigma[j-1] = image of slot j, 1-based.  Moving
    the last slot re-normalizes through the canonical translation.
    """
    n = P.arity
    if sorted(sigma) != list(range(1, n + 1)):
        raise SewingError("not a permutation of the puncture slots")
    inv = [0] * n
    for j, img in enumerate(sigma):
        inv[img - 1] = j
    return PuncturedSphere(*_permute_parts(P.positions, P.a, P.scales, inv))


def insertion_permutation(sigma, i: int, inner_arity: int) -> tuple:
    """The permutation induced on the sewn element by relabeling the outer.

    With P of arity m and Q of arity n, permute(P, sigma) sewn at slot i
    equals sew(P, k, Q), k = sigma^{-1}(i), relabeled by the returned
    permutation of m+n-1 slots.  A slot of either side is named by the
    puncture it holds: P's puncture t is t - 1, Q's puncture j is m + j - 1.
    Slot s of sew(P, k, Q) goes to the place of its puncture on the other
    side.
    """
    m, k = len(sigma), sigma.index(i) + 1
    # P's punctures in the slot order of permute(P, sigma)
    permuted = sorted(range(m), key=sigma.__getitem__)
    sewn = permuted[:i - 1] + [*range(m, m + inner_arity)] + permuted[i:]
    place = [0] * (m + inner_arity)
    for p, puncture in enumerate(sewn, 1):
        place[puncture] = p
    # sew(P, k, Q) holds P's punctures before k, then Q's, then P's after k
    return tuple(place[:k - 1] + place[m:] + place[k:m])


# ---------------------------------------------------------------------------
# randomized verification suite


def random_sphere(rng, arity: int, exact: bool = False) -> PuncturedSphere:
    """Random element with well-separated punctures.

    An attempt draws its numbers in one call, in the order of one scalar
    draw per part (z, then a, then the scalings; real part first), so the
    random stream is that of the scalar draws.  A float number is what
    ``rng.normal(0, SPREAD)`` gives; an exact one is p/q + i r/s with
    p, r in [-8, 8] and q, s in [1, 4].
    """
    n = 2 * arity  # numbers per attempt
    if exact:  # an attempt's bounds; the vacuum still draws its infinity parameter
        k = 4 * max(n, 1)
        low, high = [b[:k] if k <= b.size else np.resize(b, k) for b in (_LOW, _HIGH)]
    if arity == 0:
        if exact:
            rng.integers(low, high)
        else:
            rng.standard_normal(2)
        return vacuum_sphere(exact)
    while True:
        if exact:
            v = rng.integers(low, high).tolist()
            nums = [GaussRat._make(p * s, r * q, q * s)
                    for p, q, r, s in zip(v[0::4], v[1::4], v[2::4], v[3::4])]
            a = nums[arity - 1]
            scales = tuple(nums[arity:])
        else:
            v = rng.standard_normal(2 * n).tolist()
            nums = [complex(0.0 + SPREAD * x, 0.0 + SPREAD * y)
                    for x, y in zip(v[0::2], v[1::2])]
            a = complex(0.0 + v[n - 2], 0.0 + v[n - 1])
            scales = tuple(c + 0.3 for c in nums[arity:])
        try:
            return PuncturedSphere(nums[:arity - 1], a, scales)
        except SewingError:
            continue


def _sample_sewable(rng, exact):
    for _ in range(MAX_TRIES):
        P = random_sphere(rng, int(rng.integers(1, 4)), exact)
        Q = random_sphere(rng, int(rng.integers(0, 4)), exact)
        i = int(rng.integers(1, P.arity + 1))
        if is_sewable(P, i, Q):
            return P, i, Q
    raise SewingError("failed to sample a sewable pair")


# The checks of a trial, in the order they run: the first error in (trial,
# step) order is the one raised.  Steps below 0, _ASSOC and _EQUIV draw from
# the trial's stream (stage 1); the others only feed a residual (stage 2).
_SAMPLE = -1
(_IDENTITY_LEFT, _FORMULA, _ORACLE, _VACUUM, _ASSOC, _EQUIV, _PERMUTATION,
 _RESCALING) = range(8)


class _Draws(NamedTuple):
    """What stage 1 keeps of each trial, in trial order.

    ``main``: the sampled (P, i, Q); ``assoc``: ((i, j), lhs, rhs) of the
    nested composition, or None if none was found; ``equiv``: (lhs, rhs) of
    the relabeled sews, or None; ``perms``: the 0-based permutations
    (sigma, tau) of P's slots.  A trial that raised keeps what it drew
    before, and ``failure`` is (trial, step, the exception).
    """

    main: list
    assoc: list
    equiv: list
    perms: list
    failure: tuple | None


def _associativity(rng, exact):
    """A nested composition on its own sewable triple, resampled until both
    composition orders exist: ((i, j), lhs, rhs), or None."""
    for _ in range(MAX_TRIES):
        Pa, ia, Qa = _sample_sewable(rng, exact)
        if Qa.arity == 0:
            continue
        Ra = random_sphere(rng, int(rng.integers(0, 3)), exact)
        j = ia + int(rng.integers(0, Qa.arity))
        k = j - ia + 1
        try:  # _sample_sewable has tested (Pa, ia, Qa)
            lhs = sew(sew(Pa, ia, Qa, check=False), j, Ra)
            rhs = sew(Pa, ia, sew(Qa, k, Ra))
        except SewingError:
            continue
        return (ia, j), lhs, rhs
    return None


def _equivariance(rng, exact):
    """Sewing before and after relabeling the outer element: (lhs, rhs), or None."""
    for _ in range(MAX_TRIES):
        Pe, ie, Qe = _sample_sewable(rng, exact)
        sigma = tuple(int(v) + 1 for v in rng.permutation(Pe.arity))
        try:
            lhs = sew(permute(Pe, sigma), ie, Qe)
            rhs = permute(
                sew(Pe, sigma.index(ie) + 1, Qe),
                insertion_permutation(sigma, ie, Qe.arity),
            )
        except SewingError:
            continue
        return lhs, rhs
    return None


def _draw(trials: int, seed: int, exact: bool) -> _Draws:
    """Stage 1: every draw of every trial, in the order of its stream.

    Per-trial seeds are split off the master seed, and a trial's draws depend
    only on its own sampling and retry decisions.
    """
    draws = _Draws([], [], [], [], None)
    seeds = np.random.SeedSequence(seed).spawn(trials)
    for tr in range(trials):
        rng = np.random.default_rng(seeds[tr])
        step = _SAMPLE
        try:
            P, i, Q = _sample_sewable(rng, exact)
            draws.main.append((P, i, Q))
            step = _ASSOC
            draws.assoc.append(_associativity(rng, exact))
            step = _EQUIV
            draws.equiv.append(_equivariance(rng, exact))
            draws.perms.append((rng.permutation(P.arity), rng.permutation(P.arity)))
        except Exception as exc:  # raised after stage 2's earlier errors
            return draws._replace(failure=(tr, step, exc))
    return draws


def _group(keys: list) -> dict:
    """{key: array of the places holding it}, keys in first-seen order."""
    places = {}
    for n, key in enumerate(keys):
        places.setdefault(key, []).append(n)
    return {key: np.array(ns) for key, ns in places.items()}


def _column(values) -> np.ndarray:
    """The scalars ``values`` as an object array."""
    values = list(values)
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _lanes(rows) -> tuple:
    """Equal-length rows of scalars as a tuple of columns."""
    return tuple(map(_column, zip(*rows)))


def _positions_of(spheres: list) -> tuple:
    """(positions, a, scales) of elements of one arity, as columns."""
    return (_lanes(S.positions for S in spheres), _column(S.a for S in spheres),
            _lanes(S.scales for S in spheres))


def _parts_of(spheres: list) -> tuple:
    """(z, a, scales) of elements of one arity, as columns."""
    pos, a, scales = _positions_of(spheres)
    return pos[:-1], a, scales


def _invalid(z, a, scales) -> np.ndarray:
    """The lanes of the columns (z, a, scales) that ``PuncturedSphere`` refuses."""
    bad = np.zeros(len(a), bool)
    if not scales:
        bad |= a != 0
    for k, p in enumerate(z):
        bad |= p == 0
        for q in z[k + 1:]:
            bad |= p == q
    for s in scales:
        bad |= s == 0
    return bad


def _distance(x: tuple, y: tuple, exact: bool) -> np.ndarray:
    """Per lane, the largest coordinate difference of the parts x and y; for
    exact parts 0.0 if equal, else 1.0."""
    (zx, ax, sx), (zy, ay, sy) = x, y
    if len(sx) != len(sy):
        return np.full(len(ax), np.inf)
    X, Y = np.array((ax, *zx, *sx)), np.array((ay, *zy, *sy))
    if exact:
        return (X != Y).any(axis=0).astype(float)
    # the running maximum seeded by the difference of a, as ``max`` takes
    # it: NaN if that is NaN, and no later NaN displaces a number
    d = np.abs(X - Y).astype(float)
    worst = np.fmax.reduce(d, axis=0)
    worst[np.isnan(d[0])] = np.nan
    return worst


def _residuals(draws: _Draws, exact: bool) -> dict:
    """Stage 2: {check id: residual per trial} of every check that only
    feeds a residual, the associativity and equivariance distances included.

    Lanes are grouped by shape; each group is one evaluation of the parts
    functions on columns, and its lanes are validated as ``sew`` and
    ``permute`` validate; the draws make every sew there sewable (the
    identity fits every slot that a sampled Q fits).  A flagged lane is
    replayed through the scalar route, which raises its error; the oracle
    runs once per trial.  Of all errors, stage 1's included, the first in
    (trial, step) order is raised.
    """
    main = draws.main
    shapes = [(len(P.scales), i, len(Q.scales)) for P, i, Q in main]
    ident = identity_sphere(exact)
    errors = [draws.failure] if draws.failure else []  # (trial, step, error or replay)
    pairs = []  # (check id, trials, parts, parts) to compare

    def check(step, trials, bad, replay):
        if bad.any():
            t = int(trials[np.argmax(bad)])
            errors.append((t, step, lambda: replay(t)))

    for (m, i, n), ts in _group(shapes).items():
        Ps = [main[t][0] for t in ts]
        P, ident_lanes = _positions_of(Ps), _positions_of([ident] * len(ts))
        canonical_P = (P[0][:-1],) + P[1:]
        # the identity has no other puncture: every lane is sewable into it
        left = _sew_parts(*ident_lanes, 1, *P)
        check(_IDENTITY_LEFT, ts, _invalid(*left), lambda t: sew(ident, 1, main[t][0]))
        pairs.append(("identity_left", ts, left, canonical_P))
        # the outer bound of slot i is P's own, and the identity's inner
        # bound is 0: every sampled slot takes the identity, giving P's parts
        right = _sew_parts(*P, i, *ident_lanes)
        pairs.append(("identity_right", ts, right, canonical_P))

        # _sample_sewable has tested (P, i, Q): no sewability check
        got = _sew_parts(*P, i, *_positions_of([main[t][2] for t in ts]))
        check(_FORMULA, ts, _invalid(*got), lambda t: sew(*main[t], check=False))
        oracles = []
        for t in ts:
            try:
                oracles.append(geometric_sew_oracle(*main[t], check=False))
            except Exception as exc:  # raised in (trial, step) order
                errors.append((int(t), _ORACLE, exc))
                break
        else:
            pairs.append(("formula_vs_oracle", ts, got, _parts_of(oracles)))
        if n == 0:
            want = _vacuum_parts(*P, i)
            check(_VACUUM, ts, _invalid(*want), lambda t: PuncturedSphere(*_vacuum_parts(
                main[t][0].positions, main[t][0].a, main[t][0].scales, main[t][1])))
            pairs.append(("vacuum_removal", ts, got, want))

    for name, found in (("associativity", draws.assoc), ("equivariance", draws.equiv)):
        done = np.array([t for t, f in enumerate(found) if f], int)
        sides = [found[t][-2:] for t in done]
        for ks in _group([(len(x.scales), len(y.scales)) for x, y in sides]).values():
            pairs.append((name, done[ks], _parts_of([sides[k][0] for k in ks]),
                          _parts_of([sides[k][1] for k in ks])))

    perms = draws.perms
    for m, ts in _group([m for m, _, _ in shapes[:len(perms)]]).items():
        sig, tau = (np.array([perms[t][k] for t in ts]).reshape(len(ts), m) for k in (0, 1))
        # slot j of permute(P, sigma) holds slot argsort(sigma)[j] of P
        comp, tau_inv, sig_inv = (tuple(np.argsort(x, axis=1).T) for x in
                                  (np.take_along_axis(sig, tau, 1), tau, sig))
        P = _positions_of([main[t][0] for t in ts])
        one_step = _permute_parts(*P, comp)
        half = _permute_parts(*P, tau_inv)
        two_step = _permute_parts(*_placed(*half), sig_inv)

        def replay(t):
            sig, tau = (tuple(int(v) + 1 for v in x) for x in perms[t])
            P = main[t][0]
            permute(P, tuple(sig[v - 1] for v in tau))
            permute(permute(P, tau), sig)

        check(_PERMUTATION, ts,
              _invalid(*one_step) | _invalid(*half) | _invalid(*two_step), replay)
        pairs.append(("permutation_action", ts, one_step, two_step))

    if perms:
        ts = np.arange(len(perms))
        c1 = _column(P.scales[0] for P, _, _ in main[:len(perms)])
        c2 = _column(Q.scales[0] if Q.arity else P.scales[-1] for P, _, Q in main[:len(perms)])
        # c1 and c2 are scalings of valid elements; the wanted element has
        # the scaling of the sewn one, so it is invalid where that is
        got = _sew_parts(*_placed(*_rescaling_parts(c1)), 1, *_placed(*_rescaling_parts(c2)))
        check(_RESCALING, ts, _invalid(*got),
              lambda t: sew(rescaling_sphere(c1[t]), 1, rescaling_sphere(c2[t])))
        pairs.append(("rescaling_group", ts, got, _rescaling_parts(c1 * c2)))

    if errors:
        _, _, first = min(errors, key=lambda e: e[:2])
        if isinstance(first, BaseException):
            raise first
        first()
        raise AssertionError("a flagged lane passed the scalar route")

    out = {}
    for name, ts, x, y in pairs:
        out.setdefault(name, np.empty(len(main)))[ts] = _distance(x, y, exact)
    return out


def verify_operad_axioms(trials: int = 100, seed: int = 42,
                         tol: float = 1e-10, exact: bool = False) -> Report:
    """Randomized identity, oracle-agreement, associativity, equivariance.

    Stage 1 (``_draw``) runs each trial's draws, with the sews and
    relabelings that decide them; stage 2 (``_residuals``) evaluates every
    other check across all trials at once.  Per-trial seeds are split off
    the master seed, so records depend only on (trials, seed, exact).
    """
    t0 = time.perf_counter()
    report = Report(suite="operad-check", tol=tol)
    draws = _draw(trials, seed, exact)
    res = {name: r.tolist() for name, r in _residuals(draws, exact).items()}
    slots = [(i, Q.arity) for _, i, Q in draws.main]
    assoc = [f and f[0] for f in draws.assoc]
    found = [f is not None for f in draws.equiv]
    del draws  # only the residuals and instances are written
    for tr, (i, n) in enumerate(slots):
        report.add("identity_left", (tr,), res["identity_left"][tr])
        report.add("identity_right", (tr,), res["identity_right"][tr])
        report.add("formula_vs_oracle", (tr, i), res["formula_vs_oracle"][tr])
        if n == 0:
            report.add("vacuum_removal", (tr, i), res["vacuum_removal"][tr])
        if assoc[tr]:
            report.add("associativity", (tr, *assoc[tr]), res["associativity"][tr])
        else:
            report.add("associativity", (tr,), float("inf"))
        report.add("equivariance", (tr,),
                   res["equivariance"][tr] if found[tr] else float("inf"))
        report.add("permutation_action", (tr,), res["permutation_action"][tr])
        report.add("rescaling_group", (tr,), res["rescaling_group"][tr])
    report.wall_time = time.perf_counter() - t0
    return report
