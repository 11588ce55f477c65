"""Sphere sewing combinatorics: elements, closed-formula sewing, oracle.

An arity-n element is a sphere with n positively oriented punctures carrying
scaling-type local coordinates (the last puncture sits at 0) and one
negatively oriented puncture at infinity whose coordinate is determined by a
single translation parameter.  Sewing is implemented twice: by the closed
formula, and by an independent Moebius-composition oracle that glues the
charts through w -> -1/w and re-solves the canonical normalization.

All arithmetic is generic over the scalar type: complex floats, or exact
Gaussian rationals (`GaussRat`) for the tolerance-free mode.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import gcd, sqrt

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
        out = object.__new__(cls)
        object.__setattr__(out, "_x", x)
        object.__setattr__(out, "_y", y)
        object.__setattr__(out, "_d", d)
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
        x, y, d = _parts(o)
        e = self._d
        return GaussRat._make(self._x * d + x * e, self._y * d + y * e, e * d)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat._make(-self._x, -self._y, self._d)

    def __sub__(self, o):
        x, y, d = _parts(o)
        e = self._d
        return GaussRat._make(self._x * d - x * e, self._y * d - y * e, e * d)

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        x, y, d = _parts(o)
        a, b = self._x, self._y
        return GaussRat._make(a * x - b * y, a * y + b * x, self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, o):
        # (a + ib)/e / ((x + iy)/d) = (a + ib)(x - iy) d / (e (x^2 + y^2))
        x, y, d = _parts(o)
        n = x * x + y * y
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a, b = self._x, self._y
        return GaussRat._make((a * x + b * y) * d, (b * x - a * y) * d, self._d * n)

    def __rtruediv__(self, o):
        return GaussRat._make(*_parts(o)) / self

    def abs2(self) -> Fraction:
        return Fraction(self._x * self._x + self._y * self._y, self._d * self._d)

    def __bool__(self):
        return bool(self._x) or bool(self._y)

    def __eq__(self, o):
        try:
            x, y, d = _parts(o)
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
    """Canonical (x, y, d) of an exact scalar; floats are refused."""
    if isinstance(x, GaussRat):
        return x._x, x._y, x._d
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    if isinstance(x, complex):
        raise TypeError("cannot mix floats into exact arithmetic")
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussRat")


def _abs2(x):
    if isinstance(x, GaussRat):
        return x.abs2()
    x = complex(x)
    return x.real * x.real + x.imag * x.imag


_ZERO = GaussRat(0)


def _zero_like(x):
    return _ZERO if isinstance(x, GaussRat) else 0j


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
        _set = object.__setattr__
        _set(self, "z", z)
        _set(self, "a", a)
        _set(self, "scales", scales)
        _set(self, "positions", pos)

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

    def distance(self, other: "PuncturedSphere") -> float:
        """Largest coordinate difference; for exact elements 0.0 if equal, else 1.0."""
        if self.arity != other.arity:
            return float("inf")
        if self.is_exact() or other.is_exact():
            return 0.0 if self == other else 1.0
        # a running maximum seeded by the first term, as ``max`` does
        worst = abs(complex(self.a) - complex(other.a))
        for x, y in zip(self.z + self.scales, other.z + other.scales):
            d = abs(complex(x) - complex(y))
            if d > worst:
                worst = d
        return worst


def vacuum_sphere(exact: bool = False) -> PuncturedSphere:
    return PuncturedSphere((), _ZERO if exact else 0j, ())


def identity_sphere(exact: bool = False) -> PuncturedSphere:
    return rescaling_sphere(GaussRat(1) if exact else 1 + 0j)


def rescaling_sphere(c) -> PuncturedSphere:
    """The arity-1 element of scaling c, exact when c is a ``GaussRat``."""
    return PuncturedSphere((), _zero_like(c), (c,))


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
        if outer is None or cand < outer:
            outer = cand
    return inner, outer  # squared radii


def is_sewable(P: PuncturedSphere, i: int, Q: PuncturedSphere) -> bool:
    """Disk-disjointness test for sewing the i-th slot of P with Q."""
    if not 1 <= i <= P.arity:
        raise SewingError(f"slot {i} out of range for arity {P.arity}")
    inner, outer = _sew_bounds(P, i, Q)
    if outer is None:
        return True
    if P.is_exact() and Q.is_exact():
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
# the closed sewing formula


def _canonical(positions: tuple, a, scales: tuple) -> PuncturedSphere:
    """Translate so the last puncture is at 0; the arity-0 case resets a.

    The result is validated after the translation.  Two punctures that
    coincide before it still coincide after it (or one lands on 0), so that
    check also catches every coincidence the inputs had.
    """
    if not scales:
        return PuncturedSphere((), _zero_like(a), ())
    t = positions[-1]
    z = tuple(p - t for p in positions[:-1])
    return PuncturedSphere(z, a - t, scales)


def sew(P: PuncturedSphere, i: int, Q: PuncturedSphere,
        check: bool = True) -> PuncturedSphere:
    """Sew Q into the i-th slot of P (slots are 1-based).

    The inserted punctures are the Q punctures translated by the parameter
    of Q's infinity coordinate and rescaled by the slot scaling; scalings
    multiply, and the whole configuration is re-translated into canonical
    form (a no-op unless the last slot is sewn).  Coincident punctures in
    the result raise SewingError.  ``check=False`` skips the sewability
    test, for a triple already known to pass it.
    """
    if not 1 <= i <= P.arity:
        raise SewingError(f"slot {i} out of range for arity {P.arity}")
    if check and not is_sewable(P, i, Q):
        raise SewingError(f"slot {i} of the outer element cannot be sewn")
    s = P.scales[i - 1]
    zi = P.positions[i - 1]
    b = Q.a
    inserted = tuple((xi - b) / s + zi for xi in Q.positions)
    ppos = P.positions
    positions = ppos[:i - 1] + inserted + ppos[i:]
    scales = (
        P.scales[:i - 1]
        + tuple(s * t for t in Q.scales)
        + P.scales[i:]
    )
    return _canonical(positions, P.a, scales)


# ---------------------------------------------------------------------------
# the geometric oracle


class _Moebius:
    """w -> (p*w + q) / (r*w + s), generic over the scalar type."""

    __slots__ = ("p", "q", "r", "s")

    def __init__(self, p, q, r, s):
        self.p, self.q, self.r, self.s = p, q, r, s

    def __matmul__(self, o: "_Moebius") -> "_Moebius":
        return _Moebius(
            self.p * o.p + self.q * o.r,
            self.p * o.q + self.q * o.s,
            self.r * o.p + self.s * o.r,
            self.r * o.q + self.s * o.s,
        )

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
    if shifted.p != zero and abs(complex(shifted.p)) > 1e-12 * abs(complex(shifted.r)):
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
    pos = P.positions
    order = [pos[inv[j]] for j in range(n)]
    scales = tuple(P.scales[inv[j]] for j in range(n))
    return _canonical(tuple(order), P.a, scales)


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
    if arity == 0:
        # the vacuum still spends the draws of its infinity parameter
        if exact:
            rng.integers([-8, 1, -8, 1], [9, 5, 9, 5])
        else:
            rng.standard_normal(2)
        return vacuum_sphere(exact)
    n = 2 * arity  # numbers per attempt
    while True:
        if exact:
            v = rng.integers([-8, 1, -8, 1] * n, [9, 5, 9, 5] * n).tolist()
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


def verify_operad_axioms(trials: int = 100, seed: int = 42,
                         tol: float = 1e-10, exact: bool = False) -> Report:
    """Randomized identity, oracle-agreement, associativity, equivariance.

    Per-trial seeds are split off the master seed, so records depend only on
    (trials, seed, exact).
    """
    t0 = time.perf_counter()
    report = Report(suite="operad-check", tol=tol)
    seeds = np.random.SeedSequence(seed).spawn(trials)
    ident = identity_sphere(exact)
    for tr in range(trials):
        rng = np.random.default_rng(seeds[tr])
        P, i, Q = _sample_sewable(rng, exact)

        left = sew(ident, 1, P)
        right = sew(P, i, ident)
        report.add("identity_left", (tr,), left.distance(P))
        report.add("identity_right", (tr,), right.distance(P))

        # _sample_sewable has tested (P, i, Q), and (Pa, ia, Qa) below
        got = sew(P, i, Q, check=False)
        oracle = geometric_sew_oracle(P, i, Q, check=False)
        report.add("formula_vs_oracle", (tr, i), got.distance(oracle))

        if Q.arity == 0:
            kept = [j for j in range(1, P.arity + 1) if j != i]
            want = _canonical(
                tuple(P.positions[j - 1] for j in kept),
                P.a,
                tuple(P.scales[j - 1] for j in kept),
            )
            report.add("vacuum_removal", (tr, i), got.distance(want))

        # nested associativity on its own sewable triple, resampled until
        # both composition orders exist
        for _ in range(MAX_TRIES):
            Pa, ia, Qa = _sample_sewable(rng, exact)
            if Qa.arity == 0:
                continue
            Ra = random_sphere(rng, int(rng.integers(0, 3)), exact)
            j = ia + int(rng.integers(0, Qa.arity))
            k = j - ia + 1
            try:
                lhs = sew(sew(Pa, ia, Qa, check=False), j, Ra)
                rhs = sew(Pa, ia, sew(Qa, k, Ra))
            except SewingError:
                continue
            report.add("associativity", (tr, ia, j), lhs.distance(rhs))
            break
        else:
            report.add("associativity", (tr,), float("inf"))

        # equivariance of sewing under relabeling of the outer element
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
            report.add("equivariance", (tr,), lhs.distance(rhs))
            break
        else:
            report.add("equivariance", (tr,), float("inf"))

        # permutation group action
        sig = tuple(int(v) + 1 for v in rng.permutation(P.arity))
        tau = tuple(int(v) + 1 for v in rng.permutation(P.arity))
        comp = tuple(sig[tau[j] - 1] for j in range(P.arity))
        one_step = permute(P, comp)
        two_step = permute(permute(P, tau), sig)
        report.add("permutation_action", (tr,), one_step.distance(two_step))

        # the one-slot rescalings compose multiplicatively
        c1, c2 = P.scales[0], (Q.scales[0] if Q.arity else P.scales[-1])
        g = sew(rescaling_sphere(c1), 1, rescaling_sphere(c2))
        want = rescaling_sphere(c1 * c2)
        report.add("rescaling_group", (tr,), g.distance(want))
    report.wall_time = time.perf_counter() - t0
    return report
