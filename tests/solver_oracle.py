"""Brute-force pentagon/hexagon solver over a multiplicity-free fusion ring.

Independent of the package's residual code: the polynomial systems are set
up directly over plain symbol dictionaries and solved by least squares from
random starts.  Used to regenerate the built-in category tables and to
cross-check that the frozen data is an exact solution point.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from conftest import fusion


@dataclass(frozen=True)
class RingSpec:
    size: int
    unit: int
    dual: tuple
    channels: frozenset  # {(a, b, c)}

    def n(self, a, b, c) -> bool:
        return (a, b, c) in self.channels

    def fuse(self, a, b):
        return [c for c in range(self.size) if self.n(a, b, c)]


def ring_of(data) -> RingSpec:
    return RingSpec(
        data.size,
        data.unit,
        tuple(data.ring.dual),
        frozenset(fusion(data.ring)),
    )


def f_keys(ring: RingSpec):
    """All admissible F entries (a, b, c, d, x, y); unknown iff no unit slot."""
    fixed, unknown = [], []
    for a in range(ring.size):
        for b in range(ring.size):
            for c in range(ring.size):
                for d in range(ring.size):
                    for x in ring.fuse(b, c):
                        if not ring.n(a, x, d):
                            continue
                        for y in ring.fuse(a, b):
                            if not ring.n(y, c, d):
                                continue
                            key = (a, b, c, d, x, y)
                            if ring.unit in (a, b, c):
                                fixed.append(key)
                            else:
                                unknown.append(key)
    return fixed, unknown


def r_keys(ring: RingSpec):
    fixed, unknown = [], []
    for a in range(ring.size):
        for b in range(ring.size):
            for c in ring.fuse(a, b):
                key = (a, b, c)
                if ring.unit in (a, b):
                    fixed.append(key)
                else:
                    unknown.append(key)
    return fixed, unknown


# ---------------------------------------------------------------------------
# residuals over plain dictionaries


def pentagon_residuals_dict(ring: RingSpec, F: dict):
    """Residuals of every pentagon instance; F maps (a,b,c,d,x,y) to complex."""
    out = []
    rng = range(ring.size)
    for w0 in rng:
        for w1 in rng:
            for w2 in rng:
                for w3 in rng:
                    for tot in rng:
                        for x in ring.fuse(w2, w3):
                            for y in ring.fuse(w1, x):
                                if not ring.n(w0, y, tot):
                                    continue
                                for u in ring.fuse(w0, w1):
                                    for v in ring.fuse(u, w2):
                                        if not ring.n(v, w3, tot):
                                            continue
                                        p1 = F.get(
                                            (w0, w1, x, tot, y, u), 0
                                        ) * F.get((u, w2, w3, tot, x, v), 0)
                                        p2 = 0j
                                        for w in rng:
                                            p2 += (
                                                F.get((w1, w2, w3, y, x, w), 0)
                                                * F.get((w0, w, w3, tot, y, v), 0)
                                                * F.get((w0, w1, w2, v, w, u), 0)
                                            )
                                        out.append(p1 - p2)
    return out


def _blocks(ring, F):
    out = []
    for a in range(ring.size):
        for b in range(ring.size):
            for c in range(ring.size):
                for d in range(ring.size):
                    xs = [x for x in ring.fuse(b, c) if ring.n(a, x, d)]
                    ys = [y for y in ring.fuse(a, b) if ring.n(y, c, d)]
                    if xs and ys:
                        mat = np.array(
                            [[F.get((a, b, c, d, x, y), 0) for y in ys] for x in xs]
                        )
                        out.append(((a, b, c, d), xs, ys, mat))
    return out


def hexagon_residuals_dict(ring: RingSpec, F: dict, R: dict):
    """Residuals of both hexagon families; R maps (a,b,c) to complex."""

    def rs(p, q, ch, sense):
        return R.get((p, q, ch), 1) if sense > 0 else 1 / R.get((q, p, ch), 1)

    out = []
    n = ring.size
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for tot in range(n):
                    src = [y for y in ring.fuse(a, b) if ring.n(y, c, tot)]
                    dst = [x for x in ring.fuse(b, c) if ring.n(x, a, tot)]
                    if not src or not dst:
                        continue
                    mid = [y for y in ring.fuse(b, a) if ring.n(y, c, tot)]
                    midr = [z for z in ring.fuse(a, c) if ring.n(b, z, tot)]
                    dstr = [z for z in ring.fuse(c, a) if ring.n(b, z, tot)]
                    fabc = np.array(
                        [[F.get((a, b, c, tot, x, y), 0) for y in src] for x in dst]
                    )
                    fmid = np.array(
                        [[F.get((b, a, c, tot, z, y), 0) for y in mid] for z in midr]
                    )
                    fsw = np.array(
                        [[F.get((b, c, a, tot, z, x), 0) for x in dst] for z in dstr]
                    )
                    for sense in (1, -1):
                        perm = np.zeros((len(dstr), len(midr)), complex)
                        for zi, z in enumerate(dstr):
                            if z in midr:
                                perm[zi, midr.index(z)] = rs(a, c, z, sense)
                        swap = np.zeros((len(mid), len(src)), complex)
                        for yi, y in enumerate(src):
                            if y in mid:
                                swap[mid.index(y), yi] = rs(a, b, y, sense)
                        route = np.linalg.inv(fsw) @ perm @ fmid @ swap
                        cluster = (
                            np.diag([rs(a, x, tot, sense) for x in dst]) @ fabc
                        )
                        out.extend((cluster - route).ravel())
    return out


# ---------------------------------------------------------------------------
# solving


def _pack(values):
    out = []
    for v in values:
        out.extend((v.real, v.imag))
    return np.array(out)


def _unpack(x):
    return [complex(x[2 * i], x[2 * i + 1]) for i in range(len(x) // 2)]


class PentagonSystem:
    """Precomputed index form of the pentagon plus unitarity equations."""

    def __init__(self, ring: RingSpec):
        self.ring = ring
        self.fixed, self.unknown = f_keys(ring)
        keys = self.fixed + self.unknown
        self.keys = keys
        idx = {k: i for i, k in enumerate(keys)}
        zero_slot = len(keys)  # inadmissible entries read as exactly zero
        k1, k2 = [], []
        ta, tb, tc, offsets = [], [], [], [0]
        n = ring.size
        for w0 in range(n):
            for w1 in range(n):
                for w2 in range(n):
                    for w3 in range(n):
                        for tot in range(n):
                            for x in ring.fuse(w2, w3):
                                for y in ring.fuse(w1, x):
                                    if not ring.n(w0, y, tot):
                                        continue
                                    for u in ring.fuse(w0, w1):
                                        for v in ring.fuse(u, w2):
                                            if not ring.n(v, w3, tot):
                                                continue
                                            k1.append(idx.get(
                                                (w0, w1, x, tot, y, u),
                                                zero_slot))
                                            k2.append(idx.get(
                                                (u, w2, w3, tot, x, v),
                                                zero_slot))
                                            for w in range(n):
                                                ka = idx.get(
                                                    (w1, w2, w3, y, x, w))
                                                kb = idx.get(
                                                    (w0, w, w3, tot, y, v))
                                                kc = idx.get(
                                                    (w0, w1, w2, v, w, u))
                                                if None in (ka, kb, kc):
                                                    continue
                                                ta.append(ka)
                                                tb.append(kb)
                                                tc.append(kc)
                                            offsets.append(len(ta))
        self.k1 = np.array(k1)
        self.k2 = np.array(k2)
        self.ta, self.tb, self.tc = map(np.array, (ta, tb, tc))
        self.offsets = np.array(offsets)
        self.blocks = []
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for d in range(n):
                        xs = [x for x in ring.fuse(b, c) if ring.n(a, x, d)]
                        ys = [y for y in ring.fuse(a, b) if ring.n(y, c, d)]
                        if xs and ys:
                            self.blocks.append(np.array(
                                [[idx[(a, b, c, d, x, y)] for y in ys]
                                 for x in xs]
                            ))

    def values(self, vals):
        full = np.ones(len(self.keys) + 1, dtype=complex)
        full[len(self.fixed):len(self.keys)] = vals
        full[-1] = 0.0
        return full

    def residual(self, x):
        vals = self.values(np.asarray(_unpack(x)))
        p1 = vals[self.k1] * vals[self.k2]
        prod = vals[self.ta] * vals[self.tb] * vals[self.tc]
        sums = np.add.reduceat(
            np.concatenate([prod, [0.0]]),
            np.minimum(self.offsets[:-1], len(prod)),
        )
        sums[self.offsets[:-1] == self.offsets[1:]] = 0.0
        out = [p1 - sums]
        for blk in self.blocks:
            mat = vals[blk]
            out.append((mat @ mat.conj().T - np.eye(blk.shape[0])).ravel())
        flat = np.concatenate(out)
        return np.concatenate([flat.real, flat.imag])

    def build(self, x):
        vals = self.values(np.asarray(_unpack(x)))
        return dict(zip(self.keys, vals[:-1]))


def solve_f(ring: RingSpec, rng, starts=8, x0=None):
    """Unitary-gauge pentagon solutions as (F-dict, residual) pairs."""
    system = PentagonSystem(ring)
    sols = []
    inits = []
    if x0 is not None:
        inits.append(_pack([x0[k] for k in system.unknown]))
    inits += [rng.normal(size=2 * len(system.unknown)) for _ in range(starts)]
    for init in inits:
        try:
            res = least_squares(
                system.residual, init, method="lm", xtol=1e-15, ftol=1e-15
            )
        except Exception:
            continue
        if np.max(np.abs(res.fun)) < 1e-10:
            sols.append((system.build(res.x), float(np.max(np.abs(res.fun)))))
    return sols


class HexagonSystem:
    """Hexagon equations for fixed F, with cached per-instance matrices."""

    def __init__(self, ring: RingSpec, F: dict):
        self.ring = ring
        self.fixed, self.unknown = r_keys(ring)
        self.insts = []
        n = ring.size
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for tot in range(n):
                        src = [y for y in ring.fuse(a, b) if ring.n(y, c, tot)]
                        dst = [x for x in ring.fuse(b, c) if ring.n(x, a, tot)]
                        if not src or not dst:
                            continue
                        mid = [y for y in ring.fuse(b, a) if ring.n(y, c, tot)]
                        midr = [z for z in ring.fuse(a, c) if ring.n(b, z, tot)]
                        dstr = [z for z in ring.fuse(c, a) if ring.n(b, z, tot)]
                        fabc = np.array([[F.get((a, b, c, tot, x, y), 0)
                                          for y in src] for x in dst])
                        fmid = np.array([[F.get((b, a, c, tot, z, y), 0)
                                          for y in mid] for z in midr])
                        fsw = np.array([[F.get((b, c, a, tot, z, x), 0)
                                         for x in dst] for z in dstr])
                        self.insts.append(
                            (a, b, c, tot, src, dst, mid, midr, dstr,
                             fabc, fmid, np.linalg.inv(fsw))
                        )

    def residual(self, x):
        vals = _unpack(x)
        R = {k: 1.0 + 0j for k in self.fixed}
        R.update(dict(zip(self.unknown, vals)))

        def rs(p, q, ch, sense):
            return R[(p, q, ch)] if sense > 0 else 1 / R[(q, p, ch)]

        out = []
        for (a, b, c, tot, src, dst, mid, midr, dstr,
             fabc, fmid, fsw_inv) in self.insts:
            for sense in (1, -1):
                perm = np.zeros((len(dstr), len(midr)), complex)
                for zi, z in enumerate(dstr):
                    if z in midr:
                        perm[zi, midr.index(z)] = rs(a, c, z, sense)
                swap = np.zeros((len(mid), len(src)), complex)
                for yi, y in enumerate(src):
                    if y in mid:
                        swap[mid.index(y), yi] = rs(a, b, y, sense)
                route = fsw_inv @ perm @ fmid @ swap
                cluster = np.diag([rs(a, x, tot, sense) for x in dst]) @ fabc
                out.extend((cluster - route).ravel())
        out.extend(abs(v) ** 2 - 1.0 for v in vals)
        return _pack(out)

    def build(self, x):
        R = {k: 1.0 + 0j for k in self.fixed}
        R.update(dict(zip(self.unknown, _unpack(x))))
        return R


def solve_r(ring: RingSpec, F: dict, rng, starts=8, x0=None):
    """Unimodular hexagon solutions given F, as (R-dict, residual) pairs."""
    system = HexagonSystem(ring, F)
    sols = []
    inits = []
    if x0 is not None:
        inits.append(_pack([x0[k] for k in system.unknown]))
    inits += [rng.normal(size=2 * len(system.unknown)) for _ in range(starts)]
    for init in inits:
        try:
            res = least_squares(
                system.residual, init, method="lm", xtol=1e-15, ftol=1e-15
            )
        except Exception:
            continue
        if np.max(np.abs(res.fun)) < 1e-10:
            R = system.build(res.x)
            if not any(_same_r(R, other) for other, _ in sols):
                sols.append((R, float(np.max(np.abs(res.fun)))))
    return sols


def _same_r(r1, r2, tol=1e-6):
    return all(abs(r1[k] - r2[k]) < tol for k in r1)


def twists_of(ring: RingSpec, R: dict) -> dict:
    """Twist phases read off the duality-channel braiding entries."""
    return {
        a: R[(a, ring.dual[a], ring.unit)].conjugate() for a in range(ring.size)
    }


def invariants(ring: RingSpec, F: dict, R: dict) -> dict:
    """Gauge-invariant scalars of a solution, for comparisons."""
    inv = {}
    for a in range(ring.size):
        ap = ring.dual[a]
        inv[("twist", a)] = twists_of(ring, R)[a]
        if (a, ap, a, a, ring.unit, ring.unit) in F:
            inv[("dual_scalar", a)] = F[(a, ap, a, a, ring.unit, ring.unit)]
    for a in range(ring.size):
        for c in ring.fuse(a, a):
            inv[("self_braid", a, c)] = R[(a, a, c)]
    for a in range(ring.size):
        for b in range(a + 1, ring.size):
            for c in ring.fuse(a, b):
                inv[("monodromy", a, b, c)] = R[(a, b, c)] * R[(b, a, c)]
    return inv


def solve_category(data, seed=0, starts=8, stop_after=1):
    """Regenerate (F, R) for the ring of ``data``, selecting by its twists.

    Returns matching (F, R) solutions, at most ``stop_after`` of them.
    """
    ring = ring_of(data)
    rng = np.random.default_rng(seed)
    target = {a: complex(t) for a, t in enumerate(data.twist)}
    matches = []
    seen_f = []
    for F, _ in solve_f(ring, rng, starts=starts):
        if any(
            all(abs(F[k] - other[k]) < 1e-6 for k in F) for other in seen_f
        ):
            continue
        seen_f.append(F)
        for R, _ in solve_r(ring, F, rng, starts=8):
            th = twists_of(ring, R)
            if all(abs(th[a] - target[a]) < 1e-7 for a in th):
                matches.append((F, R))
                if len(matches) >= stop_after:
                    return matches
    return matches
