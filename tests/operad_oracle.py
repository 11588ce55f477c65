"""The operad suite trial by trial, the oracle of the two-stage
``sewing_operad.verify_operad_axioms``; ``distance``, the residual of two
elements, which judges single sews in the tests; ``moebius_product``, the
oracle of the geometric oracle's chart compositions; and
``geometric_sew_oracle`` on ``_Moebius`` objects, the reference of the
package's oracle on chart tuples.

``verify_operad_axioms`` runs every check of a trial on single elements,
through ``sew``, ``permute`` and ``rescaling_sphere``, in the order the
records are written.  The package draws each trial's random stream the
same way, then evaluates the checks that only feed a residual on columns
of lanes; its reports must equal this one's byte for byte.
"""

from __future__ import annotations

import time

import numpy as np

from mtcalc import sewing_operad as so
from mtcalc.report import Report
from mtcalc.sewing_operad import PuncturedSphere, SewingError


def distance(x: PuncturedSphere, y: PuncturedSphere) -> float:
    """Largest coordinate difference; for exact elements 0.0 if equal, else 1.0."""
    if x.arity != y.arity:
        return float("inf")
    if x.is_exact() or y.is_exact():
        return 0.0 if x == y else 1.0
    # a running maximum seeded by the first term, as ``max`` does
    worst = abs(complex(x.a) - complex(y.a))
    for p, q in zip(x.z + x.scales, y.z + y.scales):
        d = abs(complex(p) - complex(q))
        if d > worst:
            worst = d
    return worst


def moebius_product(m, o):
    """The full 2x2 product of two charts (p, q, r, s), every term kept: the
    oracle of ``sewing_operad._compose``, which leaves out the exact
    products that have a zero factor."""
    (p, q, r, s), (op, oq, orr, os) = m, o
    return p * op + q * orr, p * oq + q * os, r * op + s * orr, r * oq + s * os


class _Moebius:
    """w -> (p*w + q) / (r*w + s), generic over the scalar type."""

    __slots__ = ("p", "q", "r", "s")

    def __init__(self, p, q, r, s):
        self.p, self.q, self.r, self.s = p, q, r, s

    def __matmul__(self, o: "_Moebius") -> "_Moebius":
        if self.p.__class__ is so.GaussRat:
            return _Moebius(so._dot(self.p, o.p, self.q, o.r), so._dot(self.p, o.q, self.q, o.s),
                            so._dot(self.r, o.p, self.s, o.r), so._dot(self.r, o.q, self.s, o.s))
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


def _affine(c, p):
    """The local chart x -> c*(x - p)."""
    return _Moebius(c, -1 * c * p, so._zero_like(c), c / c)


def _chart_infinity(a):
    one = a / a if a else so._zero_like(a) + 1
    return _Moebius(so._zero_like(a), -1 * one, one, -1 * a)


def geometric_sew_oracle(P: PuncturedSphere, i: int, Q: PuncturedSphere) -> PuncturedSphere:
    """``sewing_operad.geometric_sew_oracle`` with each chart a ``_Moebius``
    object, for a sewable (P, i, Q): every operation in the same order."""
    exact = P.is_exact()
    one = so._ONE if exact else 1 + 0j
    zero = so._zero_like(one)

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
    inserted = []
    for k, xi in enumerate(Q.positions):
        chart = _affine(Q.scales[k], xi) @ glue
        inserted.append((glue_inv.apply(xi), chart))
    ordered = punctures[: i - 1] + inserted + punctures[i - 1:]
    inf_chart = _chart_infinity(P.a)

    if not ordered:
        return so.vacuum_sphere(exact)

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


def verify_operad_axioms(trials: int = 100, seed: int = 42,
                         tol: float = 1e-10, exact: bool = False) -> Report:
    """The package's suite, each trial evaluated on single elements."""
    t0 = time.perf_counter()
    report = Report(suite="operad-check", tol=tol)
    seeds = np.random.SeedSequence(seed).spawn(trials)
    ident = so.identity_sphere(exact)
    for tr in range(trials):
        rng = np.random.default_rng(seeds[tr])
        P, i, Q = so._sample_sewable(rng, exact)

        left = so.sew(ident, 1, P)
        right = so.sew(P, i, ident)
        report.add("identity_left", (tr,), distance(left, P))
        report.add("identity_right", (tr,), distance(right, P))

        got = so.sew(P, i, Q, check=False)
        oracle = so.geometric_sew_oracle(P, i, Q, check=False)
        report.add("formula_vs_oracle", (tr, i), distance(got, oracle))

        if Q.arity == 0:
            kept = [j for j in range(1, P.arity + 1) if j != i]
            want = PuncturedSphere(*so._canonical_parts(
                tuple(P.positions[j - 1] for j in kept),
                P.a,
                tuple(P.scales[j - 1] for j in kept),
            ))
            report.add("vacuum_removal", (tr, i), distance(got, want))

        for _ in range(so.MAX_TRIES):
            Pa, ia, Qa = so._sample_sewable(rng, exact)
            if Qa.arity == 0:
                continue
            Ra = so.random_sphere(rng, int(rng.integers(0, 3)), exact)
            j = ia + int(rng.integers(0, Qa.arity))
            k = j - ia + 1
            try:
                lhs = so.sew(so.sew(Pa, ia, Qa, check=False), j, Ra)
                rhs = so.sew(Pa, ia, so.sew(Qa, k, Ra))
            except SewingError:
                continue
            report.add("associativity", (tr, ia, j), distance(lhs, rhs))
            break
        else:
            report.add("associativity", (tr,), float("inf"))

        for _ in range(so.MAX_TRIES):
            Pe, ie, Qe = so._sample_sewable(rng, exact)
            sigma = tuple(int(v) + 1 for v in rng.permutation(Pe.arity))
            try:
                lhs = so.sew(so.permute(Pe, sigma), ie, Qe)
                rhs = so.permute(
                    so.sew(Pe, sigma.index(ie) + 1, Qe),
                    so.insertion_permutation(sigma, ie, Qe.arity),
                )
            except SewingError:
                continue
            report.add("equivariance", (tr,), distance(lhs, rhs))
            break
        else:
            report.add("equivariance", (tr,), float("inf"))

        sig = tuple(int(v) + 1 for v in rng.permutation(P.arity))
        tau = tuple(int(v) + 1 for v in rng.permutation(P.arity))
        comp = tuple(sig[tau[j] - 1] for j in range(P.arity))
        one_step = so.permute(P, comp)
        two_step = so.permute(so.permute(P, tau), sig)
        report.add("permutation_action", (tr,), distance(one_step, two_step))

        c1, c2 = P.scales[0], (Q.scales[0] if Q.arity else P.scales[-1])
        g = so.sew(so.rescaling_sphere(c1), 1, so.rescaling_sphere(c2))
        want = so.rescaling_sphere(c1 * c2)
        report.add("rescaling_group", (tr,), distance(g, want))
    report.wall_time = time.perf_counter() - t0
    return report
