"""The operad suite trial by trial, the oracle of the two-stage
``sewing_operad.verify_operad_axioms``; ``distance``, the residual of two
elements, which judges single sews in the tests; and ``moebius_product``,
the oracle of the geometric oracle's chart compositions.

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
    """The full 2x2 product of two ``_Moebius`` maps, every term kept: the
    oracle of ``_Moebius.__matmul__``, which leaves out the exact products
    that have a zero factor."""
    return so._Moebius(m.p * o.p + m.q * o.r, m.p * o.q + m.q * o.s,
                       m.r * o.p + m.s * o.r, m.r * o.q + m.s * o.s)


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
