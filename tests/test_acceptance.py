"""Acceptance criteria, one test per criterion, printed pass/fail lines.

Criterion 2 is the dimension identity with its Frobenius-Schur sign.  For a
self-dual label a, skeletal data in unit gauge give the duality fusing
scalar F^{a a a}_{a;1,1} = nu_2(a) / d_a, where d_a is the Perron-Frobenius
dimension and nu_2(a) = +-1 is the Frobenius-Schur indicator; the semion is
pseudo-real, nu_2 = -1, so its loop value is -1.  The sign is fixed by a
second route that reads no F or R: Bantay's formula

    nu_2(a) = D^-2 sum_{b,c} N_{bc}^a d_b d_c (theta_b / theta_c)^2,

with D^2 = sum_b d_b^2 (Bantay 1997; Ng-Schauenburg 2007).  It also gives
nu_2(a) = 0 for a label that is not self-dual; there a single fusing scalar
is gauge-dependent and only F(a) F(a') = 1 / d_a^2 is checked.
"""

import itertools
import time

import numpy as np
import pytest

from mtcalc import fusion_data as fd
from mtcalc import graphcalc as gc
from mtcalc import diagonal_frobenius as df
from mtcalc import sewing_operad as so
from mtcalc.cli_io import run_suite

import bending_oracle as bo
from conftest import edited

BUILTINS = fd.BUILTIN_NAMES
TOL = 1e-9


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}")
    return ok


def test_criterion_1_coherence(categories):
    t0 = time.perf_counter()
    worst = 0.0
    for name in BUILTINS:
        rep = fd.verify_coherence(categories[name], TOL)
        worst = max(worst, rep.max_residual)
        assert rep.passed, name
    elapsed = time.perf_counter() - t0
    ok = worst < TOL and elapsed < 5.0
    assert _line(1, "coherence", ok, f"max={worst:.1e} time={elapsed:.2f}s")


def _fs_indicators(data):
    """nu_2 of every label from dimensions, fusion rules and twists only."""
    n = data.size
    d = [fd.quantum_dimension(data, b) for b in range(n)]
    dim2 = sum(x * x for x in d)
    return [
        sum(
            data.n(b, c, a) * d[b] * d[c] * (data.twist[b] / data.twist[c]) ** 2
            for b in range(n)
            for c in range(n)
        )
        / dim2
        for a in range(n)
    ]


def _dimension_identity_residuals(data):
    """Worst (indicator, identity) residuals over the labels of ``data``.

    The indicator residual is the distance of nu_2(a) from +-1 (self-dual a)
    or from 0; the identity residual compares d_a with nu_2(a) / F(a), or for
    a label that is not self-dual F(a) F(a') with 1 / d_a^2.
    """
    nu = _fs_indicators(data)
    indicator = identity = 0.0
    for a in range(data.size):
        ap = data.dual(a)
        dim = fd.quantum_dimension(data, a)
        fa = gc.duality_fusing_scalar(data, a)
        if a == ap:
            indicator = max(indicator, min(abs(nu[a] - 1), abs(nu[a] + 1)))
            identity = max(identity, abs(dim - nu[a] / fa))
        else:
            indicator = max(indicator, abs(nu[a]))
            fap = gc.duality_fusing_scalar(data, ap)
            identity = max(identity, abs(fa * fap - 1.0 / dim**2))
    return indicator, identity


@pytest.mark.parametrize("name", BUILTINS)
def test_criterion_2_dimension_identity(categories, name):
    worst = max(_dimension_identity_residuals(categories[name]))
    ok = worst < TOL
    assert _line(2, f"dimension identity [{name}]", ok, f"max={worst:.1e}")


def test_dimension_identity_non_self_dual(pointed_category):
    # pointed Z_3: trivial F, R = w^(ab), twist w^(a^2); labels 1, 2 are dual
    data = pointed_category(3)
    assert data.ring.dual == (0, 2, 1)
    assert fd.verify_coherence(data, TOL).passed
    nu = _fs_indicators(data)
    assert abs(nu[0] - 1) < TOL and abs(nu[1]) < TOL and abs(nu[2]) < TOL
    assert max(_dimension_identity_residuals(data)) < TOL


def test_criterion_3_rigidity(categories):
    worst = 0.0
    for name in BUILTINS:
        rep = gc.verify_rigidity(categories[name], TOL)
        worst = max(worst, rep.max_residual)
        assert rep.passed, name
    assert _line(3, "rigidity, both routes", worst < TOL, f"max={worst:.1e}")


def test_criterion_4_operator_calculus(categories):
    worst = 0.0
    for name in BUILTINS:
        data = categories[name]
        for a, b, c in itertools.product(range(data.size), repeat=3):
            for mu in range(data.n(a, b, c)):
                v = gc.VertexVector.basis(data, a, b, c, mu)
                for s in ("+", "-"):
                    back = bo.unbend_vertex(data, bo.bend_vertex(data, v, s), s)
                    worst = max(worst, float(np.max(np.abs(back.array - v.array))))
                w = v
                for _ in range(3):
                    w = bo.rotate_vertex(data, w)
                worst = max(worst, float(np.max(np.abs(w.array - v.array))))
        # phase identities that pin the crossing convention
        for a in range(data.size):
            ap = data.dual(a)
            got = bo.bend_vertex(
                data, gc.VertexVector.basis(data, data.unit, ap, ap), "+"
            )
            want = gc.VertexVector.basis(data, data.unit, a, a).array
            worst = max(worst, float(np.max(np.abs(got.array - want))))
            got = bo.bend_vertex(
                data, gc.VertexVector.basis(data, ap, data.unit, ap), "+"
            )
            want = data.twist[a] * gc.VertexVector.basis(data, ap, a, data.unit).array
            worst = max(worst, float(np.max(np.abs(got.array - want))))
    assert _line(4, "operator calculus", worst < TOL, f"max={worst:.1e}")


def test_criterion_5_fusing_symmetries(categories):
    worst = 0.0
    for name in BUILTINS:
        rep = gc.verify_fusing_symmetries(categories[name], TOL)
        worst = max(worst, rep.max_residual)
        assert rep.passed, name
    assert _line(5, "fusing symmetries", worst < TOL, f"max={worst:.1e}")


def test_criterion_6_diagonal_construction(categories, algebras):
    worst = 0.0
    for name in BUILTINS:
        alg = algebras[name]
        for rep in (
            df.verify_algebra_axioms(alg, TOL),
            df.verify_frobenius(alg, TOL),
            df.verify_invariant_form(alg, TOL),
        ):
            worst = max(worst, rep.max_residual)
            assert rep.passed, (name, [r for r in rep.records if not r.ok])
    # basis-independence rebuild on the nonabelian builtins
    rng = np.random.default_rng(23)
    for name in ("fibonacci", "ising"):
        worst = max(worst, _rebuild_deviation(categories[name], rng))
    assert _line(6, "diagonal construction", worst < TOL, f"max={worst:.1e}")


def _rebuild_deviation(data, rng):
    transforms = {}
    for a, b, c in itertools.product(range(data.size), repeat=3):
        n = data.n(a, b, c)
        if n:
            transforms[(a, b, c)] = rng.normal(size=(n, n)) + 1j * rng.normal(
                size=(n, n)
            )

    def rebased(d, fl, fr):
        ul = np.linalg.inv(transforms[(fl.a1, fl.a2, fl.a3)]).T
        ur = np.linalg.inv(transforms[(fr.a1, fr.a2, fr.a3)]).T
        i = int(np.argmax(np.abs(fl.array)))
        j = int(np.argmax(np.abs(fr.array)))
        flt = gc.CovertexVector(fl.a1, fl.a2, fl.a3, tuple(ul[:, i]))
        frt = gc.CovertexVector(fr.a1, fr.a2, fr.a3, tuple(ur[:, j]))
        return df.pairing_coefficient_general(d, flt, frt)

    alg = df.build_diagonal_algebra(data)
    alg_t = df.build_diagonal_algebra(data, rebased)
    worst = 0.0
    for key, block in alg.mult.items():
        u = transforms[key]
        up = transforms[tuple(data.dual(x) for x in key)]
        worst = max(
            worst, float(np.max(np.abs(u @ alg_t.mult[key] @ up.T - block)))
        )
    return worst


def test_criterion_7_negative_controls(categories):
    floor = 1e-2
    results = {}

    data = categories["fibonacci"]
    negated = edited(data, R={(1, 1, 0, 0, 0): lambda v: -v})
    rep = fd.verify_coherence(negated, TOL)
    results["negated R -> hexagon"] = max(
        r.residual for r in rep.records if r.id == "hexagon"
    )

    flat = edited(data, twist=[1.0, 1.0])
    rep = gc.verify_fusing_symmetries(flat, TOL)
    results["trivialized twist -> fusing"] = max(
        r.residual for r in rep.records if "phase" in r.id or "bend" in r.id
    )

    a = 1
    scaled = 2.0 * gc.categorical_dim(data, a) * gc.cup_morphism(
        data, (a,), 0, a, data.dual(a)
    )
    zig = gc.cap_morphism(data, (a, data.dual(a), a), 1, data.dual(a), a) @ scaled
    results["scaled coevaluation -> rigidity"] = zig.distance(
        gc.Morphism.identity(data, (a,))
    )

    alg = df.build_diagonal_algebra(data)
    nophase = {
        b: 1.0 / gc.categorical_dim(data, b) for b, _ in alg.object.summands
    }
    rep = df.verify_invariant_form(
        df.FullFieldAlgebraData(data, alg.object, alg.mult, nophase), TOL
    )
    results["dropped form phase -> invariance"] = max(
        r.residual for r in rep.records if r.id == "form_invariance"
    )

    semion = categories["z2_semion"]
    untwisted = edited(semion, twist=[1.0, 1.0])
    results["untwisted semion -> dimension identity"] = (
        _dimension_identity_residuals(untwisted)[1]
    )
    results["trivialized twist -> indicator"] = _dimension_identity_residuals(
        flat
    )[0]

    ok = all(v > floor for v in results.values())
    detail = ", ".join(f"{k}={v:.1e}" for k, v in results.items())
    assert _line(7, "negative controls", ok, detail)


def test_criterion_8_operad(categories):
    rep = so.verify_operad_axioms(trials=100, seed=42, tol=1e-10)
    agree = [r.residual for r in rep.records if r.id == "formula_vs_oracle"]
    ok = rep.passed and len(agree) == 100 and max(agree) < 1e-12
    exact = so.verify_operad_axioms(trials=25, seed=42, tol=1e-12, exact=True)
    idassoc = [
        r.residual
        for r in exact.records
        if r.id.startswith(("identity", "associativity", "rescaling"))
    ]
    ok = ok and exact.passed and max(idassoc) == 0.0
    assert _line(
        8, "operad sewing", ok,
        f"oracle max={max(agree):.1e} exact max={max(idassoc):.1e}",
    )


def test_criterion_9_cli_determinism():
    pairs = [
        ["verify-category", "builtin:ising"],
        ["verify-ffa", "builtin:fibonacci"],
        ["operad-check", "--trials", "40", "--seed", "13"],
        ["operad-check", "--trials", "15", "--seed", "3", "--exact"],
    ]
    ok = all(run_suite(args) == run_suite(args) for args in pairs)
    assert _line(9, "deterministic reports", ok)
