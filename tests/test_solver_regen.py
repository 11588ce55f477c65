"""Regeneration of the frozen built-in tables by the brute-force solver."""

import numpy as np
import pytest

from mtcalc import fusion_data as fd

import solver_oracle as oracle
from conftest import entries

NONTRIVIAL = ("z2_semion", "fibonacci", "ising")


def _builtin_dicts(data):
    F, R = entries(data)
    return {k[:6]: v for k, v in F.items()}, {k[:3]: v for k, v in R.items()}


@pytest.mark.parametrize("name", fd.BUILTIN_NAMES)
def test_frozen_data_is_exact_solution(categories, name):
    # independent re-implementation of the polynomial systems agrees
    data = categories[name]
    ring = oracle.ring_of(data)
    F, R = _builtin_dicts(data)
    pent = max(map(abs, oracle.pentagon_residuals_dict(ring, F)), default=0.0)
    hexa = max(map(abs, oracle.hexagon_residuals_dict(ring, F, R)), default=0.0)
    assert pent < 1e-12
    assert hexa < 1e-12


@pytest.mark.parametrize("name", NONTRIVIAL)
def test_solver_converges_from_frozen_data(categories, name):
    # the frozen tables are an isolated solution point (modulo gauge): the
    # solver pulled toward them from a perturbed start lands back on a
    # solution with identical gauge invariants
    data = categories[name]
    ring = oracle.ring_of(data)
    F0, R0 = _builtin_dicts(data)
    rng = np.random.default_rng(1)
    jitter = lambda d: {
        k: v + 1e-4 * (rng.normal() + 1j * rng.normal()) for k, v in d.items()
    }
    sols_f = oracle.solve_f(ring, rng, starts=0, x0=jitter(F0))
    assert sols_f, "pentagon solve from the frozen point failed"
    F, res = sols_f[0]
    sols_r = oracle.solve_r(ring, F, rng, starts=0, x0=jitter(R0))
    assert sols_r, "hexagon solve from the frozen point failed"
    R, _ = sols_r[0]
    want = oracle.invariants(ring, F0, R0)
    got = oracle.invariants(ring, F, R)
    assert set(got) == set(want)
    assert all(abs(got[k] - want[k]) < 1e-7 for k in want)


@pytest.mark.parametrize("name", NONTRIVIAL)
def test_regenerate_from_random_starts(categories, name):
    # full regeneration: random starts find a solution whose twists match
    # the frozen selection, with all gauge invariants equal
    data = categories[name]
    ring = oracle.ring_of(data)
    starts = 12 if name != "ising" else 30
    matches = oracle.solve_category(data, seed=2, starts=starts)
    assert matches, "no solution with the selected twists found"
    F0, R0 = _builtin_dicts(data)
    want = oracle.invariants(ring, F0, R0)
    for F, R in matches:
        got = oracle.invariants(ring, F, R)
        assert all(abs(got[k] - want[k]) < 1e-6 for k in want)


def test_semion_twist_selects_unique_hexagon_branch(categories):
    # over the two-label ring, demanding twist i forces the nontrivial
    # pentagon class and the negative-imaginary braiding entry
    data = categories["z2_semion"]
    matches = oracle.solve_category(data, seed=3, starts=8, stop_after=3)
    assert matches
    for F, R in matches:
        assert abs(F[(1, 1, 1, 1, 0, 0)] + 1.0) < 1e-8
        assert abs(R[(1, 1, 0)] + 1j) < 1e-8


def test_fibonacci_solution_values(categories):
    import math

    phi = (1 + math.sqrt(5)) / 2
    matches = oracle.solve_category(categories["fibonacci"], seed=8, starts=12)
    assert matches
    F, R = matches[0]
    assert abs(F[(1, 1, 1, 1, 0, 0)] - 1 / phi) < 1e-8
    assert abs(abs(F[(1, 1, 1, 1, 0, 1)]) - 1 / math.sqrt(phi)) < 1e-8


def test_solver_feeds_coherent_category(categories):
    # route one regenerated solution back through the package loader
    data = categories["z2_semion"]
    matches = oracle.solve_category(data, seed=4, starts=8)
    F, R = matches[0]
    cat = fd.CategoryData(
        data.ring,
        {k + (0, 0, 0, 0): v for k, v in F.items()},
        {k + (0, 0): v for k, v in R.items()},
        list(data.twist),
    )
    assert fd.verify_coherence(cat, 1e-9).passed
