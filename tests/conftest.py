import cmath
import functools
import importlib.util
import itertools
import json
import pathlib
import sys

import numpy as np
import pytest

from mtcalc import fusion_data
from mtcalc import diagonal_frobenius

BUILTINS = fusion_data.BUILTIN_NAMES


def entries(data):
    """The F and R entries of ``data`` as dicts {key tuple: complex}, in
    the order its tables hold them."""
    return tuple(
        dict(zip(map(tuple, table.cols.T.tolist()), table.vals.tolist()))
        for table in (data._f_table, data._r_table)
    )


@functools.cache
def fusion(ring):
    """The fusion rules of ``ring`` as a dict {(a, b, c): N_ab^c} of its
    nonzero entries, in key order, read off ``ring.array``."""
    N = ring.array
    return dict(zip(map(tuple, np.argwhere(N).tolist()), N[N > 0].tolist()))


@functools.cache
def channels(ring):
    """{(a, b): the channels c with N_ab^c > 0, ascending} for every label
    pair of ``ring``, read off ``ring.array``."""
    return {
        (a, b): tuple(np.flatnonzero(ring.array[a, b]).tolist())
        for a, b in itertools.product(range(ring.size), repeat=2)
    }


def edited(data, F=None, R=None, twist=None):
    """A new category of ``data``'s ring and entries, with the F and R
    entries of the keys of ``F`` and ``R`` set to their values there, or to
    what those functions make of the old values, and ``twist`` in place of
    the twists if given."""
    tables = entries(data)
    for table, edits in zip(tables, (F, R)):
        for key, new in (edits or {}).items():
            table[key] = new(table[key]) if callable(new) else new
    return fusion_data.CategoryData(
        data.ring, *tables, data.twist if twist is None else twist
    )


@pytest.fixture(scope="session")
def categories():
    return {name: fusion_data.builtin_category(name) for name in BUILTINS}


@pytest.fixture(scope="session")
def algebras(categories):
    return {
        name: diagonal_frobenius.build_diagonal_algebra(data)
        for name, data in categories.items()
    }


def perfbench_workloads():
    """``perfbench/workloads.py``, loaded by path."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


@pytest.fixture(scope="session")
def pointed_category():
    """Factory of the pointed Z_n category of the benchmark's generated
    inputs: trivial F, R = w^(ab), twist w^(a^2), n odd.  It is
    ``zn_category`` of ``perfbench/workloads.py``."""
    return functools.partial(perfbench_workloads().zn_category, fusion_data)


def _random_tables(ring, seed):
    """``ring`` with random F and R: unit-slot F-blocks are the identity,
    every other block random and invertible, twists 1."""
    n = ring.size
    rng = np.random.default_rng(seed)
    F = {}
    for a, b, c, d in itertools.product(range(n), repeat=4):
        right = [(x, i, j) for x in range(n)
                 for i in range(ring.n(a, x, d)) for j in range(ring.n(b, c, x))]
        left = [(y, k, l) for y in range(n)
                for k in range(ring.n(y, c, d)) for l in range(ring.n(a, b, y))]
        m = len(right)
        block = np.eye(m) if 0 in (a, b, c) else (
            rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        )
        for (ri, r), (li, l) in itertools.product(enumerate(right), enumerate(left)):
            F[(a, b, c, d) + r[:1] + l[:1] + r[1:] + l[1:]] = complex(block[ri, li])
    R = {
        (a, b, c, i, j): complex(rng.normal(), rng.normal())
        for a, b, c in itertools.product(range(n), repeat=3)
        for i in range(ring.n(b, a, c))
        for j in range(ring.n(a, b, c))
    }
    return fusion_data.CategoryData(ring, F, R, [1.0] * n)


@pytest.fixture(scope="session")
def rep_a4_random():
    """Rep(A4) fusion ring (N_33^3 = 2) with random invertible F and R.

    Unit-slot F-blocks are the identity and nothing else is coherent, so only
    identities that hold for any invertible F and R apply, and its pentagon
    and hexagon residuals are not zero.
    """
    N = {(a, b, (a + b) % 3): 1 for a in range(3) for b in range(3)}
    for a in range(3):
        N[(a, 3, 3)] = N[(3, a, 3)] = N[(3, 3, a)] = 1
    N[(3, 3, 3)] = 2
    labels = tuple(
        fusion_data.Label(i, s) for i, s in enumerate(("1", "1'", "1''", "3"))
    )
    ring = fusion_data.FusionRing(labels, 0, (0, 2, 1, 3), N)
    return _random_tables(ring, 3)


@pytest.fixture(scope="session")
def near_group_random():
    """The near-group ring rho (x) rho = 1 + 3 rho with random invertible F
    and R, as ``rep_a4_random``.  With N_rr^r = 3, sums over a multiplicity
    index have three terms, the fewest for which the order of a
    floating-point sum can change it; the (rho, rho, rho, rho) F-block is
    10 x 10.
    """
    labels = (fusion_data.Label(0, "1"), fusion_data.Label(1, "rho"))
    N = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 3}
    return _random_tables(fusion_data.FusionRing(labels, 0, (0, 1), N), 5)


@pytest.fixture(scope="session")
def off_unit_gauge_text():
    """Pointed Z_3 file in a gauge whose unit-slot F-blocks are not identities.

    Trivial F, R = w^(ab) and twist w^(a^2), transformed by the symmetric
    vertex gauge g(a, b) = exp(0.3i (a + b + ab)): F^{abc} picks up
    g(b,c) g(a,b+c) / (g(a,b) g(a+b,c)), and R is unchanged because g is
    symmetric.  The data stays coherent, but g(0, b) is not constant, so
    F(e, b, c) is a phase other than 1.
    """
    n = 3
    w = cmath.exp(2j * cmath.pi / n)

    def g(a, b):
        return cmath.exp(0.3j * (a + b + a * b))

    def pair(z):
        return [z.real, z.imag]

    F = []
    for a in range(n):
        for b in range(n):
            for c in range(n):
                val = g(b, c) * g(a, (b + c) % n) / (g(a, b) * g((a + b) % n, c))
                F.append({
                    "labels": [a, b, c, (a + b + c) % n, (b + c) % n, (a + b) % n],
                    "mult": [0, 0, 0, 0],
                    "value": pair(val),
                })
    doc = {
        "labels": [f"g{a}" for a in range(n)],
        "unit": 0,
        "dual": [(-a) % n for a in range(n)],
        "fusion": [[a, b, (a + b) % n, 1] for a in range(n) for b in range(n)],
        "F": F,
        "R": [
            {"labels": [a, b, (a + b) % n], "mult": [0, 0], "value": pair(w ** (a * b))}
            for a in range(n) for b in range(n)
        ],
        "twist": [pair(w ** (a * a)) for a in range(n)],
    }
    return json.dumps(doc)
