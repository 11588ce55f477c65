import cmath
import json

import pytest

from mtcalc import fusion_data
from mtcalc import diagonal_frobenius

BUILTINS = fusion_data.BUILTIN_NAMES


@pytest.fixture(scope="session")
def categories():
    return {name: fusion_data.builtin_category(name) for name in BUILTINS}


@pytest.fixture(scope="session")
def algebras(categories):
    return {
        name: diagonal_frobenius.build_diagonal_algebra(data)
        for name, data in categories.items()
    }


@pytest.fixture(scope="session")
def pointed_category():
    """Factory of the pointed Z_n category: trivial F, R = w^(ab), twist w^(a^2).

    n must be odd; every vertex gauge is trivial, so every F entry is 1.
    """

    def make(n):
        w = cmath.exp(2j * cmath.pi / n)
        labels = tuple(fusion_data.Label(a, f"g{a}") for a in range(n))
        fusion = {(a, b, (a + b) % n): 1 for a in range(n) for b in range(n)}
        ring = fusion_data.FusionRing(
            labels, 0, tuple((-a) % n for a in range(n)), fusion
        )
        F = {
            (a, b, c, (a + b + c) % n, (b + c) % n, (a + b) % n, 0, 0, 0, 0): 1.0
            for a in range(n) for b in range(n) for c in range(n)
        }
        R = {
            (a, b, (a + b) % n, 0, 0): w ** (a * b)
            for a in range(n) for b in range(n)
        }
        return fusion_data.CategoryData(ring, F, R, [w ** (a * a) for a in range(n)])

    return make


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
