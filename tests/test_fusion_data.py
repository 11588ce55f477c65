import json
import math

import numpy as np
import pytest

from mtcalc import fusion_data as fd

PHI = (1 + math.sqrt(5)) / 2
BUILTINS = fd.BUILTIN_NAMES


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_coherence(categories, name):
    rep = fd.verify_coherence(categories[name], 1e-9)
    assert rep.passed, [r for r in rep.records if not r.ok]


def test_trivial_coherence_exact(categories):
    # exactly representable data: residuals are zero, not merely small
    rep = fd.verify_coherence(categories["trivial"], 1e-9)
    assert rep.max_residual == 0.0
    rep = fd.verify_coherence(categories["z2_semion"], 1e-9)
    assert rep.max_residual == 0.0


def test_unknown_builtin():
    with pytest.raises(fd.CategoryDataError):
        fd.builtin_category("su2_level_grape")


@pytest.mark.parametrize(
    "name,label,dim",
    [
        ("trivial", 0, 1.0),
        ("z2_semion", 1, 1.0),
        ("fibonacci", 1, PHI),
        ("ising", 1, math.sqrt(2.0)),
        ("ising", 2, 1.0),
    ],
)
def test_quantum_dimension(categories, name, label, dim):
    assert abs(fd.quantum_dimension(categories[name], label) - dim) < 1e-9


@pytest.mark.parametrize("name", BUILTINS)
def test_qdim_ring_homomorphism(categories, name):
    data = categories[name]
    for a in range(data.size):
        for b in range(data.size):
            lhs = data.qdim[a] * data.qdim[b]
            rhs = sum(data.n(a, b, c) * data.qdim[c] for c in range(data.size))
            assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("name", BUILTINS)
def test_twist_properties(categories, name):
    data = categories[name]
    for a in range(data.size):
        assert abs(abs(data.twist[a]) - 1.0) < 1e-12
        assert data.twist[a] == data.twist[data.dual(a)]
    assert data.twist[data.unit] == 1.0


def test_fibonacci_twist_value(categories):
    import cmath

    theta = categories["fibonacci"].twist[1]
    assert abs(theta - cmath.exp(4j * math.pi / 5)) < 1e-12
    assert abs(categories["fibonacci"].h[1] - 0.4) < 1e-12


def test_semion_twist_value(categories):
    assert categories["z2_semion"].twist[1] == 1j


# -- file format ------------------------------------------------------------


@pytest.mark.parametrize("name", BUILTINS)
def test_emit_load_roundtrip_bit_exact(categories, name):
    text = fd.emit_category(categories[name])
    again = fd.emit_category(fd.loads_category(text))
    assert text == again
    # numbers survive the JSON round trip exactly
    data = fd.loads_category(text)
    assert data.F == categories[name].F
    assert data.R == categories[name].R
    assert data.twist == categories[name].twist


def test_load_example_files(categories, tmp_path):
    import pathlib

    here = pathlib.Path(__file__).parent / "data"
    loaded = fd.load_category(here / "fibonacci.json")
    assert loaded.F == categories["fibonacci"].F
    assert fd.load_category(here / "trivial.json").size == 1


def test_malformed_unit_constraint():
    doc = json.loads(fd.emit_category(fd.builtin_category("trivial")))
    doc["fusion"] = [[0, 0, 0, 2]]
    with pytest.raises(fd.CategoryDataError, match="unit constraint"):
        fd.loads_category(json.dumps(doc))


def test_dual_not_involution():
    doc = json.loads(fd.emit_category(fd.builtin_category("ising")))
    doc["dual"] = [0, 2, 2]
    with pytest.raises(fd.CategoryDataError, match="involution"):
        fd.loads_category(json.dumps(doc))


def test_missing_f_entry():
    doc = json.loads(fd.emit_category(fd.builtin_category("fibonacci")))
    doc["F"] = doc["F"][:-1]
    with pytest.raises(fd.CategoryDataError, match="missing F"):
        fd.loads_category(json.dumps(doc))


def test_unit_gauge_enforced(off_unit_gauge_text):
    with pytest.raises(fd.CategoryDataError, match="unit label is not the identity"):
        fd.loads_category(off_unit_gauge_text)


def test_parse_failure():
    with pytest.raises(fd.CategoryDataError, match="JSON"):
        fd.loads_category("{not json")


def test_label_range_violation():
    doc = json.loads(fd.emit_category(fd.builtin_category("trivial")))
    doc["dual"] = [5]
    with pytest.raises(fd.CategoryDataError):
        fd.loads_category(json.dumps(doc))


def test_ring_associativity_violation():
    doc = json.loads(fd.emit_category(fd.builtin_category("fibonacci")))
    # drop the (t,t)->t channel: breaks associativity of the ring
    doc["fusion"] = [row for row in doc["fusion"] if row[:3] != [1, 1, 1]]
    doc["F"] = [e for e in doc["F"] if True]
    with pytest.raises(fd.CategoryDataError):
        fd.loads_category(json.dumps(doc))


# -- negative controls -------------------------------------------------------


def test_negated_r_symbol_breaks_hexagon(categories):
    data = categories["fibonacci"]
    bad = fd.CategoryData(
        data.ring,
        data.F,
        {**data.R, (1, 1, 0, 0, 0): -data.R[(1, 1, 0, 0, 0)]},
        data.twist,
    )
    rep = fd.verify_coherence(bad, 1e-9)
    hex_res = max(r.residual for r in rep.records if r.id == "hexagon")
    assert hex_res > 0.1


def test_perturbed_f_breaks_pentagon(categories):
    data = categories["ising"]
    key = (1, 1, 1, 1, 0, 0, 0, 0, 0, 0)
    bad = fd.CategoryData(
        data.ring, {**data.F, key: data.F[key] * 1.5}, data.R, data.twist
    )
    rep = fd.verify_coherence(bad, 1e-9)
    pent = max(r.residual for r in rep.records if r.id == "pentagon")
    assert pent > 1e-2


def test_nonunitary_gauge_reported(categories):
    data = categories["z2_semion"]
    bad = fd.CategoryData(
        data.ring, data.F, {**data.R, (1, 1, 0, 0, 0): -3j}, data.twist
    )
    rep = fd.verify_coherence(bad, 1e-9)
    runit = max(r.residual for r in rep.records if r.id == "r_unitary")
    assert runit > 1.0
