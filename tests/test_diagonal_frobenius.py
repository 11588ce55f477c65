import cmath
import dataclasses
import json
import math

import numpy as np
import pytest

from mtcalc import fusion_data as fd
from mtcalc import graphcalc as gc
from mtcalc import diagonal_frobenius as df
from mtcalc.deligne_double import DoubleMorphism, DoubleObject, assignments, pair_layer

import bending_oracle as bo
import comult_oracle
from conftest import edited

BUILTINS = fd.BUILTIN_NAMES
PHI = (1 + math.sqrt(5)) / 2

# regression constants, frozen from the closed-diagram evaluation
FIB_TTT = -0.24293413587832277 + 0.7476743906106103j
FIB_TT1 = -0.49999999999999983 - 0.3632712640026806j


# -- pairing -----------------------------------------------------------------


# The product tensor's entry mult[(a1, a2, a3)][i, j] is the pairing of the
# basis covertex (a1 a2 <- a3; i) with its dual-label twin j.


def test_pairing_trivial(algebras):
    assert algebras["trivial"].mult[(0, 0, 0)][0, 0] == 1.0


@pytest.mark.parametrize("name", BUILTINS)
def test_pairing_unit_entries(algebras, name):
    alg = algebras[name]
    e = alg.data.unit
    for a in range(alg.data.size):
        assert abs(alg.mult[(e, a, a)][0, 0] - 1.0) < 1e-12
        assert abs(alg.mult[(a, e, a)][0, 0] - 1.0) < 1e-12


def test_pairing_fibonacci_frozen(algebras):
    alg = algebras["fibonacci"]
    data = alg.data
    for key, want in (((1, 1, 1), FIB_TTT), ((1, 1, 0), FIB_TT1)):
        assert abs(alg.mult[key][0, 0] - want) < 1e-12
        fl = gc.CovertexVector.basis(data, *key)
        fr = gc.CovertexVector.basis(data, *(data.dual(a) for a in key))
        assert df.pairing_coefficient_general(data, fl, fr) == alg.mult[key][0, 0]


# -- construction ------------------------------------------------------------


def test_build_trivial(algebras):
    alg = algebras["trivial"]
    assert alg.object.summands == ((0, 0),)
    assert alg.mult[(0, 0, 0)][0, 0] == 1.0
    assert alg.phi[0] == 1.0


def test_build_fibonacci_summands_and_phi(algebras):
    alg = algebras["fibonacci"]
    assert alg.object.summands == ((0, 0), (1, 1))
    want = cmath.exp(-4j * math.pi / 5) / PHI
    assert abs(alg.phi[1] - want) < 1e-9


def test_phi_nonzero(algebras):
    for alg in algebras.values():
        for a, val in alg.phi.items():
            assert abs(val) > 1e-9


def test_degenerate_data_aborts(categories):
    data = categories["fibonacci"]
    key = (1, 1, 1, 1, 0, 0, 0, 0, 0, 0)
    bad = edited(data, F={key: 1e13})
    # loop value 1/F is driven to zero: the build must refuse
    with pytest.raises(ValueError, match="degenerate"):
        df.build_diagonal_algebra(bad)


# -- axiom suites --------------------------------------------------------------


@pytest.mark.parametrize("name", BUILTINS)
def test_algebra_axioms(algebras, name):
    rep = df.verify_algebra_axioms(algebras[name], 1e-9)
    assert rep.passed, [r for r in rep.records if not r.ok]


@pytest.mark.parametrize("name", BUILTINS)
def test_frobenius(algebras, name):
    rep = df.verify_frobenius(algebras[name], 1e-9)
    assert rep.passed, [r for r in rep.records if not r.ok]


@pytest.mark.parametrize("name", BUILTINS)
def test_invariant_form(algebras, name):
    rep = df.verify_invariant_form(algebras[name], 1e-9)
    assert rep.passed, [r for r in rep.records if not r.ok]


def test_twist_trivial_exactly(algebras):
    data = algebras["ising"].data
    for a, ap in algebras["ising"].object.summands:
        assert data.twist[a] / data.twist[ap] == 1.0


# -- basis independence ---------------------------------------------------------


@pytest.mark.parametrize("name", ("fibonacci", "ising"))
def test_mult_independent_of_vertex_basis(categories, name):
    data = categories[name]
    rng = np.random.default_rng(11)

    transforms = {}
    for a in range(data.size):
        for b in range(data.size):
            for c in range(data.size):
                n = data.n(a, b, c)
                if n:
                    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                    transforms[(a, b, c)] = m

    def rebased_pairing(d, fl, fr):
        # the covertex dual to the transformed vertex basis carries the
        # inverse-transpose coefficients
        ul = np.linalg.inv(transforms[(fl.a1, fl.a2, fl.a3)]).T
        ur = np.linalg.inv(transforms[(fr.a1, fr.a2, fr.a3)]).T
        i = int(np.argmax(np.abs(fl.array)))
        j = int(np.argmax(np.abs(fr.array)))
        flt = gc.CovertexVector(fl.a1, fl.a2, fl.a3, tuple(ul[:, i]))
        frt = gc.CovertexVector(fr.a1, fr.a2, fr.a3, tuple(ur[:, j]))
        return df.pairing_coefficient_general(d, flt, frt)

    alg = df.build_diagonal_algebra(data)
    alg_t = df.build_diagonal_algebra(data, rebased_pairing)
    # reassemble the transformed tensor in the original vertex basis
    worst = 0.0
    for key, block in alg.mult.items():
        u = transforms[key]
        up = transforms[tuple(data.dual(x) for x in key)]
        back = u @ alg_t.mult[key] @ up.T
        worst = max(worst, float(np.max(np.abs(back - block))))
    assert worst < 1e-9


# -- negative controls ----------------------------------------------------------


def test_opposite_crossing_fails_form_identities(categories, monkeypatch):
    data = categories["fibonacci"]
    monkeypatch.setattr(df, "PAIRING_SENSE", "+")
    alg = df.build_diagonal_algebra(data)
    monkeypatch.undo()
    # still a commutative associative algebra (the mirror reading) ...
    assert df.verify_algebra_axioms(alg, 1e-9).passed
    # ... but the invariant-form identities reject it
    rep = df.verify_invariant_form(alg, 1e-9)
    assert not rep.passed
    worst = {r.id: r.residual for r in rep.records}
    assert worst["form_roundtrip"] > 1e-2


def test_scaled_phi_detected(algebras):
    # scaling one form coefficient leaves a perfectly good coalgebra
    # (coassociativity and counit laws survive) but the scaled map is no
    # longer a module map: both Frobenius compatibility and the roundtrip
    # against the reconstructed iso flag it
    alg = algebras["fibonacci"]
    scaled = df.FullFieldAlgebraData(
        alg.data, alg.object, alg.mult, {**alg.phi, 1: 2.0 * alg.phi[1]}
    )
    rep = df.verify_frobenius(scaled, 1e-9)
    res = {r.id: r.residual for r in rep.records}
    assert res["coassociativity"] < 1e-9
    assert res["counit_left"] < 1e-9 and res["counit_right"] < 1e-9
    assert res["frobenius_left"] > 1e-2 and res["frobenius_right"] > 1e-2
    rep = df.verify_invariant_form(scaled, 1e-9)
    worst = {r.id: r.residual for r in rep.records}
    assert worst["form_roundtrip"] > 1e-2
    assert worst["form_invariance"] > 1e-2


def test_dropped_phase_breaks_invariance(algebras):
    alg = algebras["fibonacci"]
    data = alg.data
    nophase = {
        a: 1.0 / gc.categorical_dim(data, a) for a, _ in alg.object.summands
    }
    broken = df.FullFieldAlgebraData(data, alg.object, alg.mult, nophase)
    rep = df.verify_invariant_form(broken, 1e-9)
    worst = {r.id: r.residual for r in rep.records}
    floor = abs(1 - data.twist[1] ** 2) * abs(alg.mult[(1, 1, 1)][0, 0]) * 0.5
    assert worst["form_invariance"] > min(floor, 1e-1)


# -- serialization ---------------------------------------------------------------


def test_algebra_roundtrip(algebras):
    alg = algebras["ising"]
    text = df.emit_algebra(alg)
    back = df.loads_algebra(text)
    assert back.object.summands == alg.object.summands
    assert all(
        np.max(np.abs(back.mult[k] - alg.mult[k])) == 0.0 for k in alg.mult
    )
    assert back.phi == {a: complex(v) for a, v in alg.phi.items()}
    assert df.emit_algebra(back) == text


@pytest.mark.parametrize("dropped, missing", [
    # one row of the channel (3 3 -> 3), which has N = 2 on both sides
    ([3, 3, 3, 1, 0], "(3, 3, 3, 1, 0)"),
    # the whole channel (1' 1'' -> 1)
    ([1, 2, 0], "(1, 2, 0, 0, 0)"),
], ids=["row", "channel"])
def test_missing_mult_entry_is_named(rep_a4_random, dropped, missing):
    doc = json.loads(df.emit_algebra(df.build_diagonal_algebra(rep_a4_random)))
    doc["mult"] = [row for row in doc["mult"] if row[:len(dropped)] != dropped]
    with pytest.raises(fd.CategoryDataError) as err:
        df.loads_algebra(doc)
    assert str(err.value) == f"missing mult entry {missing}"


def test_comult_tensor_extractable(algebras):
    alg = algebras["fibonacci"]
    delta = df.comult_tensor(alg)
    assert set(delta) == set(alg.mult)
    assert all(np.all(np.isfinite(b)) for b in delta.values())


def test_structure_morphism_accessors(algebras):
    alg = algebras["ising"]
    f1 = (alg.object,)
    ident = DoubleMorphism.identity(alg.data, f1)
    # multiplying against the unit from either side is the identity
    lu = df.mult_layer(alg, f1 * 2, 0) @ df.unit_layer(alg, f1, 0)
    assert lu.distance(ident) < 1e-12
    # counit and coproduct compose to the identity as well
    cl = df.counit_layer(alg, f1 * 2, 0) @ df.comult_layer(alg, f1, 0)
    assert cl.distance(ident) < 1e-12
    assert df.unit_layer(alg, (), 0).cod == f1
    assert df.counit_layer(alg, f1, 0).cod == ()


# -- the coproduct layer against its diagram oracle ------------------------------

ORACLE_CASES = [(name, n) for name in BUILTINS for n in (1, 2)]
ORACLE_CASES += [("z3", 1), ("z3", 2), ("z5", 1), ("z5", 2)]


@pytest.mark.parametrize("name, letters", ORACLE_CASES)
def test_comult_layer_matches_diagram(algebras, pointed_category, name, letters):
    if name in algebras:
        alg = algebras[name]
    else:
        alg = df.build_diagonal_algebra(pointed_category(int(name[1:])))
    word = (alg.object,) * letters
    for k in range(letters):
        local = df.comult_layer(alg, word, k)
        diagram = df._comult_diagram(alg, word, k)
        assert (local.dom, local.cod) == (diagram.dom, diagram.cod)
        assert local.distance(diagram) < 1e-12, (name, letters, k)


# -- the restricted diagram against the full walk ----------------------------------

FULL_WALK_CASES = [(name, n) for name in BUILTINS for n in (1, 2)]
FULL_WALK_CASES += [("z3", 1), ("z3", 2), ("z5", 1)]


def _algebra(algebras, pointed_category, name):
    """A fresh algebra, so that no memo of an earlier test is read."""
    data = algebras[name].data if name in algebras else pointed_category(int(name[1:]))
    return df.build_diagonal_algebra(data)


@pytest.mark.parametrize("name, letters", FULL_WALK_CASES)
def test_restricted_diagram_matches_full_walk(algebras, pointed_category, name, letters):
    # a dropped block only ever met absent keys in the composition, so the
    # restricted diagram keeps the full walk's keys and bits
    alg = _algebra(algebras, pointed_category, name)
    word = (alg.object,) * letters
    for k in range(letters):
        got = df._comult_diagram(alg, word, k)
        want = comult_oracle.comult_diagram(alg, word, k)
        assert (got.dom, got.cod) == (want.dom, want.cod)
        assert got.blocks.keys() == want.blocks.keys(), (name, letters, k)
        for key, mat in want.blocks.items():
            assert np.array_equal(got.blocks[key], mat), (name, letters, k, key)


@pytest.mark.parametrize("name", BUILTINS + ("z3", "z5"))
def test_comult_tensor_matches_full_walk(algebras, pointed_category, name):
    alg = _algebra(algebras, pointed_category, name)
    got = df.comult_tensor(alg)
    want = comult_oracle.comult_tensor(alg)
    assert got.keys() == want.keys()
    for key, block in want.items():
        assert got[key].dtype == block.dtype and got[key].shape == block.shape
        assert got[key].tobytes() == block.tobytes(), key
    # the restricted layers of the derivation never enter the memo
    assert not alg._memo


@pytest.mark.parametrize("layer, k", [(df.mult_layer, 1), (df.ev_layer, 0), (df.coev_layer, 2)])
def test_restricted_layer_is_the_full_layer_on_its_sources(algebras, layer, k):
    # the walk keeps the order of assignments(word), so the blocks come in
    # the full layer's order, and the restricted layer is never memoized
    alg = algebras["ising"]
    word = (alg.object,) * 3
    full = layer(alg, word, k)
    sources = set(assignments(word)[::2])
    got = layer(alg, word, k, sources)
    want = [(key, mat) for key, mat in full.blocks.items() if key[0] in sources]
    assert list(got.blocks) == [key for key, _ in want]
    assert all(np.array_equal(got.blocks[key], mat) for key, mat in want)
    assert layer(alg, word, k) is full
    assert got not in alg._memo.values()


def test_comult_tensor_reads_the_diagram(categories, monkeypatch):
    alg = df.build_diagonal_algebra(categories["ising"])

    def refuse(*args):
        raise AssertionError("the coproduct tensor must not come from the layer")

    monkeypatch.setattr(df, "comult_layer", refuse)
    delta = df.comult_tensor(alg)
    diagram = df._comult_diagram(alg, (alg.object,), 0)
    for (s1, s2, s3), block in delta.items():
        key = ((s3,), (s1, s2)) + alg.object.summands[s3]
        assert np.array_equal(block.ravel(), diagram.block(key).ravel())
    assert set(delta) == set(alg.mult)


# -- the counit layer against the transposed unit insertion ---------------------


def _counit_by_transpose(alg, word, k):
    """The counit as the transpose of the unit insertion on the codomain
    factor words of each assignment whose letter k is the unit summand."""
    data = alg.data
    cod = word[:k] + word[k + 1:]
    out = DoubleMorphism.zero(data, word, cod)
    eidx = alg.object.summands.index((data.unit, data.unit))

    def transposed_insert(factor_word):
        m = gc.unit_insert_morphism(data, factor_word, k)
        return gc.Morphism(
            data, m.cod, m.dom, {d: mat.T.copy() for d, mat in m.blocks.items()}
        )

    for assign in assignments(word):
        if assign[k] != eidx:
            continue
        dst = assign[:k] + assign[k + 1:]
        dl = tuple(cod[t].summands[i][0] for t, i in enumerate(dst))
        dr = tuple(cod[t].summands[i][1] for t, i in enumerate(dst))
        pair_layer(assign, dst, transposed_insert(dl), transposed_insert(dr), out)
    return out


@pytest.mark.parametrize("name", BUILTINS + ("z3",))
def test_counit_layer_matches_transposed_unit_insertion(algebras, pointed_category,
                                                        name):
    alg = algebras.get(name) or df.build_diagonal_algebra(pointed_category(3))
    for letters in (1, 2, 3):
        word = (alg.object,) * letters
        for k in range(letters):
            got = df.counit_layer(alg, word, k)
            want = _counit_by_transpose(alg, word, k)
            assert (got.dom, got.cod) == (want.dom, want.cod)
            assert list(got.blocks) == list(want.blocks), (name, letters, k)
            for key, mat in want.blocks.items():
                assert np.array_equal(got.blocks[key], mat), (name, letters, k, key)


# -- memoized layers ---------------------------------------------------------------


def test_verify_frobenius_repeats_exactly(categories):
    alg = df.build_diagonal_algebra(categories["ising"])
    first, second = (df.verify_frobenius(alg, 1e-9) for _ in range(2))
    records = lambda rep: [(r.id, r.instance, r.residual) for r in rep.records]
    assert records(first) == records(second)


def test_scaled_phi_after_memoized_layers(categories):
    # as test_scaled_phi_detected, but the unscaled algebra memoizes its
    # coproduct first; the scaled copies share mult and must not reuse it
    alg = df.build_diagonal_algebra(categories["fibonacci"])
    assert df.verify_frobenius(alg, 1e-9).passed
    phi = {**alg.phi, 1: 2.0 * alg.phi[1]}
    for scaled in (
        df.FullFieldAlgebraData(alg.data, alg.object, alg.mult, phi),
        dataclasses.replace(alg, phi=phi),
    ):
        res = {r.id: r.residual for r in df.verify_frobenius(scaled, 1e-9).records}
        assert res["coassociativity"] < 1e-9
        assert res["counit_left"] < 1e-9 and res["counit_right"] < 1e-9
        assert res["frobenius_left"] > 1e-2 and res["frobenius_right"] > 1e-2
    assert df.verify_frobenius(alg, 1e-9).passed


def test_memoized_layers_never_change(categories):
    alg = df.build_diagonal_algebra(categories["ising"])
    df.verify_frobenius(alg, 1e-9)
    saved = {
        key: (m, {b: mat.copy() for b, mat in m.blocks.items()})
        for key, m in alg._memo.items()
    }
    assert {key[0] for key in saved} >= {"comult_layer", "mult_layer", "counit_layer"}
    for suite in (df.verify_algebra_axioms, df.verify_frobenius, df.verify_invariant_form):
        suite(alg, 1e-9)
    for key, (m, blocks) in saved.items():
        assert alg._memo[key] is m
        assert m.blocks.keys() == blocks.keys()
        for b, mat in m.blocks.items():
            assert not mat.flags.writeable
            assert np.array_equal(mat, blocks[b]), key


# -- summand order ------------------------------------------------------------------


def _reversed_summands(alg):
    """``alg`` with its summands listed in reverse, mult and phi re-keyed."""
    n = len(alg.object.summands)
    flip = lambda key: tuple(n - 1 - s for s in key)
    return df.FullFieldAlgebraData(
        alg.data,
        DoubleObject(alg.object.summands[::-1]),
        {flip(key): block for key, block in alg.mult.items()},
        {n - 1 - s: value for s, value in alg.phi.items()},
    )


@pytest.mark.parametrize("name", ("fibonacci", "ising", "z5"))
def test_suites_independent_of_summand_order(algebras, pointed_category, name):
    # nothing but the summands' labels may tell a layer which pair it is on
    alg = algebras.get(name) or df.build_diagonal_algebra(pointed_category(5))
    flipped = _reversed_summands(alg)
    for suite in (df.verify_algebra_axioms, df.verify_frobenius, df.verify_invariant_form):
        want, got = (
            sorted((r.id, r.instance, r.ok, r.residual) for r in suite(a, 1e-9).records)
            for a in (alg, flipped)
        )
        assert got == want, suite.__name__
        assert all(ok for _, _, ok, _ in got), suite.__name__


# -- negative controls of the frobenius suite --------------------------------------


def _z3_file_edited(pointed_category, mult=(), phi=(), twist=()):
    """The build-ffa file of Z_3 with the given mult channels (s1, s2, s3),
    phi summands and twists of its category's labels multiplied by their
    factors, loaded again."""
    doc = json.loads(df.emit_algebra(df.build_diagonal_algebra(pointed_category(3))))
    rows = [(row, dict(mult).get(tuple(row[:3]))) for row in doc["mult"]]
    rows += [(row, dict(phi).get(row[0])) for row in doc["phi"]]
    rows += [(row, dict(twist).get(a)) for a, row in enumerate(doc["category"]["twist"])]
    for row, factor in rows:
        if factor is not None:
            row[-2:] = [x * factor for x in row[-2:]]
    return df.loads_algebra(doc)


def _mult_112_scaled(pointed_category):
    return _z3_file_edited(pointed_category, mult={(1, 1, 2): 1.5})


def _phi_0_scaled(pointed_category):
    return _z3_file_edited(pointed_category, phi={0: 1.5})


def _pairing_1_2_zeroed(pointed_category):
    # the duality channel (1, 2 -> 0) pairs to a singular (zero) block
    return _z3_file_edited(pointed_category, mult={(1, 2, 0): 0.0})


# per check id of the frobenius suite, an edited Z_3 build-ffa file that
# fails it
FROBENIUS_NEGATIVE_CONTROLS = {
    "coassociativity": _mult_112_scaled,
    "counit_left": _phi_0_scaled,
    "counit_right": _phi_0_scaled,
    "frobenius_left": _mult_112_scaled,
    "frobenius_right": _mult_112_scaled,
    "pairing_nondegenerate": _pairing_1_2_zeroed,
}


def test_every_frobenius_check_id_has_a_negative_control(algebras):
    ids = {r.id for r in df.verify_frobenius(algebras["ising"]).records}
    assert ids == set(FROBENIUS_NEGATIVE_CONTROLS)


@pytest.mark.parametrize("check_id", FROBENIUS_NEGATIVE_CONTROLS)
def test_frobenius_negative_control(pointed_category, monkeypatch, check_id):
    """The edit fails ``check_id`` with the coproduct derived on the
    restricted diagram, and the full-walk oracle fails the same records."""
    make = FROBENIUS_NEGATIVE_CONTROLS[check_id]
    restricted = df.verify_frobenius(make(pointed_category), 1e-9)
    monkeypatch.setattr(df, "_comult_diagram", comult_oracle.comult_diagram)
    full = df.verify_frobenius(make(pointed_category), 1e-9)
    failed = [{(r.id, r.instance) for r in rep.records if not r.ok}
              for rep in (restricted, full)]
    assert (check_id, ()) in failed[0]
    assert failed[0] == failed[1]


# -- negative controls of the algebra-axioms and invariant-form suites --------------


def _file_edit(**edits):
    """A control that edits the Z_3 build-ffa file only."""
    return lambda pointed_category, monkeypatch: _z3_file_edited(pointed_category, **edits)


def _doubled_braid_route(pointed_category, monkeypatch):
    # the suite's doubled braiding scaled by 2; the unedited file is read
    braid = df.double_braid_layer
    monkeypatch.setattr(df, "double_braid_layer", lambda *args: 2.0 * braid(*args))
    return _z3_file_edited(pointed_category)


# per check id of the algebra-axioms suite, a corruption on which it fails
# the id: an edit of the Z_3 build-ffa file where one exists.  The two
# commutativity routes read the same product entries and braid them by the
# same R-blocks, so they agree on any file, and commutativity_routes_agree
# needs a wrong route.  twist_trivial fails on a file whose category twists
# label 1 but not its dual 2: verify-ffa does not check the category of an
# algebra file for coherence.
ALGEBRA_NEGATIVE_CONTROLS = {
    "unit_left": _file_edit(mult={(0, 1, 1): 1.5}),
    "unit_right": _file_edit(mult={(1, 0, 1): 1.5}),
    "associativity": _file_edit(mult={(1, 1, 2): 1.5}),
    "commutativity": _file_edit(mult={(1, 2, 0): 1.5}),
    "commutativity_skew_route": _file_edit(mult={(1, 2, 0): 1.5}),
    "commutativity_routes_agree": _doubled_braid_route,
    "twist_trivial": _file_edit(twist={1: -1}),
}

# per check id of the invariant-form suite, an edited Z_3 build-ffa file
# that fails it
FORM_NEGATIVE_CONTROLS = {
    "form_invariance": _file_edit(phi={1: 1.5}),
    "pairing_symmetry": _file_edit(mult={(1, 2, 0): 1.5}),
    "form_roundtrip": _file_edit(phi={1: 1.5}),
}

CONTROLLED_SUITES = {
    "algebra-axioms": (df.verify_algebra_axioms, ALGEBRA_NEGATIVE_CONTROLS),
    "invariant-form": (df.verify_invariant_form, FORM_NEGATIVE_CONTROLS),
}


@pytest.mark.parametrize("suite", CONTROLLED_SUITES)
def test_every_algebra_and_form_check_id_has_a_negative_control(algebras, suite):
    verify, controls = CONTROLLED_SUITES[suite]
    assert {r.id for r in verify(algebras["ising"]).records} == set(controls)


@pytest.mark.parametrize("suite, check_id", [
    (suite, check_id) for suite, (_, controls) in CONTROLLED_SUITES.items()
    for check_id in controls
])
def test_algebra_and_form_negative_control(pointed_category, monkeypatch, suite, check_id):
    """The corruption fails ``check_id``; the unedited Z_3 file, which the
    wrong route is run on, passes every check of the suite."""
    verify, controls = CONTROLLED_SUITES[suite]
    assert verify(_z3_file_edited(pointed_category), 1e-9).passed
    alg = controls[check_id](pointed_category, monkeypatch)
    assert check_id in {r.id for r in verify(alg, 1e-9).records if not r.ok}


@pytest.mark.parametrize("name", BUILTINS)
def test_bent_bases_match_bend_vertex(algebras, name):
    # the invariant-form check reads all its bent bases from one table-level
    # evaluation; each column is the composed route's bent basis vertex, bit
    # for bit, and each matrix is laid out as the route's (C order), so the
    # products formed with it round as the route's did
    alg = algebras[name]
    data = alg.data
    channels = [alg.labels(key) for key in alg.mult]
    bent = df._bent_bases(data, channels)
    want = {}
    for ls, rs in channels:
        for sense, labels in (("+", ls), ("-", rs)):
            n = data.n(*labels)
            want[(f"bend{sense}", *labels)] = np.array([
                bo.bend_vertex(data, gc.VertexVector.basis(data, *labels, i), sense).array
                for i in range(n)
            ]).T
    assert bent.keys() == want.keys()
    for family, mat in bent.items():
        assert mat.flags.c_contiguous
        assert np.array_equal(mat, want[family]), family
