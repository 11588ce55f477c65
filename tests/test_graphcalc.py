import itertools
import json
import math

import numpy as np
import pytest

from mtcalc import bending, table_arrays
from mtcalc import fusion_data as fd
from mtcalc import graphcalc as gc
from mtcalc.graphcalc import (
    CovertexVector,
    Morphism,
    VertexVector,
)
from mtcalc.report import emit_report
from mtcalc.table_arrays import IMAGE_KINDS, FusingWords

import bending_oracle as bo
import coherence_oracle as co
import fusing_oracle as fo
import rigidity_oracle as ro
from conftest import edited, entries
from test_fusion_data import INCOHERENT, ORACLE_INPUTS, oracle_input  # noqa: F401

PHI = (1 + math.sqrt(5)) / 2
BUILTINS = fd.BUILTIN_NAMES


def all_vertices(data):
    return [
        VertexVector.basis(data, a, b, c, mu)
        for a in range(data.size)
        for b in range(data.size)
        for c in range(data.size)
        for mu in range(data.n(a, b, c))
    ]


# -- hom spaces ---------------------------------------------------------------


def test_hom_space_dimensions(categories):
    # dim hom(word, target) is the number of fusion trees
    fib = categories["fibonacci"]
    assert len(gc.trees(fib, (1, 1), 0)) == 1
    assert len(gc.trees(fib, (1,), 0)) == 0
    assert len(gc.trees(categories["trivial"], (0, 0), 0)) == 1
    # dimension equals the iterated fusion-multiplicity sum
    assert len(gc.trees(fib, (1, 1, 1), 1)) == 2
    assert len(gc.trees(categories["ising"], (1, 1, 1, 1), 0)) == 2


def test_tree_enumeration_deterministic(categories):
    fib = categories["fibonacci"]
    basis = gc.trees(fib, (1, 1, 1), 1)
    assert basis == (((0, 0), (1, 0)), ((1, 0), (1, 0)))


def test_hom_dimension_is_iterated_multiplicity_sum(categories):
    data = categories["ising"]
    for word in itertools.product(range(data.size), repeat=3):
        for target in range(data.size):
            want = sum(
                data.n(word[0], word[1], x) * data.n(x, word[2], target)
                for x in range(data.size)
            )
            assert len(gc.trees(data, word, target)) == want


def _per_target_trees(data, word, target):
    """The former ``trees``: one walk of the whole chain per target charge."""
    word = tuple(word)
    n = len(word)
    if n == 0:
        return ((),) if target == data.unit else ()
    if n == 1:
        return ((),) if word[0] == target else ()
    partial = [((), word[0])]
    for t in range(1, n):
        nxt = []
        for prefix, state in partial:
            for x in range(data.size):
                mult = data.n(state, word[t], x)
                if t == n - 1 and x != target:
                    continue
                for mu in range(mult):
                    nxt.append((prefix + ((x, mu),), x))
        partial = nxt
    return tuple(prefix for prefix, _ in partial)


@pytest.mark.parametrize("name", ["ising", "fibonacci"])
def test_one_walk_trees_match_per_target_walk(name):
    data = fd.builtin_category(name)
    for length in range(5):
        for word in itertools.product(range(data.size), repeat=length):
            by_charge = gc.word_trees(data, word)
            assert all(by_charge.values())
            for target in range(data.size):
                want = _per_target_trees(data, word, target)
                assert gc.trees(data, word, target) == want
                assert by_charge.get(target, ()) == want


def test_omitted_block_is_zero(categories):
    data = categories["fibonacci"]
    full = 2.0 * gc.braid_morphism(data, (1, 1), 0, "+")
    back = gc.braid_morphism(data, (1, 1), 0, "-")
    assert set(full.blocks) == {0, 1}
    sparse = Morphism(data, (1, 1), (1, 1), {1: full.blocks[1]})
    dense = Morphism(
        data, (1, 1), (1, 1), {0: np.zeros((1, 1), complex), 1: full.blocks[1]}
    )
    assert sparse.distance(dense) == 0.0 and dense.distance(sparse) == 0.0
    assert np.array_equal(sparse.block(0), np.zeros((1, 1)))
    for got, want in [
        (full + sparse, full + dense),
        (sparse + full, dense + full),
        (full - sparse, full - dense),
        (sparse - full, dense - full),
        (back @ sparse, back @ dense),
        (sparse @ back, dense @ back),
    ]:
        # blockwise, so that no arithmetic under test judges itself
        for d in range(data.size):
            assert np.array_equal(got.block(d), want.block(d))
    # a closed diagram whose unit block is omitted has the value zero
    loop = gc.cap_morphism(data, (1, 1), 0, 1, 1) @ gc.cup_morphism(data, (), 0, 1, 1)
    assert abs(loop.scalar()) > 0.1
    assert Morphism(data, (), (), {}).scalar() == 0.0
    assert Morphism.zero(data, (), ()).scalar() == 0.0


def test_morphism_composition_associative_and_identity_exact(categories):
    data = categories["fibonacci"]
    word = (1, 1, 1)
    rng = np.random.default_rng(17)
    ms = []
    cur = word
    for k in (0, 1, 0):
        m = gc.braid_morphism(data, cur, k, "+")
        scale = complex(rng.normal(), rng.normal())
        ms.append(scale * m)
        cur = m.cod
    assert ((ms[2] @ ms[1]) @ ms[0]).distance(ms[2] @ (ms[1] @ ms[0])) < 1e-12
    ident = Morphism.identity(data, word)
    for d, blk in ident.blocks.items():
        assert np.array_equal(blk, np.eye(blk.shape[0]))
    assert (ident @ ms[0].__class__.identity(data, word)).distance(ident) == 0.0


# -- moves --------------------------------------------------------------------


def test_f_move_trivial(categories):
    blk = categories["trivial"].f_block(0, 0, 0, 0)
    assert blk.shape == (1, 1) and blk[0, 0] == 1.0


def test_f_move_fibonacci_entry(categories):
    blk = categories["fibonacci"].f_block(1, 1, 1, 1)
    assert blk.shape == (2, 2)
    assert abs(blk[0, 0] - 1 / PHI) < 1e-9


@pytest.mark.parametrize("name", BUILTINS)
def test_f_move_invertible(categories, name):
    data = categories[name]
    for labels in itertools.product(range(data.size), repeat=4):
        blk = data.f_block(*labels)
        if blk.size == 0:
            continue
        inv = data.f_block_inv(*labels)
        assert np.max(np.abs(inv @ blk - np.eye(len(inv)))) < 1e-12
        assert np.max(np.abs(blk @ inv - np.eye(len(blk)))) < 1e-12


@pytest.mark.parametrize("name", BUILTINS)
def test_r_move_inverse(categories, name):
    data = categories[name]
    for a in range(data.size):
        for b in range(data.size):
            fwd = gc.braid_morphism(data, (a, b), 0, "+")
            back = gc.braid_morphism(data, (b, a), 0, "-")
            assert (back @ fwd).distance(Morphism.identity(data, (a, b))) < 1e-12


@pytest.mark.parametrize("name", BUILTINS)
def test_double_braiding_ribbon_identity(categories, name):
    data = categories[name]
    for a in range(data.size):
        for b in range(data.size):
            dbl = gc.braid_morphism(data, (b, a), 0, "+") @ gc.braid_morphism(
                data, (a, b), 0, "+"
            )
            for c in range(data.size):
                n = data.n(a, b, c)
                if n:
                    want = data.twist[c] / (data.twist[a] * data.twist[b])
                    res = np.max(np.abs(dbl.block(c) - want * np.eye(n)))
                    assert res < 1e-9


# -- duality ------------------------------------------------------------------


@pytest.mark.parametrize("name", BUILTINS)
def test_closed_loop_equals_inverse_fusing_scalar(categories, name):
    data = categories[name]
    for a in range(data.size):
        coev_right, _, _, ev_left = _duality_maps(data, a)
        loop = (lambda word: coev_right, lambda word: ev_left)
        val = gc.evaluate_diagram(data, (), loop).scalar()
        assert abs(val - 1.0 / gc.duality_fusing_scalar(data, a)) < 1e-9
        assert abs(val - gc.categorical_dim(data, a)) < 1e-12


def test_loop_values(categories):
    assert abs(gc.categorical_dim(categories["fibonacci"], 1) - PHI) < 1e-9
    assert abs(gc.categorical_dim(categories["ising"], 1) - math.sqrt(2)) < 1e-9
    # the self-dual semion carries a negative loop value (pseudo-real label)
    assert abs(gc.categorical_dim(categories["z2_semion"], 1) + 1.0) < 1e-12


def test_duality_fusing_scalar_examples(categories):
    assert gc.duality_fusing_scalar(categories["trivial"], 0) == 1.0
    assert abs(gc.duality_fusing_scalar(categories["fibonacci"], 1) - 1 / PHI) < 1e-9
    fib = categories["fibonacci"]
    assert gc.duality_fusing_scalar(fib, 1) == gc.duality_fusing_scalar(
        fib, fib.dual(1)
    )


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_unit_channel_entry_reads_the_list_bases_entry(oracle_input, name):
    """The fusing-entry routes read F and its inverse at the table's (e, 0,
    0) row and column: the entry the list bases' ``.index`` finds, and the
    F entry (``entries``) for the duality fusing scalar, bit for bit."""
    data = oracle_input(name)
    F = entries(data)[0]
    e = data.unit
    for a in range(data.size):
        ap = data.dual(a)
        assert gc.duality_fusing_scalar(data, a) == F[(a, ap, a, a, e, e, 0, 0, 0, 0)]
        for word in ((a, ap, a, a), (ap, a, ap, ap)):
            r = co.f_right_basis(data, *word).index((e, 0, 0))
            c = co.f_left_basis(data, *word).index((e, 0, 0))
            assert gc._unit_channel_entry(data, *word) == data.f_block(*word)[r, c]
            assert gc._unit_channel_entry(data, *word, inverse=True) == (
                data.f_block_inv(*word)[c, r]
            )


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_generator_f_blocks_match_the_list_bases(oracle_input, name):
    """The F-block bases the generators read off the table (``_f_basis``)
    are the list bases: the rows are the right trees (x, i, j), and the
    columns (y, l, k) the trees of ``trees`` in order, so the generators
    read F and its inverse as stored."""
    data = oracle_input(name)
    for word in zip(*(lab.tolist() for lab in data._f_table.labels)):
        p, a, b, q = word
        rows, cols = gc._f_basis(data, *word)
        assert rows == {x: n for n, x in enumerate(co.f_right_basis(data, *word))}
        assert cols == {(y, l, k): n for n, (y, k, l) in enumerate(co.f_left_basis(data, *word))}
        assert list(cols) == [(y, l, k) for (y, l), (_, k) in gc.trees(data, (p, a, b), q)]


def _duality_maps(data, a):
    """The cups (loop-value scaled) and caps of ``a``, as rigidity's zigzags
    apply them: (a, a') and (a', a) created from the unit, each scaled by
    the loop value of ``a``, and (a', a) and (a, a') annihilated."""
    ap = data.dual(a)
    dim = gc.categorical_dim(data, a)
    return (
        dim * gc.cup_morphism(data, (), 0, a, ap),
        gc.cap_morphism(data, (ap, a), 0, ap, a),
        dim * gc.cup_morphism(data, (), 0, ap, a),
        gc.cap_morphism(data, (a, ap), 0, a, ap),
    )


def test_duality_maps_trivial(categories):
    for m in _duality_maps(categories["trivial"], 0):
        assert m.norm() == 1.0


def test_closed_right_loop_is_dim(categories):
    fib = categories["fibonacci"]
    coev_right, _, _, ev_left = _duality_maps(fib, 1)
    loop = ev_left @ coev_right
    assert abs(loop.scalar() - PHI) < 1e-9


@pytest.mark.parametrize("name", BUILTINS)
def test_rigidity(categories, name):
    rep = gc.verify_rigidity(categories[name], 1e-9)
    assert rep.passed, [r for r in rep.records if not r.ok]


def test_rigidity_detects_scaled_coevaluation(categories):
    data = categories["fibonacci"]
    a = 1
    scaled = 2.0 * gc.categorical_dim(data, a) * gc.cup_morphism(
        data, (a,), 0, a, data.dual(a)
    )
    zig = gc.cap_morphism(data, (a, data.dual(a), a), 1, data.dual(a), a) @ scaled
    assert abs(zig.distance(Morphism.identity(data, (a,))) - 1.0) < 1e-9


# -- diagrams -----------------------------------------------------------------


def test_empty_diagram(categories):
    assert gc.evaluate_diagram(categories["trivial"], (), ()).scalar() == 1.0


def test_twist_kink(categories):
    for name in BUILTINS:
        data = categories[name]
        for a in range(data.size):
            coev_right, _, _, ev_left = _duality_maps(data, a)
            kink = (
                lambda word: coev_right,
                lambda word: bo.twist_morphism(data, word, 0, "+"),
                lambda word: ev_left,
            )
            val = gc.evaluate_diagram(data, (), kink).scalar()
            want = data.twist[a] * gc.categorical_dim(data, a)
            assert abs(val - want) < 1e-9


def test_boundary_mismatch_raises(categories):
    data = categories["fibonacci"]
    # a step applied to a word it does not match
    cap = (lambda word: gc.cap_morphism(data, word, 0, 1, 1),)
    with pytest.raises(ValueError, match="match the word"):
        gc.evaluate_diagram(data, (1, 0), cap)


def test_yang_baxter(categories):
    data = categories["ising"]
    for word in itertools.product(range(data.size), repeat=3):
        m1 = gc.braid_morphism(data, word, 0, "+")
        m2 = gc.braid_morphism(data, m1.cod, 1, "+")
        m3 = gc.braid_morphism(data, m2.cod, 0, "+")
        n1 = gc.braid_morphism(data, word, 1, "+")
        n2 = gc.braid_morphism(data, n1.cod, 0, "+")
        n3 = gc.braid_morphism(data, n2.cod, 1, "+")
        assert (m3 @ m2 @ m1).distance(n3 @ n2 @ n1) < 1e-12


# -- vertex calculus ----------------------------------------------------------


@pytest.mark.parametrize("cls", (VertexVector, CovertexVector))
@pytest.mark.parametrize("mu", (-1, 1))
def test_basis_multiplicity_out_of_range(categories, cls, mu):
    # N_{tau tau}^{tau} = 1: a negative index must not wrap to the last one
    with pytest.raises(ValueError, match="multiplicity"):
        cls.basis(categories["fibonacci"], 1, 1, 1, mu)


@pytest.mark.parametrize("vec", ((), (1.0, 0.0)))
def test_vector_length_must_match_multiplicity(categories, vec):
    fib = categories["fibonacci"]
    with pytest.raises(ValueError, match="length"):
        bo.bend_vertex(fib, VertexVector(1, 1, 0, vec), "+")
    with pytest.raises(ValueError, match="length"):
        bo.bend_covertex(fib, CovertexVector(1, 1, 0, vec), "+")


@pytest.mark.parametrize("name", BUILTINS)
def test_swap_vertex_inverse(categories, name):
    data = categories[name]
    for v in all_vertices(data):
        w = bo.swap_vertex(data, bo.swap_vertex(data, v, "+"), "-")
        assert np.max(np.abs(w.array - v.array)) < 1e-12
        w = bo.swap_vertex(data, bo.swap_vertex(data, v, "-"), "+")
        assert np.max(np.abs(w.array - v.array)) < 1e-12


@pytest.mark.parametrize("name", BUILTINS)
def test_bend_unbend_inverse(categories, name):
    data = categories[name]
    for sense in ("+", "-"):
        for v in all_vertices(data):
            w = bo.unbend_vertex(data, bo.bend_vertex(data, v, sense), sense)
            assert np.max(np.abs(w.array - v.array)) < 1e-12
            u = bo.bend_vertex(data, bo.unbend_vertex(data, v, sense), sense)
            assert np.max(np.abs(u.array - v.array)) < 1e-12


@pytest.mark.parametrize("name", BUILTINS)
def test_swapped_duality_vertex_phase(categories, name):
    # composing the duality vertex with the braid produces the twist phase
    data = categories[name]
    for a in range(data.size):
        ap = data.dual(a)
        got = bo.swap_vertex(
            data, VertexVector.basis(data, a, ap, data.unit), "+"
        )
        want = data.twist[a].conjugate() * VertexVector.basis(
            data, ap, a, data.unit
        ).array
        assert np.max(np.abs(got.array - want)) < 1e-9


@pytest.mark.parametrize("name", BUILTINS)
def test_bent_unit_vertices(categories, name):
    data = categories[name]
    for a in range(data.size):
        ap = data.dual(a)
        e = data.unit
        got = bo.bend_vertex(data, VertexVector.basis(data, e, ap, ap), "+")
        want = VertexVector.basis(data, e, a, a)
        assert np.max(np.abs(got.array - want.array)) < 1e-9
        got = bo.bend_vertex(data, VertexVector.basis(data, ap, e, ap), "+")
        want = data.twist[a] * VertexVector.basis(data, ap, a, e).array
        assert np.max(np.abs(got.array - want)) < 1e-9


@pytest.mark.parametrize("name", BUILTINS)
def test_rotation_order_three(categories, name):
    data = categories[name]
    for v in all_vertices(data):
        w = v
        for _ in range(3):
            w = bo.rotate_vertex(data, w)
        assert (w.a1, w.a2, w.a3) == (v.a1, v.a2, v.a3)
        assert np.max(np.abs(w.array - v.array)) < 1e-9
        u = bo.rotate_vertex_inv(data, bo.rotate_vertex(data, v))
        assert np.max(np.abs(u.array - v.array)) < 1e-9


@pytest.mark.parametrize("name", BUILTINS)
def test_rotation_independent_of_sense(categories, name):
    data = categories[name]
    for v in all_vertices(data):
        x = bo.swap_vertex(data, bo.bend_vertex(data, v, "+"), "+")
        y = bo.swap_vertex(data, bo.bend_vertex(data, v, "-"), "-")
        assert np.max(np.abs(x.array - y.array)) < 1e-12


@pytest.mark.parametrize("name", ("z2_semion", "fibonacci", "ising"))
def test_bent_covertex_dual_pairing(categories, name):
    data = categories[name]
    for sense in ("+", "-"):
        for a in range(data.size):
            for b in range(data.size):
                for c in range(data.size):
                    n = data.n(a, b, c)
                    for i in range(n):
                        ei = bo.bend_vertex(
                            data, VertexVector.basis(data, a, b, c, i), sense
                        )
                        for j in range(n):
                            fj = bo.bend_covertex(
                                data, CovertexVector.basis(data, a, b, c, j), sense
                            )
                            comp = bo.vertex_morphism(data, ei) @ fj.at(data, (fj.a3,), 0)
                            want = (1.0 if i == j else 0.0) * Morphism.identity(
                                data, (data.dual(b),)
                            )
                            assert comp.distance(want) < 1e-9


def test_bent_covertex_prefactor(categories):
    # the stated loop-value ratio is what normalizes the dual pairing:
    # removing it from the tau tau -> unit covertex leaves 1/phi behind
    data = categories["fibonacci"]
    ratio = gc.categorical_dim(data, 1) / gc.categorical_dim(data, 0)
    assert abs(ratio - PHI) < 1e-9
    ei = bo.bend_vertex(data, VertexVector.basis(data, 1, 1, 0), "+")
    fj = bo.bend_covertex(data, CovertexVector.basis(data, 1, 1, 0), "+")
    unscaled = (1.0 / ratio) * (bo.vertex_morphism(data, ei) @ fj.at(data, (fj.a3,), 0))
    assert abs(unscaled.block(1)[0, 0] - 1 / PHI) < 1e-9


def _oracle_completeness(data) -> np.ndarray:
    return np.array([[ro.completeness_defect(data, a, b) for b in range(data.size)]
                     for a in range(data.size)])


@pytest.mark.parametrize("name", BUILTINS)
def test_completeness(categories, name):
    assert (_oracle_completeness(categories[name]) < 1e-9).all()


def _unit_f_nudged(data):
    """``data`` with every entry of the F-blocks F(e, a, b, q) moved by
    1e-13, inside the loader's 1e-12 unit-gauge check."""
    F = {key: value + 1e-13 * np.exp(1j * n)
         for n, (key, value) in enumerate(entries(data)[0].items()) if key[0] == data.unit}
    return edited(data, F=F)


def _inverses_perturbed(data):
    """A fresh copy of ``data`` whose stored F-block inverses, which both
    routes read, are each off by about 1e-6 at random: every completeness
    residual is then about 1e-6, and differs from charge to charge.  The
    copy is the only reader of the perturbed inverses."""
    data = edited(data)
    table, rng = data._f_table, np.random.default_rng(7)
    moved = [(inv + 1e-6 * rng.normal(size=inv.shape), singular)
             for inv, singular in table.inverses()]
    table.inverses = lambda: moved
    return data


COMPLETENESS_EDITS = {"unit_f_nudged": _unit_f_nudged,
                      "inverses_perturbed": _inverses_perturbed}


@pytest.mark.parametrize("name", BUILTINS + (
    "z3", "z5", "z7", "z9", "rep_a4_random", "near_group_random",
    "rep_a4_random:unit_f_nudged", "near_group_random:unit_f_nudged",
    "ising:inverses_perturbed", "z5:inverses_perturbed",
    "rep_a4_random:inverses_perturbed", "near_group_random:inverses_perturbed",
))
def test_completeness_records_match_composed_route(
    categories, pointed_category, rep_a4_random, near_group_random, name
):
    """The suite's completeness residuals, read off the stacked unit
    F-blocks, are the composed route's bit for bit.  On the edited inputs
    some residuals are not zero: the unit F-entries nudged within the
    loader's gate leave round-off in the blocks with multiplicities, and
    perturbed inverses leave about 1e-6 in every block."""
    base, _, edit = name.partition(":")
    if base in ("z3", "z5", "z7", "z9"):
        data = pointed_category(int(base[1:]))
    else:
        data = {"rep_a4_random": rep_a4_random,
                "near_group_random": near_group_random}.get(base) or categories[base]
    if edit:
        data = COMPLETENESS_EDITS[edit](data)
    want = _oracle_completeness(data)
    got = np.zeros_like(want)
    for r in gc.verify_rigidity(data).records:
        if r.id == "completeness":
            got[r.instance] = r.residual
    assert np.array_equal(got, want)
    if edit:
        assert want.any()


@pytest.mark.parametrize("name", BUILTINS)
def test_vertex_covertex_duality_exact(categories, name):
    data = categories[name]
    for a in range(data.size):
        for b in range(data.size):
            for c in range(data.size):
                for mu in range(data.n(a, b, c)):
                    down = gc.vertex_morphism(data, (a, b), 0, a, b, c, mu)
                    up = gc.covertex_morphism(data, (c,), 0, a, b, c, mu)
                    assert (down @ up).distance(Morphism.identity(data, (c,))) == 0.0


@pytest.mark.parametrize("name", BUILTINS + ("rep_a4_random",))
def test_generators_at_every_position(categories, rep_a4_random, name):
    """Inverse pairs of generators on every 3-letter word and every position."""
    data = rep_a4_random if name == "rep_a4_random" else categories[name]
    e = data.unit
    worst = 0.0
    for word in itertools.product(range(data.size), repeat=3):
        ident = Morphism.identity(data, word)
        for k in range(3):
            c = word[k]
            for a, b in itertools.product(range(data.size), repeat=2):
                for mu in range(data.n(a, b, c)):
                    up = gc.covertex_morphism(data, word, k, a, b, c, mu)
                    for nu in range(data.n(a, b, c)):
                        down = gc.vertex_morphism(data, up.cod, k, a, b, c, nu)
                        want = (1.0 if mu == nu else 0.0) * ident
                        worst = max(worst, (down @ up).distance(want))
            ins = gc.unit_insert_morphism(data, word, k)
            fuse = gc.vertex_morphism(data, ins.cod, k, e, c, c, 0)
            worst = max(worst, (fuse @ ins).distance(ident))
        for k in range(2):
            a, b = word[k], word[k + 1]
            total = Morphism.zero(data, word, word)
            for c in range(data.size):
                for mu in range(data.n(a, b, c)):
                    down = gc.vertex_morphism(data, word, k, a, b, c, mu)
                    up = gc.covertex_morphism(data, down.cod, k, a, b, c, mu)
                    total = total + up @ down
            worst = max(worst, total.distance(ident))
            fwd = gc.braid_morphism(data, word, k, "+")
            back = gc.braid_morphism(data, fwd.cod, k, "-")
            worst = max(worst, (back @ fwd).distance(ident))
        for k in range(4):
            for a in range(data.size):
                ap = data.dual(a)
                cup = gc.cup_morphism(data, word, k, a, ap)
                cap = gc.cap_morphism(data, cup.cod, k, a, ap)
                worst = max(worst, (cap @ cup).distance(ident))
            ins = gc.unit_insert_morphism(data, word, k)
            out = gc.unit_remove_morphism(data, ins.cod, k)
            assert (out @ ins).distance(ident) == 0.0, (word, k)
    assert worst < 1e-12


@pytest.mark.parametrize("name", BUILTINS + ("rep_a4_random",))
def test_weighted_generators_match_basis_sums(categories, rep_a4_random, name):
    """A weighted (co)vertex is the weighted sum of its basis (co)vertices."""
    data = rep_a4_random if name == "rep_a4_random" else categories[name]
    rng = np.random.default_rng(5)

    def defect(weighted, basis, word, k, a, b, c):
        n = data.n(a, b, c)
        w = tuple(complex(x, y) for x, y in rng.normal(size=(n, 2)))
        got = weighted(data, word, k, a, b, c, w)
        want = Morphism.zero(data, word, got.cod)
        for mu in range(n):
            want = want + w[mu] * basis(data, word, k, a, b, c, mu)
        return got.distance(want)

    labels = range(data.size)
    worst = 0.0
    for word in itertools.product(labels, repeat=3):
        for k, a, b in itertools.product(range(3), labels, labels):
            c = word[k]
            if data.n(a, b, c):
                d = defect(gc.weighted_covertex, gc.covertex_morphism, word, k, a, b, c)
                worst = max(worst, d)
        for k, c in itertools.product(range(2), labels):
            a, b = word[k], word[k + 1]
            if data.n(a, b, c):
                d = defect(gc.weighted_vertex, gc.vertex_morphism, word, k, a, b, c)
                worst = max(worst, d)
    assert worst < 1e-12


# -- symmetry suites ----------------------------------------------------------


@pytest.mark.parametrize("name", BUILTINS)
def test_fusing_symmetries(categories, name):
    rep = gc.verify_fusing_symmetries(categories[name], 1e-9)
    assert rep.passed, [r for r in rep.records if not r.ok]


def test_trivialized_twist_detected(categories):
    data = categories["fibonacci"]
    bad = edited(data, twist=[1.0, 1.0])
    rep = gc.verify_fusing_symmetries(bad, 1e-9)
    phase = [r for r in rep.records if r.id.startswith("duality_vertex_phase")]
    worst = max(r.residual for r in phase)
    expected = abs(1 - data.twist[1])
    assert worst > 0.5 and abs(worst - expected) < 0.2


# -- fusing matrices against Morphism composition -----------------------------


def _composed_fusing_matrix_in_bases(data, word, d, outer_right, inner_right,
                                     outer_left, inner_left, y_side):
    """The oracle: each row is the composite Morphism of the two vertices,
    applied to the words through ``bending_oracle.vertex_at``, read at charge
    d; the rows are listed as ``fusing_oracle.fusing_matrix_in_bases`` lists
    them."""
    w0, w1, w2 = word
    tre = gc.trees(data, word, d)
    if not tre:
        return [], [], np.zeros((0, 0))
    rights, rvecs = [], []
    for x in sorted(outer_right):
        for io, yo, ii, yi in fo.vertex_pairs(outer_right[x], inner_right[x], y_side == "right"):
            rights.append((x, io, ii))
            comp = bo.vertex_at(data, yo, (w0, x), 0) @ bo.vertex_at(data, yi, word, 1)
            rvecs.append(comp.block(d)[0, :])
    lefts, lvecs = [], []
    for y in sorted(outer_left):
        for io, yo, ii, yi in fo.vertex_pairs(outer_left[y], inner_left[y], y_side == "left"):
            lefts.append((y, io, ii))
            comp = bo.vertex_at(data, yo, (y, w2), 0) @ bo.vertex_at(data, yi, word, 0)
            lvecs.append(comp.block(d)[0, :])
    U = np.array(rvecs).reshape(len(rights), len(tre))
    V = np.array(lvecs).reshape(len(lefts), len(tre))
    return rights, lefts, U @ np.linalg.inv(V)


def _batched_fusing_matrices(data) -> dict:
    """Every braid and bend matrix of the batched suite, by (route, word)."""
    words = FusingWords(data._f_table, data.ring)
    images = gc.vertex_images(data, words.families)
    out = {}
    for route, stacks in words.matrices(images).items():
        for (members, _), mats in zip(data._f_table.stacks, stacks):
            for b, mat in zip(members.tolist(), mats):
                out[route, words.keys[b]] = mat
    return out


@pytest.mark.parametrize("name", BUILTINS + ("z5", "rep_a4_random"))
def test_fusing_matrices_match_morphism_composition(
    categories, pointed_category, rep_a4_random, name
):
    """Every fusing matrix the batched suite builds, in the braid bases and
    in the bend bases, equals the composed-Morphism route word by word:
    exactly where every multiplicity is 1, to 1e-12 relative on Rep(A4)
    (N_33^3 = 2).  Its rows and columns are the composed route's right and
    left trees in the order the suite compares them with F in: F's columns
    and rows (braid), and the rows (x', j, i) and F's columns (bend)."""
    if name == "z5":
        data = pointed_category(5)
    elif name == "rep_a4_random":
        data = rep_a4_random
    else:
        data = categories[name]
    got = _batched_fusing_matrices(data)
    words = fo.nonempty_fusing_words(data)
    # one braid and one bend matrix per nonempty fusing word
    assert sorted(got) == sorted((r, w) for r in ("braid", "bend") for w in words)
    images = {}
    for word in words:
        rows, cols = co.f_right_basis(data, *word), co.f_left_basis(data, *word)
        bent_rows = sorted((data.dual(x), j, i) for x, i, j in rows)
        for route, bases, layout in (
            ("braid", fo.braid_bases, (cols, rows)),
            ("bend", fo.bend_bases, (bent_rows, cols)),
        ):
            want_r, want_l, want = _composed_fusing_matrix_in_bases(
                data, *bases(data, images, *word)
            )
            assert (want_r, want_l) == layout
            mat = got[route, word]
            assert mat.shape == want.shape
            if name != "rep_a4_random":
                assert np.array_equal(mat, want), (route, word)
            elif want.size:
                assert np.max(np.abs(mat - want)) <= 1e-12 * np.max(np.abs(want))


def _route_images_or_error(data, families):
    """The composed route's images of ``families``, per family, or the
    error of the first family whose route raises."""
    try:
        return [bo.basis_images(data, *family) for family in families], None
    except fd.CategoryDataError as exc:
        return None, str(exc)


@pytest.mark.parametrize("name", ORACLE_INPUTS + ("z7",) + tuple(INCOHERENT))
def test_basis_images_match_composed_route(oracle_input, name):
    """Every image of every basis vertex, swapped and bent in both senses,
    equals the composed-Morphism route's bit for bit: its weights and its
    row, with zeros past the image's multiplicities; where a block the
    images invert is singular, both raise the same error."""
    make = INCOHERENT.get(name)
    data = make(oracle_input) if make else oracle_input(name)
    families = [
        (kind, a, b, c) for kind in IMAGE_KINDS
        for a, b, c in itertools.product(range(data.size), repeat=3) if data.n(a, b, c)
    ]
    fresh = edited(data)
    want, error = _route_images_or_error(fresh, families)
    if error is not None:
        with pytest.raises(fd.CategoryDataError) as exc:
            gc.vertex_images(data, families)
        assert str(exc.value) == error
        assert name.startswith("z3_singular")
        return
    weights, rows = gc.vertex_images(data, families)
    assert weights.shape == rows.shape == (
        sum(len(w) for w, _ in want), data._f_table.dims[-1]
    )
    at = 0
    for family, (w, r) in zip(families, want):
        n = len(w)
        assert np.array_equal(weights[at:at + n, :n], np.array(w)), family
        assert np.array_equal(rows[at:at + n, :n], np.array(r)), family
        assert not weights[at:at + n, n:].any() and not rows[at:at + n, n:].any()
        at += n


def test_fusing_matrices_read_local_blocks(pointed_category, monkeypatch):
    """On Z_7 the fusing matrices are assembled from local blocks: once the
    basis images are in, no tree window is rewritten while the matrices of
    all words are formed."""
    data = pointed_category(7)
    inside, seen = [0], {"matrices": 0, "window": 0}
    matrices, window = FusingWords.matrices, gc._replace_window

    def matrices_spy(self, images):
        inside[0] += 1
        try:
            out = matrices(self, images)
        finally:
            inside[0] -= 1
        seen["matrices"] += sum(len(m) for stacks in out.values() for m in stacks)
        return out

    def window_spy(*args):
        seen["window"] += inside[0] > 0
        return window(*args)

    monkeypatch.setattr(FusingWords, "matrices", matrices_spy)
    monkeypatch.setattr(gc, "_replace_window", window_spy)
    rep = gc.verify_fusing_symmetries(data)
    assert rep.passed
    assert seen == {"matrices": 2 * len(fo.nonempty_fusing_words(data)), "window": 0}


def test_fusing_symmetries_bends_each_vertex_once(pointed_category, monkeypatch):
    """On Z_9 the suite bends each of the 81 basis vertices once: every
    image is formed in one table-level evaluation, and the bent unit
    vertices of the per-label records are read from it, not bent again."""
    data = pointed_category(9)
    calls = []
    images = gc.basis_images

    def spy(data, families, dims):
        calls.append(families)
        return images(data, families, dims)

    monkeypatch.setattr(gc, "basis_images", spy)
    assert gc.verify_fusing_symmetries(data).passed
    assert len(calls) == 1
    bent = [f for f in calls[0] if f[0] == "bend+"]
    assert len(bent) == len(set(bent)) == 81
    assert sum(data.n(*f[1:]) for f in bent) == 81


def _report_or_error(suite, data):
    try:
        return emit_report(suite(data, 1e-9)), None
    except fd.CategoryDataError as exc:
        return None, str(exc)


@pytest.mark.parametrize("name", ORACLE_INPUTS + ("z7",) + tuple(INCOHERENT))
def test_fusing_report_matches_oracle_bytes(oracle_input, name):
    """The batched suite writes the report of the per-word route byte for
    byte, on coherent and incoherent data; on a singular block both raise
    the same error."""
    make = INCOHERENT.get(name)
    data = make(oracle_input) if make else oracle_input(name)
    fresh = edited(data)
    got = _report_or_error(gc.verify_fusing_symmetries, data)
    assert got == _report_or_error(fo.verify_fusing_symmetries, fresh)
    report, error = got
    if name.startswith("z3_singular"):
        assert error == {
            "z3_singular_f": "F block (1, 1, 1, 0) is singular",
            "z3_singular_r": "R block (1, 2, 0) is singular",
        }[name]
    elif make:
        assert not json.loads(report)["summary"]["pass"]


def _untwisted_fibonacci(get):
    return edited(get("fibonacci"), twist=[1.0, 1.0])


def _z3_dual_pair_entry(get):
    # F^{1 2 1}_1 on the unit channels: the duality fusing scalar of label 1
    return edited(get("z3"), F={(1, 2, 1, 1, 0, 0, 0, 0, 0, 0): lambda v: v * 1j})


def _z3_twist_negated(get):
    data = get("z3")
    return edited(data, twist=[data.twist[0], -data.twist[1], data.twist[2]])


# per check id of the suite, a corrupted input on which the batched route
# fails it
NEGATIVE_CONTROLS = {
    "dual_scalar_equal": _z3_dual_pair_entry,
    "dual_scalar_inverse_route": _z3_dual_pair_entry,
    "dual_scalar_inverse_route_dual": _z3_dual_pair_entry,
    "duality_vertex_phase_pos": _untwisted_fibonacci,
    "duality_vertex_phase_neg": _untwisted_fibonacci,
    "bend_unit_left": _untwisted_fibonacci,
    "bend_unit_right": _z3_twist_negated,
    # a non-unit F entry of Z_3 that no duality record reads
    "fusing_braid_conjugation": lambda get: edited(
        get("z3"), F={(1, 1, 2, 1, 0, 2, 0, 0, 0, 0): lambda v: v * 1j}
    ),
    "fusing_bend_conjugation": INCOHERENT["ising_perturbed_f"],
}


def test_every_fusing_check_id_has_a_negative_control(categories):
    ids = {r.id for r in gc.verify_fusing_symmetries(categories["ising"]).records}
    assert ids == set(NEGATIVE_CONTROLS)


@pytest.mark.parametrize("check_id", NEGATIVE_CONTROLS)
def test_fusing_negative_control(oracle_input, check_id):
    """The corruption fails ``check_id`` on the batched route, and the
    per-word route fails the same (id, instance) records."""
    data = NEGATIVE_CONTROLS[check_id](oracle_input)
    fresh = edited(data)
    failed = [
        {(r.id, r.instance) for r in suite(d, 1e-9).records if not r.ok}
        for suite, d in ((gc.verify_fusing_symmetries, data),
                         (fo.verify_fusing_symmetries, fresh))
    ]
    assert any(i == check_id for i, _ in failed[0])
    assert failed[0] == failed[1]


@pytest.mark.parametrize("name", ("fibonacci", "ising"))
def test_swapped_braid_senses_fail_hexagon_and_bend(monkeypatch, name):
    """The hexagon and the basis images read the one batched braid: with its
    two senses swapped there, coherent data fails ``hexagon`` and
    ``fusing_bend_conjugation``.  (``fusing_braid_conjugation`` passes, as
    the mirror braiding satisfies it too.)"""
    braid = table_arrays._braid_blocks

    def swapped(F, R, N, quads, plus):
        return braid(F, R, N, quads, ~plus)

    monkeypatch.setattr(table_arrays, "_braid_blocks", swapped)
    monkeypatch.setattr(bending, "_braid_blocks", swapped)
    data = fd.builtin_category(name)
    failed = {r.id for suite in (fd.verify_coherence, gc.verify_fusing_symmetries)
              for r in suite(data).records if not r.ok}
    assert {"hexagon", "fusing_bend_conjugation"} <= failed
    assert "fusing_braid_conjugation" not in failed


# -- rigidity: a negative control per check id -------------------------------


def _data_edit(make):
    """A control that corrupts only the input."""
    return lambda get, monkeypatch: make(get)


def _wrong_diagram_route(get, monkeypatch):
    # every zigzag's cup scaled by 2
    zigzags = gc._zigzags

    def doubled(data, a):
        return {
            name: (strand, (lambda word, cup=cup: 2.0 * cup(word), cap))
            for name, (strand, (cup, cap)) in zigzags(data, a).items()
        }

    monkeypatch.setattr(gc, "_zigzags", doubled)
    return get("fibonacci")


def _wrong_fusing_route(get, monkeypatch):
    # every zigzag's fusing-entry value scaled by 2
    route = gc._zigzag_fusing_route
    monkeypatch.setattr(gc, "_zigzag_fusing_route", lambda data, a: {
        name: 2.0 * value for name, value in route(data, a).items()
    })
    return get("fibonacci")


def _scaled_inverses(get, monkeypatch):
    # every stored F-block inverse scaled by 2, on a fresh copy of the input
    # so that no memo of the shared one keeps a block formed from them
    data = edited(get("fibonacci"))
    table = data._f_table
    scaled = [(2.0 * inv, singular) for inv, singular in table.inverses()]
    monkeypatch.setattr(table, "inverses", lambda: scaled)
    return data


def _wrong_covertex(get, monkeypatch):
    # every covertex scaled by 2; no zigzag applies one, and the suite's
    # completeness route composes none, so this is a control of the oracle
    covertex = gc.covertex_morphism
    monkeypatch.setattr(gc, "covertex_morphism", lambda *args: 2.0 * covertex(*args))
    return get("fibonacci")


# per check id of the suite, a corruption on which the suite fails it: an
# edit of the input where one exists, each incoherent, so that no choice of
# gauge can make it pass.  Where no input can fail an id, a wrong route:
# the zigzag_right_1 routes divide the entry F^{a a' a}_a on the unit
# channels by the loop value read off the same entry, so both are 1 on any
# input; the two routes of a zigzag read the same entries, so they agree on
# any input; and completeness is F^-1 F on every unit block, the identity
# up to round-off on any input.
RIGIDITY_NEGATIVE_CONTROLS = {
    "zigzag_right_1_diagram": _wrong_diagram_route,
    "zigzag_right_1_fusing": _wrong_fusing_route,
    "zigzag_right_1_routes_agree": _wrong_fusing_route,
    "zigzag_right_2_diagram": _data_edit(INCOHERENT["ising_perturbed_f"]),
    "zigzag_right_2_fusing": _data_edit(INCOHERENT["ising_perturbed_f"]),
    "zigzag_right_2_routes_agree": _wrong_diagram_route,
    "zigzag_left_1_diagram": _data_edit(INCOHERENT["ising_perturbed_f"]),
    "zigzag_left_1_fusing": _data_edit(INCOHERENT["ising_perturbed_f"]),
    "zigzag_left_1_routes_agree": _wrong_fusing_route,
    "zigzag_left_2_diagram": _data_edit(_z3_dual_pair_entry),
    "zigzag_left_2_fusing": _data_edit(_z3_dual_pair_entry),
    "zigzag_left_2_routes_agree": _wrong_diagram_route,
    "completeness": _scaled_inverses,
}


def test_completeness_oracle_negative_control(oracle_input, monkeypatch):
    data = _wrong_covertex(oracle_input, monkeypatch)
    assert (_oracle_completeness(data) > 1e-9).any()


def test_every_rigidity_check_id_has_a_negative_control(categories):
    ids = {r.id for r in gc.verify_rigidity(categories["ising"]).records}
    assert ids == set(RIGIDITY_NEGATIVE_CONTROLS)


@pytest.mark.parametrize("check_id", RIGIDITY_NEGATIVE_CONTROLS)
def test_rigidity_negative_control(oracle_input, monkeypatch, check_id):
    """The corruption fails ``check_id``; fibonacci, which the wrong
    routes are run on, passes every check."""
    data = RIGIDITY_NEGATIVE_CONTROLS[check_id](oracle_input, monkeypatch)
    failed = {r.id for r in gc.verify_rigidity(data, 1e-9).records if not r.ok}
    assert check_id in failed
