from types import SimpleNamespace

import numpy as np
import pytest

from mtcalc import deligne_double as dd

import double_braiding as db


def singles(data):
    return [
        dd.DoubleObject(((a, b),))
        for a in range(data.size)
        for b in range(data.size)
    ]


def diagonal(data):
    return dd.DoubleObject(tuple((a, data.dual(a)) for a in range(data.size)))


@pytest.mark.parametrize("name", ("trivial", "z2_semion", "fibonacci", "ising"))
def test_double_braiding_suite(categories, name):
    data = categories[name]
    objs = singles(data) + [diagonal(data)]
    if name == "ising":
        objs = singles(data)[:4] + [diagonal(data)]  # keep the suite quick
    rep = db.verify_double_braiding(data, objs, 1e-9)
    assert rep.passed, [r for r in rep.records if not r.ok][:4]


def test_variant_distinguished_on_semion(categories):
    # the mixed-sense braiding differs from the same-sense one whenever the
    # right-factor braiding fails to be involutive
    data = categories["z2_semion"]
    s = dd.DoubleObject(((1, 1),))
    mixed = db.double_braiding(data, s, s, "+-")
    same = db.double_braiding(data, s, s, "++")
    assert mixed.distance(same) > 1e-2


def test_double_twist_diagonal_pairs(categories):
    data = categories["fibonacci"]
    tw = db.double_twist(data, diagonal(data))
    ident = dd.DoubleMorphism.identity(data, (diagonal(data),))
    assert tw.distance(ident) == 0.0


def test_double_twist_offdiagonal_value(categories):
    import cmath, math

    data = categories["fibonacci"]
    te = dd.DoubleObject(((1, 0),))
    tw = db.double_twist(data, te)
    blk = tw.block(((0,), (0,), 1, 0))
    assert abs(blk[0, 0] - cmath.exp(4j * math.pi / 5)) < 1e-9


def test_omitted_double_block_is_zero(categories):
    data = categories["fibonacci"]
    word = (dd.DoubleObject(((1, 1), (1, 0))),) * 3
    ident = dd.DoubleMorphism.identity(data, word)
    zero = dd.DoubleMorphism.zero(data, word, word)
    assert max(m.shape[0] for m in ident.blocks.values()) == 4
    for key, mat in ident.blocks.items():
        assert np.array_equal(zero.block(key), np.zeros(mat.shape))
    for got, want in [
        (ident + zero, ident),
        (zero + ident, ident),
        (zero - ident, -1.0 * ident),
        (ident @ zero, zero),
        (zero @ ident, zero),
    ]:
        for key, mat in ident.blocks.items():
            assert np.array_equal(got.block(key), want.block(key))
    assert dd.DoubleMorphism.zero(data, (), ()).scalar() == 0.0


def test_pair_layer_blocks_equal_np_kron():
    # pair_layer's reshaped outer product multiplies the same entry pairs as
    # np.kron, so each block is bitwise equal to it, empty shapes included
    rng = np.random.default_rng(11)
    shapes = [(p, q) for p in range(4) for q in range(4)]

    def morphism():
        return SimpleNamespace(blocks={
            s: rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes
        })

    left, right = morphism(), morphism()
    coeff = 0.3 - 1.7j
    out = dd.DoubleMorphism.zero(None, (), ())
    dd.pair_layer((0,), (1,), left, right, out, coeff)
    assert len(out.blocks) == len(shapes) ** 2
    for (_, _, cl, cr), mat in out.blocks.items():
        want = coeff * np.kron(left.blocks[cl], right.blocks[cr])
        assert mat.shape == want.shape
        assert (mat == want).all()


def test_braiding_inverse_pairing(categories):
    data = categories["fibonacci"]
    A = dd.DoubleObject(((1, 1), (0, 1)))
    B = dd.DoubleObject(((1, 0),))
    fwd = db.double_braiding(data, A, B, "+-")
    back = db.double_braiding(data, B, A, "-+")
    ident = dd.DoubleMorphism.identity(data, (A, B))
    assert (back @ fwd).distance(ident) < 1e-12
