import copy
import itertools
import json
import math
import pathlib
import pickle
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

import operad_oracle
from mtcalc import cli_io
from mtcalc import sewing_operad as so
from mtcalc.sewing_operad import (
    GaussRat,
    PuncturedSphere,
    SewingError,
    geometric_sew_oracle,
    identity_sphere,
    insertion_permutation,
    is_sewable,
    permute,
    rescaling_sphere,
    sew,
    vacuum_sphere,
)
from operad_oracle import distance


# -- element validation --------------------------------------------------------


def test_element_invariants():
    with pytest.raises(SewingError):
        PuncturedSphere((0j,), 0j, (1 + 0j, 1 + 0j))  # zero puncture
    with pytest.raises(SewingError):
        PuncturedSphere((2 + 0j, 2 + 0j), 0j, (1,) * 3)  # coincident
    with pytest.raises(SewingError):
        PuncturedSphere((2 + 0j,), 0j, (0j, 1 + 0j))  # zero scaling
    with pytest.raises(SewingError):
        PuncturedSphere((), 1 + 0j, ())  # arity 0 must have a = 0
    # lists and iterators through the public constructor are validated too
    with pytest.raises(SewingError):
        PuncturedSphere([2 + 0j, 2 + 0j], 0j, [1 + 0j] * 3)  # coincident
    with pytest.raises(SewingError):
        PuncturedSphere([0j], 0j, iter([1 + 0j, 1 + 0j]))  # zero puncture
    with pytest.raises(SewingError):
        PuncturedSphere(iter([2 + 0j]), 0j, [1 + 0j, 0j])  # zero scaling
    with pytest.raises(SewingError):
        PuncturedSphere([1j, 2j], 0j, [1 + 0j] * 2)  # arity mismatch
    with pytest.raises(SewingError):
        PuncturedSphere([], 1 + 0j, [])  # arity 0 must have a = 0
    with pytest.raises(SewingError):  # exact: the implicit 0 is a puncture
        PuncturedSphere([GaussRat(1), GaussRat(0)], GaussRat(0), [GaussRat(1)] * 3)
    p = PuncturedSphere([1j], 0j, iter([1 + 0j, 2 + 0j]))
    assert p.z == (1j,) and p.scales == (1 + 0j, 2 + 0j)
    assert p.positions == (1j, 0j)
    assert p == PuncturedSphere((1j,), 0j, (1 + 0j, 2 + 0j))


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_element_is_an_immutable_value(exact):
    one = GaussRat(1) if exact else 1 + 0j
    p = PuncturedSphere((2 * one,), 3 * one, (one, 2 * one))
    for name in ("z", "a", "scales", "positions"):
        with pytest.raises(AttributeError):
            setattr(p, name, getattr(p, name))
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert p.positions == (2 * one, 0 * one)
    same = PuncturedSphere([2 * one], 3 * one, iter([one, 2 * one]))
    assert same == p and hash(same) == hash(p) == hash((p.z, p.a, p.scales))
    assert copy.deepcopy(p) == p and pickle.loads(pickle.dumps(p)) == p
    for other in (
        PuncturedSphere((5 * one,), 3 * one, (one, 2 * one)),
        PuncturedSphere((2 * one,), 4 * one, (one, 2 * one)),
        PuncturedSphere((2 * one,), 3 * one, (one, 3 * one)),
    ):
        assert other != p
    assert p != (p.z, p.a, p.scales)
    assert repr(p) == f"PuncturedSphere(z={p.z!r}, a={p.a!r}, scales={p.scales!r})"
    # exactness is read off the scalars
    assert rescaling_sphere(one).is_exact() is exact
    assert identity_sphere(exact) == rescaling_sphere(one)
    assert vacuum_sphere(exact).is_exact() is exact


def test_coincidence_after_translation_raises():
    # the four positions are distinct, but moving the last slot translates by
    # 1e16, and 1, 1 + 2**-52 and 0 all round to 1e16 there
    p = PuncturedSphere((1 + 0j, 1 + 2**-52 + 0j, -1e16 + 0j), 0j, (1 + 0j,) * 4)
    assert len(set(p.positions)) == 4
    with pytest.raises(SewingError):
        permute(p, (1, 2, 4, 3))


class _Tuple(tuple):
    pass


def test_constructor_edge_inputs():
    # any sequence is stored as a plain tuple, -0j is a zero puncture, and
    # NaN punctures differ (NaN != NaN), even as one object
    for z, scales in ((_Tuple((1j,)), _Tuple((1 + 0j, 2 + 0j))), ([1j], [1 + 0j, 2 + 0j]),
                      (iter([1j]), iter([1 + 0j, 2 + 0j]))):
        p = PuncturedSphere(z, 0j, scales)
        assert (p.z, p.scales, p.positions) == ((1j,), (1 + 0j, 2 + 0j), (1j, 0j))
        assert {type(p.z), type(p.scales), type(p.positions)} == {tuple}
    for zero in (-0j, complex(-0.0, -0.0)):
        with pytest.raises(SewingError, match="^punctures must be nonzero$"):
            PuncturedSphere((zero,), 0j, (1 + 0j, 1 + 0j))
    nan = complex(float("nan"), 0.0)
    for z in ((nan, nan), (nan, complex(float("nan"), 0.0))):
        p = PuncturedSphere(z, 0j, (1 + 0j,) * 3)
        assert repr(p.positions) == "((nan+0j), (nan+0j), 0j)"
    with pytest.raises(SewingError, match="^the arity-0 element has zero infinity parameter$"):
        PuncturedSphere((), nan, ())


def test_vacuum_and_identity():
    assert vacuum_sphere().arity == 0
    ident = identity_sphere()
    assert ident.arity == 1 and ident.scales == (1 + 0j,)


# -- sewing ---------------------------------------------------------------------


def test_identity_is_two_sided_unit():
    # exact on the right; left sewing re-translates, so floats may round
    rng = np.random.default_rng(3)
    for _ in range(20):
        q = so.random_sphere(rng, int(rng.integers(1, 4)))
        ident = identity_sphere()
        for i in range(1, q.arity + 1):
            assert sew(q, i, ident) == q
        assert distance(sew(ident, 1, q), q) < 1e-14


def test_identity_exact_in_rational_mode():
    rng = np.random.default_rng(3)
    for _ in range(10):
        q = so.random_sphere(rng, int(rng.integers(1, 4)), exact=True)
        ident = identity_sphere(exact=True)
        assert sew(ident, 1, q) == q
        for i in range(1, q.arity + 1):
            assert sew(q, i, ident) == q
            # the geometric gluing has the same exact fixed point
            assert geometric_sew_oracle(q, i, ident) == q


def test_spec_style_example_matches_oracle():
    p = PuncturedSphere((3 + 0j,), 0j, (1 + 0j, 2 + 0j))
    q = PuncturedSphere((5 + 0j,), 1 + 0j, (1 + 0j, 1 + 0j))
    got = sew(p, 2, q)
    assert got.z == (3.5 + 0j, 2.5 + 0j)
    assert got.a == 0.5 + 0j
    assert got.scales == (1 + 0j, 2 + 0j, 2 + 0j)
    assert distance(got, geometric_sew_oracle(p, 2, q)) < 1e-12


def test_vacuum_removal_drops_puncture_and_scaling():
    p = PuncturedSphere((3 + 0j, 1j), 0.5 + 0j, (1 + 0j, 2 + 0j, 3 + 0j))
    got = sew(p, 2, vacuum_sphere())
    assert got.z == (3 + 0j,) and got.scales == (1 + 0j, 3 + 0j)
    assert got.a == p.a
    # removing the final puncture re-translates into canonical form
    got = sew(p, 3, vacuum_sphere())
    assert got.arity == 2 and got.positions[-1] == 0j
    assert distance(got, geometric_sew_oracle(p, 3, vacuum_sphere())) < 1e-12


def test_formula_vs_oracle_randomized():
    worst = 0.0
    seeds = np.random.SeedSequence(42).spawn(100)
    for s in seeds:
        rng = np.random.default_rng(s)
        p, i, q = so._sample_sewable(rng, exact=False)
        worst = max(worst, distance(sew(p, i, q), geometric_sew_oracle(p, i, q)))
    assert worst < 1e-12


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_oracle_matches_full_moebius_products(monkeypatch, exact):
    # the exact chart compositions leave out the products with a zero
    # factor; with every product kept, each oracle element is the same
    # (float: bit for bit, as every term is still summed)
    rng = np.random.default_rng(47)
    triples = [so._sample_sewable(rng, exact) for _ in range(60)]
    got = [geometric_sew_oracle(P, i, Q, check=False) for P, i, Q in triples]
    monkeypatch.setattr(so._Moebius, "__matmul__", operad_oracle.moebius_product)
    want = [geometric_sew_oracle(P, i, Q, check=False) for P, i, Q in triples]
    assert [_exact_parts(x) for x in got] == [_exact_parts(x) for x in want]
    assert got == want


def test_exact_moebius_product_matches_the_full_product():
    rng = np.random.default_rng(53)

    def entry():
        if rng.random() < 0.4:
            return GaussRat(0)
        return GaussRat(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))),
                        Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))))

    zeros = 0
    for _ in range(500):
        m, o = (so._Moebius(entry(), entry(), entry(), entry()) for _ in range(2))
        got, want = m @ o, operad_oracle.moebius_product(m, o)
        for k in "pqrs":
            assert getattr(got, k).__class__ is GaussRat
            assert (getattr(got, k).re, getattr(got, k).im) == (getattr(want, k).re,
                                                                getattr(want, k).im)
        zeros += not got.p
    assert zeros > 50


def test_unsewable_raises():
    # huge inner spread vs tight outer slot: the disks must collide
    p = PuncturedSphere((0.01 + 0j,), 0j, (1 + 0j, 1 + 0j))
    q = PuncturedSphere((1000 + 0j,), 0j, (1 + 0j, 1 + 0j))
    assert not is_sewable(p, 1, q)
    with pytest.raises(SewingError, match="cannot be sewn"):
        sew(p, 1, q)


def test_slot_out_of_range():
    with pytest.raises(SewingError, match="slot"):
        sew(identity_sphere(), 2, identity_sphere())


def test_rescaling_subgroup_multiplicative_exact():
    c1 = GaussRat(Fraction(3, 2), Fraction(1, 3))
    c2 = GaussRat(Fraction(-2, 5), Fraction(7, 4))
    lhs = sew(rescaling_sphere(c1), 1, rescaling_sphere(c2))
    assert lhs == rescaling_sphere(c1 * c2)


def test_exact_mode_identity_and_associativity_exact():
    rep = so.verify_operad_axioms(trials=20, seed=7, tol=1e-12, exact=True)
    assert rep.passed
    assert rep.max_residual == 0.0


def test_exact_mode_fails_on_a_nudge_below_float_resolution(monkeypatch):
    # the nudge is 1e-30 of an infinity parameter of order 1: a float
    # comparison cannot see it, so only the equality of exact elements fails
    # the sewing formula against its oracle.  The formula is nudged where
    # both ``sew`` and the suite's columns read it
    plain_sew = so._sew_parts

    def nudged_sew(*args):
        z, a, scales = plain_sew(*args)
        if not scales:
            return z, a, scales  # the arity-0 element has infinity parameter 0
        return z, a + Fraction(1, 10 ** 30), scales

    monkeypatch.setattr(so, "_sew_parts", nudged_sew)
    rep = so.verify_operad_axioms(trials=10, seed=7, exact=True)
    agree = [r for r in rep.records if r.id == "formula_vs_oracle"]
    assert len(agree) == 10
    assert any(not r.ok for r in agree)
    assert all(r.residual in (0.0, 1.0) for r in agree)


def test_float_identity_tight():
    rep = so.verify_operad_axioms(trials=40, seed=11, tol=1e-10)
    res = [r.residual for r in rep.records if r.id.startswith("identity")]
    assert max(res) < 1e-14


def test_operad_axioms_float_suite():
    rep = so.verify_operad_axioms(trials=100, seed=42, tol=1e-10)
    assert rep.passed
    agree = [r.residual for r in rep.records if r.id == "formula_vs_oracle"]
    assert len(agree) == 100 and max(agree) < 1e-12


def test_misindexed_composition_detected():
    # deliberately wrong inner slot in the nested composition; a rescaling
    # that is not the identity makes the wrong slot give a different element
    rng = np.random.default_rng(5)
    r = rescaling_sphere(1.5 + 0.5j)
    found = False
    for _ in range(200):
        p, i, q = so._sample_sewable(rng, exact=False)
        if q.arity < 2:
            continue
        j = i  # first inserted slot
        try:
            lhs = sew(sew(p, i, q), j, r)
            bad = sew(p, i, sew(q, 2, r))  # should be slot 1
            good = sew(p, i, sew(q, 1, r))
        except SewingError:
            continue
        assert distance(lhs, good) < 1e-12
        assert distance(lhs, bad) > 1e-6
        found = True
        break
    assert found


def test_wrong_slot_breaks_associativity():
    p = PuncturedSphere((4 + 0j,), 0j, (1 + 0j, 1 + 0j))
    q = PuncturedSphere((0.5 + 0j,), 0j, (1 + 0j, 1 + 0j))
    r = PuncturedSphere((), 0j, (2 + 0j,))
    lhs = sew(sew(p, 1, q), 1, r)     # acts on the first inserted slot
    good = sew(p, 1, sew(q, 1, r))
    bad = sew(p, 1, sew(q, 2, r))
    assert distance(lhs, good) < 1e-12
    assert distance(lhs, bad) > 1e-2


# -- permutations ------------------------------------------------------------


def test_identity_permutation():
    p = PuncturedSphere((2 + 0j, 3 + 0j), 1j, (1 + 0j, 2 + 0j, 3 + 0j))
    assert permute(p, (1, 2, 3)) == p


def test_transposition_fixing_last_slot():
    p = PuncturedSphere((2 + 0j, 3 + 0j), 1j, (1 + 0j, 2 + 0j, 3 + 0j))
    q = permute(p, (2, 1, 3))
    assert q.z == (3 + 0j, 2 + 0j)
    assert q.scales == (2 + 0j, 1 + 0j, 3 + 0j)
    assert q.a == p.a


def test_permutation_moving_last_slot_renormalizes():
    p = PuncturedSphere((2 + 0j,), 1j, (1 + 0j, 2 + 0j))
    q = permute(p, (2, 1))
    assert q.positions[-1] == 0j
    assert q.z == (-2 + 0j,) and q.a == 1j - 2
    assert q.scales == (2 + 0j, 1 + 0j)


def test_permutation_group_action():
    rng = np.random.default_rng(9)
    for _ in range(50):
        p = so.random_sphere(rng, 4)
        sigma = tuple(int(v) + 1 for v in rng.permutation(4))
        tau = tuple(int(v) + 1 for v in rng.permutation(4))
        comp = tuple(sigma[tau[j] - 1] for j in range(4))
        assert distance(permute(p, comp), permute(permute(p, tau), sigma)) < 1e-12


def test_sewing_equivariance():
    rng = np.random.default_rng(21)
    done = 0
    for _ in range(400):
        try:
            p, i, q = so._sample_sewable(rng, exact=False)
            sigma = tuple(int(v) + 1 for v in rng.permutation(p.arity))
            lhs = sew(permute(p, sigma), i, q)
            rhs = permute(
                sew(p, sigma.index(i) + 1, q),
                insertion_permutation(sigma, i, q.arity),
            )
        except SewingError:
            continue
        assert distance(lhs, rhs) < 1e-12
        done += 1
        if done >= 60:
            break
    assert done >= 30


def _insertion_permutation_by_index(sigma, i, inner_arity):
    """The induced permutation by index arithmetic on the inverse of sigma."""
    m = len(sigma)
    n = inner_arity
    inv = [0] * m
    for j, img in enumerate(sigma):
        inv[img - 1] = j + 1  # 1-based inverse
    k = inv[i - 1]

    def outer_slot_after(t):
        # slot of P's t-th puncture inside sew(P, k, Q)
        return t if t < k else t + n - 1

    rho_inv = []
    for j in range(1, i):
        rho_inv.append(outer_slot_after(inv[j - 1]))
    for j in range(n):
        rho_inv.append(k + j)
    for j in range(i + 1, m + 1):
        rho_inv.append(outer_slot_after(inv[j - 1]))
    rho = [0] * (m + n - 1)
    for j, img in enumerate(rho_inv):
        rho[img - 1] = j + 1
    return tuple(rho)


def test_insertion_permutation_matches_index_arithmetic():
    cases = 0
    for m in range(1, 7):
        for sigma in itertools.permutations(range(1, m + 1)):
            for i in range(1, m + 1):
                for n in range(5):
                    assert insertion_permutation(sigma, i, n) == \
                        _insertion_permutation_by_index(sigma, i, n)
                    cases += 1
    assert cases == 5 * sum(math.factorial(m) * m for m in range(1, 7))


# -- exact scalars -------------------------------------------------------------


def test_gauss_rational_field_ops():
    x = GaussRat(Fraction(1, 2), Fraction(1, 3))
    y = GaussRat(Fraction(-2, 7), Fraction(5, 4))
    assert (x * y) / y == x
    assert x + (-x) == GaussRat(0)
    assert (x / y) * y == x
    assert x.abs2() == Fraction(1, 4) + Fraction(1, 9)
    with pytest.raises(TypeError):
        x + 0.25


def test_gauss_rational_hash_matches_equality():
    one = GaussRat(1)
    assert one == 1 and hash(one) == hash(1)
    assert len({one, 1}) == 1
    half = GaussRat(Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert len({half, Fraction(2, 4), GaussRat(Fraction(1, 2), 0)}) == 1
    assert {GaussRat(1, 1): "x"}[GaussRat(Fraction(2, 2), 1)] == "x"


def test_gauss_rational_is_immutable():
    x = GaussRat(1, 2)
    with pytest.raises(AttributeError):
        x.re = Fraction(3)
    with pytest.raises(AttributeError):
        x._x = 3
    assert x == GaussRat(1, 2)


def test_gauss_rational_refuses_del():
    x = GaussRat(1, 2)
    for name in ("_x", "_y", "_d", "re"):
        with pytest.raises(AttributeError, match="immutable"):
            delattr(x, name)
    assert x + 1 == GaussRat(2, 2)


@dataclass(frozen=True)
class _FractionPair:
    """The Fraction-pair Gaussian rational that ``GaussRat`` replaced; it is
    the oracle of the integer form."""

    re: Fraction
    im: Fraction

    def __add__(self, o):
        return _FractionPair(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return _FractionPair(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return _FractionPair(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    def __truediv__(self, o):
        n = o.abs2()
        return _FractionPair(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def __complex__(self):
        return complex(float(self.re), float(self.im))


def _random_fraction(rng):
    num = int(rng.integers(-40, 41))
    return Fraction(num, int(rng.integers(1, 13))) * Fraction(10) ** int(rng.integers(-3, 4))


def test_gauss_rational_matches_fraction_pair_oracle():
    rng, mixed = np.random.default_rng(17), np.random.default_rng(18)
    for _ in range(500):
        parts = [_random_fraction(rng) for _ in range(4)]
        if rng.random() < 0.2:
            parts[1] = Fraction(0)  # real values as well
        x, y = GaussRat(*parts[:2]), GaussRat(*parts[2:])
        fx, fy = _FractionPair(*parts[:2]), _FractionPair(*parts[2:])
        ops = [(x + y, fx + fy), (x - y, fx - fy), (x * y, fx * fy)]
        if fy.abs2():
            ops.append((x / y, fx / fy))
        for got, want in ops:
            assert (got.re, got.im) == (want.re, want.im)
            assert got.abs2() == want.abs2()
            assert complex(got).real.hex() == complex(want).real.hex()
            assert complex(got).imag.hex() == complex(want).imag.hex()
            assert got == GaussRat(want.re, want.im)
            assert (got == want.re) == (want.im == 0)
        assert (x == y) == (fx == fy)
        # an int or a Fraction on either side goes through ``_parts``
        k, f = int(mixed.integers(-9, 10)), _random_fraction(mixed) or Fraction(3, 2)
        fk, ff = _FractionPair(Fraction(k), Fraction(0)), _FractionPair(f, Fraction(0))
        ops = [(x + k, fx + fk), (k + x, fk + fx), (x - k, fx - fk), (k - x, fk - fx),
               (k * x, fk * fx), (x * f, fx * ff), (f * x, ff * fx), (x / f, fx / ff),
               (f - x, ff - fx), (x + f, fx + ff)]
        if k:
            ops.append((x / k, fx / fk))
        if fx.abs2():
            ops += [(k / x, fk / fx), (f / x, ff / fx)]
        for got, want in ops:
            assert got.__class__ is GaussRat
            assert (got.re, got.im) == (want.re, want.im)
        assert (x == k) == (k == x) == (fx == fk)
        assert (x == f) == (f == x) == (fx == ff)
    x = GaussRat(1, 2)
    assert (x + 1, 1 - x, 2 * x, x / Fraction(3, 2), 1 / x) == (
        GaussRat(2, 2), GaussRat(0, -2), GaussRat(2, 4),
        GaussRat(Fraction(2, 3), Fraction(4, 3)), GaussRat(Fraction(1, 5), Fraction(-2, 5)))
    assert GaussRat(1) == 1 and 1 == GaussRat(1) and x != 1
    for op in (lambda v: x + v, lambda v: v + x, lambda v: x - v, lambda v: v - x,
               lambda v: x * v, lambda v: v * x, lambda v: x / v, lambda v: v / x):
        for v in (0.5, 2.0, 0.5j, 1 + 0j):
            with pytest.raises(TypeError):
                op(v)
    assert not x == 0.5 and x != 0.5j


def _scalar_random_sphere(rng, arity, exact=False, spread=4.0):
    """``random_sphere`` with one scalar draw per part: the oracle of the
    one-call-per-attempt draw, whose random stream must be this one."""
    while True:
        if exact:
            def num():
                return GaussRat(
                    Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 5))),
                    Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 5))),
                )
            z = tuple(num() for _ in range(max(arity - 1, 0)))
            a = num()
            scales = tuple(num() for _ in range(arity))
            if any(not s for s in scales) or any(not p for p in z):
                continue
        else:
            def num():
                return complex(rng.normal(0, spread), rng.normal(0, spread))
            z = tuple(num() for _ in range(max(arity - 1, 0)))
            a = complex(rng.normal(0, 1), rng.normal(0, 1))
            scales = tuple(num() + 0.3 for _ in range(arity))
        if arity == 0:
            return vacuum_sphere(exact)
        try:
            return PuncturedSphere(z, a, scales)
        except SewingError:
            continue


def _exact_parts(P):
    """Every number of P, floats as the hex of their two parts."""
    vals = (P.a,) + P.z + P.scales
    if P.is_exact():
        return tuple((v.re, v.im) for v in vals)
    return tuple((v.real.hex(), v.imag.hex()) for v in map(complex, vals))


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_random_sphere_matches_scalar_draws(exact):
    # one rng per seed serves every arity in turn, so a stream that drifted
    # after one draw would show in the next
    for seed in range(50):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for arity in (0, 1, 2, 3, 4, 0, 4, 1):
            got = so.random_sphere(rng, arity, exact)
            want = _scalar_random_sphere(ref, arity, exact)
            assert got == want
            assert _exact_parts(got) == _exact_parts(want)
            assert got.positions == want.positions
            assert rng.bit_generator.state == ref.bit_generator.state


def test_random_sphere_draws_past_the_prebuilt_bounds():
    # an exact attempt of arity above 8 draws more ints than the prebuilt
    # bound arrays hold; its stream is still that of the scalar draws
    for seed in range(5):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for arity in (8, 9, 12, 0, 9):
            got = so.random_sphere(rng, arity, exact=True)
            assert _exact_parts(got) == _exact_parts(_scalar_random_sphere(ref, arity, True))
            assert rng.bit_generator.state == ref.bit_generator.state


def _distance_with_max(P, Q):
    """The float distance through ``max``: the running maximum's oracle."""
    if P.arity != Q.arity:
        return float("inf")
    vals = [complex(P.a) - complex(Q.a)]
    vals += [complex(x) - complex(y) for x, y in zip(P.z, Q.z)]
    vals += [complex(x) - complex(y) for x, y in zip(P.scales, Q.scales)]
    return max(abs(v) for v in vals)


def _sew_bounds_with_max(P, i, Q):
    """``_sew_bounds`` through ``max`` and ``min``: the loops' oracle."""
    inner = max((so._abs2(xi - Q.a) for xi in Q.positions), default=0)
    s2 = so._abs2(P.scales[i - 1])
    zi = P.positions[i - 1]
    outer = None
    for j, p in enumerate(P.positions):
        if j != i - 1:
            cand = s2 * so._abs2(p - zi)
            outer = cand if outer is None else min(outer, cand)
    return inner, outer


def _same(x, y):
    return x == y or (x != x and y != y)  # NaN matches NaN


def _spoiled(rng, S, bad, a=None, scale=False):
    """S with a random one of its punctures z (if any) set to ``bad``, its
    infinity parameter to ``a`` if given, and its first scaling to ``bad`` if
    ``scale``."""
    z = list(S.z)
    if z:
        z[int(rng.integers(0, len(z)))] = bad
    scales = (bad,) + S.scales[1:] if scale else S.scales
    return PuncturedSphere(z, S.a if a is None else a, scales)


def test_running_extremes_match_max_and_min():
    rng = np.random.default_rng(31)
    nan = complex(float("nan"), 0.0)
    for trial in range(400):
        exact = trial % 4 == 3
        P = so.random_sphere(rng, int(rng.integers(1, 5)), exact)
        Q = so.random_sphere(rng, int(rng.integers(0, 5)), exact)
        if not exact and trial % 4 == 1:
            # a NaN first or later in either element
            P = _spoiled(rng, P, nan, None if trial % 8 == 1 else nan)
            Q = _spoiled(rng, Q, nan)
        for R in (P, Q, so.random_sphere(rng, P.arity, exact)):
            if not exact:
                want = _distance_with_max(P, R)
            elif P.arity != R.arity:
                want = float("inf")
            else:
                want = 0.0 if P == R else 1.0
            assert _same(distance(P, R), want)
            # the suite's distance, on one-lane columns
            lanes = so._distance(so._parts_of([P]), so._parts_of([R]), exact)
            assert lanes.shape == (1,) and _same(float(lanes[0]), want)
        for i in range(1, P.arity + 1):
            got, want = so._sew_bounds(P, i, Q), _sew_bounds_with_max(P, i, Q)
            assert _same(got[0], want[0])
            assert got[1] is None if want[1] is None else _same(got[1], want[1])


def _grid_is_sewable(P, i, Q, points=9):
    """The sewability test as a scan of the whole 9-point radius grid; the
    oracle of ``is_sewable``, which tries the grid's first point alone first.
    ``points=1`` scans that first point only."""
    inner, outer = so._sew_bounds(P, i, Q)
    if outer is None:
        return True
    inner, outer = float(inner), float(outer)
    if inner == 0.0:
        return outer > 0.0
    lo, hi = np.sqrt(inner), np.sqrt(outer)
    margin = so.SEW_MARGIN
    if not hi > lo * (1.0 + margin):
        return False
    for r in np.geomspace(lo * (1.0 + margin), hi / (1.0 + margin), points):
        if inner < r * r * (1.0 - margin) and r * r * (1.0 + margin) < outer:
            return True
    return False


def test_is_sewable_matches_grid_scan_on_random_pairs():
    rng = np.random.default_rng(23)
    seen = set()
    for _ in range(3000):
        P = so.random_sphere(rng, int(rng.integers(1, 4)))
        Q = so.random_sphere(rng, int(rng.integers(0, 4)))
        i = int(rng.integers(1, P.arity + 1))
        want = _grid_is_sewable(P, i, Q)
        assert is_sewable(P, i, Q) == want
        seen.add(want)
    assert seen == {True, False}


def test_is_sewable_matches_grid_scan_near_the_boundary():
    # hi/lo in (1+M, (1+M)^2): the grid runs downward from its first point,
    # and below hi/lo = (1+M)^1.5 the first point fails where a later one fits
    rng = np.random.default_rng(29)
    margin = so.SEW_MARGIN
    decided_later = 0
    for _ in range(3000):
        lo = float(np.exp(rng.uniform(-5.0, 5.0)))
        ratio = (1.0 + margin) ** float(rng.uniform(1.0, 2.0))
        phase = complex(np.exp(1j * rng.uniform(0.0, 2 * np.pi)))
        # slot 2 of P sits at 0 with scaling `ratio`, its other puncture at
        # distance lo: outer = (ratio * lo)^2; Q's one puncture lies at
        # distance lo from its infinity parameter: inner = lo^2
        P = PuncturedSphere((lo * phase,), 0j, (1 + 0j, ratio + 0j))
        Q = PuncturedSphere((), lo * phase, (1 + 0j,))
        want = _grid_is_sewable(P, 2, Q)
        assert is_sewable(P, 2, Q) == want
        decided_later += want and not _grid_is_sewable(P, 2, Q, points=1)
    assert decided_later > 500


_INF = float("inf")


@pytest.mark.parametrize("bad", [
    complex(float("nan"), 0.0), complex(_INF, 0.0), complex(0.0, -_INF),
    complex(_INF, float("nan")), complex(1e200, 1e200),
], ids=["nan", "inf", "-infj", "inf-nan", "overflow"])
def test_is_sewable_matches_grid_scan_on_nonfinite_parts(bad):
    # a puncture of each element, and by turns P's first scaling or Q's
    # infinity parameter, is NaN, infinite, or squares past the float range
    rng = np.random.default_rng(37)
    decisions = set()
    for trial in range(400):
        P = so.random_sphere(rng, int(rng.integers(1, 5)))
        Q = so.random_sphere(rng, int(rng.integers(0, 5)))
        P = _spoiled(rng, P, bad, scale=trial % 4 == 1)
        Q = _spoiled(rng, Q, bad, bad if trial % 4 == 2 and Q.arity else None)
        for i in range(1, P.arity + 1):
            with np.errstate(all="ignore"):  # the oracle's grid may run to inf
                want = _grid_is_sewable(P, i, Q)
            assert is_sewable(P, i, Q) == want
            decisions.add(want)
    assert decisions == {True, False}


def test_mixed_float_and_exact_elements_keep_their_outcomes():
    # (is_sewable, sew) on a float element paired with an exact one: the
    # bounds mix the two scalar types through ``_Abs2.__float__``, and sewing
    # a pair that passes meets the exact arithmetic's refusal of floats
    f = PuncturedSphere((1 + 0j,), 0j, (0.01 + 0j, 1 + 0j))
    e = PuncturedSphere((GaussRat(5),), GaussRat(0), (GaussRat(Fraction(1, 100)), GaussRat(1)))
    f2 = PuncturedSphere((2 + 1j,), 1 + 0j, (1 + 0j, 0.5 + 0j))
    e2 = PuncturedSphere((GaussRat(2, 1),), GaussRat(1), (GaussRat(1), GaussRat(1, 2)))
    f1 = PuncturedSphere((), 0.25 + 0j, (2 + 0j,))
    e1 = PuncturedSphere((), GaussRat(1, 4), (GaussRat(2),))
    mixing = "TypeError: cannot mix floats into exact arithmetic"
    unsewable = "SewingError: slot {} of the outer element cannot be sewn"
    for P, i, Q, sewable, sewn in [
        (f, 1, e, False, unsewable.format(1)), (e, 1, f, False, unsewable.format(1)),
        (f2, 1, e2, True, mixing), (e2, 1, f2, True, mixing),
        (f2, 2, e2, False, unsewable.format(2)), (e2, 2, f2, True, mixing),
        (f2, 2, e1, False, unsewable.format(2)), (e2, 2, f1, True, mixing),
        (f1, 1, e2, True, mixing), (e1, 1, f2, True, mixing),
    ]:
        assert is_sewable(P, i, Q) is sewable
        with pytest.raises(Exception) as err:
            sew(P, i, Q)
        assert f"{type(err.value).__name__}: {err.value}" == sewn


def _fraction_bounds(P, i, Q):
    """``_sew_bounds`` of exact elements through the Fractions of
    ``GaussRat.abs2()``: the oracle of its integer comparisons."""
    inner = max(((xi - Q.a).abs2() for xi in Q.positions), default=0)
    zi = P.positions[i - 1]
    outers = [P.scales[i - 1].abs2() * (p - zi).abs2()
              for j, p in enumerate(P.positions) if j != i - 1]
    return inner, min(outers, default=None)


def _exact_window_edges(rng):
    """Exact triples (P, 2, Q) on the edge of the window: Q's puncture lies at
    the modulus |s z| of the outer radius from its infinity parameter, times
    1 (a tie, refused), just above 1 (refused) or just below 1 (accepted)."""
    def num():
        return GaussRat(Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 5))),
                        Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 5))))

    s, z = num(), num()
    a, c = int(rng.integers(1, 9)), int(rng.integers(0, 9))
    unit = GaussRat(Fraction(a * a - c * c, a * a + c * c), Fraction(2 * a * c, a * a + c * c))
    P = PuncturedSphere((z,), GaussRat(0), (GaussRat(1), s))
    eps = Fraction(1, 10**12)
    return [(P, 2, PuncturedSphere((), s * z * unit * (1 + t), (GaussRat(1),)))
            for t in (0, eps, -eps)]


def test_exact_radii_match_the_fraction_route():
    # the squared radii compare by cross-multiplying integers; every bound
    # and decision is that of GaussRat.abs2()'s Fractions, ties refused
    rng = np.random.default_rng(43)
    triples = []
    for _ in range(300):
        P = so.random_sphere(rng, int(rng.integers(1, 5)), exact=True)
        Q = so.random_sphere(rng, int(rng.integers(0, 5)), exact=True)
        triples.append((P, int(rng.integers(1, P.arity + 1)), Q))
    for _ in range(100):
        triples += _exact_window_edges(rng)
    decisions = Counter()
    for P, i, Q in triples:
        inner, outer = _fraction_bounds(P, i, Q)
        want = outer is None or inner < outer
        assert so._sew_bounds(P, i, Q) == (inner, outer)
        assert is_sewable(P, i, Q) == want
        # a float vacuum makes the window a float one, on the same radius
        assert is_sewable(P, i, vacuum_sphere()) == (
            outer is None or so._window(0.0, float(outer), exact=False))
        decisions[Q.arity == 0, inner == outer, want] += 1
    assert decisions[False, True, False] >= 100  # the ties
    assert decisions[True, False, True] > 0  # an arity-0 Q: inner is 0
    assert {want for (_, _, want) in decisions} == {True, False}


# -- the two stages of the suite ---------------------------------------------


def _operad_report(monkeypatch, argv, verify):
    """``operad-check`` output through ``verify``, its wall time masked."""
    with monkeypatch.context() as m:
        m.setattr(so, "verify_operad_axioms", verify)
        status, out = cli_io.run_suite(argv)
    return status, re.sub(r"wall_time=\S+", "wall_time=", out)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_two_stages_match_the_trial_by_trial_suite(monkeypatch, exact):
    # the batched residuals and the per-trial oracle write the same reports,
    # byte for byte; one trial makes every shape group a single lane
    plain = so.verify_operad_axioms
    single = 0
    for seed in (0, 1, 5, 7, 42, 77):
        for trials in (1, 2, 40):
            groups = Counter(
                (P.arity, i, Q.arity) for P, i, Q in so._draw(trials, seed, exact).main
            )
            single += sum(n == 1 for n in groups.values())
            for fmt in ("json", "text"):
                argv = ["operad-check", "--trials", str(trials), "--seed", str(seed),
                        "--format", fmt] + (["--exact"] if exact else [])
                got = _operad_report(monkeypatch, argv, plain)
                want = _operad_report(monkeypatch, argv, operad_oracle.verify_operad_axioms)
                assert got == want, argv
    assert single >= 12


# Stage 1's calls to module globals per (trials, seed, exact) draw.  The
# per-layer metrics count these calls: a change that inlines or drops one
# updates this table and says why
_STAGE_ONE_CALLS = {
    (1000, 12345, False): {"_sample_sewable": 3359, "random_sphere": 8063, "is_sewable": 8570,
                           "sew": 6082, "permute": 2020, "insertion_permutation": 1000},
    (150, 777, True): {"_sample_sewable": 556, "random_sphere": 1496, "is_sewable": 1441,
                       "sew": 942, "permute": 310, "insertion_permutation": 150},
}


@pytest.mark.parametrize("trials, seed, exact", _STAGE_ONE_CALLS, ids=["float", "exact"])
def test_stage_one_call_graph(monkeypatch, trials, seed, exact):
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in _STAGE_ONE_CALLS[trials, seed, exact]:
        monkeypatch.setattr(so, name, counted(name, getattr(so, name)))
    so._draw(trials, seed, exact)
    assert calls == _STAGE_ONE_CALLS[trials, seed, exact]


# the lanes of test_coincidence_after_translation_raises: sewing Q into the
# last slot of P gives p's punctures in the order of permute(p, (1, 2, 4, 3)),
# and the translation by -1e16 makes them coincide
_COINCIDENT = (
    PuncturedSphere((1 + 0j, 1 + 2**-52 + 0j), 0j, (1 + 0j,) * 3), 3,
    PuncturedSphere((1e16 + 0j,), 1e16 + 0j, (1 + 0j,) * 2),
)


def _sampling(monkeypatch, triples):
    """Make ``_sample_sewable`` return triples[k] in the k-th trial."""
    rngs = []

    def sample(rng, exact):
        if not any(r is rng for r in rngs):
            rngs.append(rng)
        return triples[next(k for k, r in enumerate(rngs) if r is rng)]

    monkeypatch.setattr(so, "_sample_sewable", sample)


# p of test_coincidence_after_translation_raises, whose permutation
# (1, 2, 4, 3) = sigma tau is refused; and a pair whose rescalings underflow
_PERMUTED = (
    PuncturedSphere((1 + 0j, 1 + 2**-52 + 0j, -1e16 + 0j), 0j, (1 + 0j,) * 4), 1,
    identity_sphere(),
)
_UNDERFLOW = (
    PuncturedSphere((1 + 0j,), 0j, (1e-170 + 0j, 1 + 0j)), 2,
    PuncturedSphere((), 0j, (1e-170 + 0j,)),
)


def _stage_two_error(monkeypatch, main, perms):
    """The error ``_residuals`` raises on the drawn triples and 0-based
    permutations (sigma, tau); the oracle is stubbed out, so that the error
    can only be a flagged lane's."""
    monkeypatch.setattr(so, "geometric_sew_oracle", lambda P, i, Q, check=True: P)
    draws = so._Draws(main, [None] * len(main), [None] * len(main),
                      [tuple(map(np.array, p)) for p in perms], None)
    with pytest.raises(SewingError) as err:
        so._residuals(draws, exact=False)
    return str(err.value)


_IDENTITY4 = ([0, 1, 2, 3], [0, 1, 2, 3])


@pytest.mark.parametrize("main, perms, want", [
    ([_COINCIDENT], [([0, 1, 2],) * 2], lambda: sew(*_COINCIDENT, check=False)),
    ([_PERMUTED], [([0, 1, 3, 2], [0, 1, 2, 3])], lambda: permute(_PERMUTED[0], (1, 2, 4, 3))),
    ([_UNDERFLOW], [([0, 1],) * 2], lambda: rescaling_sphere(1e-170 * (1e-170 + 0j))),
    # trial order first: trial 0 fails a later check than trial 1
    ([_PERMUTED, _COINCIDENT], [([0, 1, 3, 2], [0, 1, 2, 3]), ([0, 1, 2],) * 2],
     lambda: permute(_PERMUTED[0], (1, 2, 4, 3))),
], ids=["formula", "permutation", "rescaling", "trial-order"])
def test_flagged_lane_raises_the_scalar_error(monkeypatch, main, perms, want):
    with pytest.raises(SewingError) as err:
        want()
    assert _stage_two_error(monkeypatch, main, perms) == str(err.value)


def test_suite_errors_match_the_trial_by_trial_suite(monkeypatch):
    # stage 1 keeps drawing past the lanes it cannot sew; the error raised
    # is the one the trial-by-trial suite raises first
    errors = []
    for verify in (so.verify_operad_axioms, operad_oracle.verify_operad_axioms):
        _sampling(monkeypatch, [_COINCIDENT])
        with pytest.raises(SewingError) as err:
            verify(trials=1, seed=3)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("exact, draws", [(False, 2000), (True, 300)], ids=["float", "exact"])
def test_sampled_slots_take_the_identity(exact, draws):
    # the outer bound of slot i is P's own and the identity's inner bound is
    # 0, so every sampled slot also takes the identity, and sewing it gives P
    # back: the identity_right lanes need neither a sewability nor a
    # validity check
    rng = np.random.default_rng(44)
    ident = identity_sphere(exact)
    for _ in range(draws):
        P, i, _ = so._sample_sewable(rng, exact)
        assert is_sewable(P, i, ident)
        assert sew(P, i, ident) == P


# -- negative controls ---------------------------------------------------------


# The controls corrupt the module global that the checked route reads: a
# parts function (``_sew_parts``, ``_permute_parts``, ``_rescaling_parts``)
# where the suite evaluates the check on columns, and ``sew`` or
# ``insertion_permutation`` where it runs on single elements.  A corrupted
# parts function reaches single elements too, through ``sew`` and ``permute``.


def _sew_scaling_inserts_by(rule):
    """``_sew_parts`` whose k-th inserted slot gets the scaling rule(s, t, k),
    where s is the sewn slot's scaling and t the inner one, instead of s * t."""
    plain = so._sew_parts

    def sew_parts(ppos, pa, pscales, i, qpos, qa, qscales):
        z, a, scales = plain(ppos, pa, pscales, i, qpos, qa, qscales)
        s = pscales[i - 1]
        inserted = tuple(rule(s, t, k) for k, t in enumerate(qscales))
        return z, a, scales[:i - 1] + inserted + scales[i - 1 + len(qscales):]

    return sew_parts


def _sew_ignoring_inner_infinity(monkeypatch):
    # the inner punctures are not translated by the inner infinity parameter
    plain = so._sew_parts
    monkeypatch.setattr(so, "_sew_parts", lambda ppos, pa, pscales, i, qpos, qa, qscales: plain(
        ppos, pa, pscales, i, qpos, so._zero_like(qa), qscales))


def _sew_dropping_outer_scaling(monkeypatch):
    # the inserted slots forget the scaling of the slot they are sewn into
    monkeypatch.setattr(so, "_sew_parts", _sew_scaling_inserts_by(lambda s, t, k: t))


def _sew_scaling_first_insert_only(monkeypatch):
    # only the first inserted slot is rescaled by the sewn slot's scaling
    monkeypatch.setattr(so, "_sew_parts", _sew_scaling_inserts_by(
        lambda s, t, k: t if k else s * t))


def _oracle_with_negated_infinity_charts(monkeypatch):
    # the oracle's charts at infinity translate by -a instead of a
    plain = so._chart_infinity
    monkeypatch.setattr(so, "_chart_infinity", lambda a: plain(-1 * a))


def _vacuum_removes_next_slot(monkeypatch):
    # sewing the vacuum removes the slot after the sewn one
    plain = so._sew_parts
    monkeypatch.setattr(so, "_sew_parts", lambda ppos, pa, pscales, i, qpos, qa, qscales: plain(
        ppos, pa, pscales, i % len(pscales) + 1 if not qscales else i, qpos, qa, qscales))


def _sewn_element_not_relabeled(monkeypatch):
    monkeypatch.setattr(so, "insertion_permutation",
                        lambda sigma, i, n: tuple(range(1, len(sigma) + n)))


def _permute_by_inverse(monkeypatch):
    # slot j of the result is slot sigma(j), not sigma^{-1}(j): a right
    # action.  ``_permute_parts`` reads slot inv[j] = sigma^{-1}(j); the
    # inverse of inv, an int or a column of them per slot, is sigma
    plain = so._permute_parts

    def inverse(inv):
        return tuple(sum(k * (v == j) for k, v in enumerate(inv)) for j in range(len(inv)))

    monkeypatch.setattr(so, "_permute_parts", lambda positions, a, scales, inv: plain(
        positions, a, scales, inverse(inv)))


def _rescaling_with_translation(monkeypatch):
    # the rescaling element of c also translates by c - 1 (none for c = 1)
    monkeypatch.setattr(so, "_rescaling_parts", lambda c: ((), c - 1, (c,)))


# per check id of operad-check, a mutated route that fails it
OPERAD_NEGATIVE_CONTROLS = {
    "identity_left": _sew_ignoring_inner_infinity,
    "identity_right": _sew_dropping_outer_scaling,
    "formula_vs_oracle": _oracle_with_negated_infinity_charts,
    "vacuum_removal": _vacuum_removes_next_slot,
    "associativity": _sew_scaling_first_insert_only,
    "equivariance": _sewn_element_not_relabeled,
    "permutation_action": _permute_by_inverse,
    "rescaling_group": _rescaling_with_translation,
}


def test_every_operad_check_id_has_a_negative_control():
    golden = pathlib.Path(__file__).parent / "data" / "golden" / "operad-check__float.json"
    ids = {r["id"] for r in json.loads(golden.read_text())["records"]}
    assert ids == set(OPERAD_NEGATIVE_CONTROLS)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
@pytest.mark.parametrize("check_id", OPERAD_NEGATIVE_CONTROLS)
def test_operad_negative_control(monkeypatch, check_id, exact):
    OPERAD_NEGATIVE_CONTROLS[check_id](monkeypatch)
    rep = so.verify_operad_axioms(trials=40, seed=7, exact=exact)
    assert any(not r.ok for r in rep.records if r.id == check_id)
