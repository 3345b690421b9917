"""The integer flat and nil maps and their fixed points against the
Fraction-matrix and value-type oracle, equality across denominators, and the
checks of the validating constructor."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from fraction_fixed_points import (
    MatrixMap,
    flat_fixed_point,
    heis_fixed_point,
    heis_inverse,
    heis_product,
    solve_rational,
)

from nilbott.exact import GaussRat, IntMatrix
from nilbott.geometry import FlatAffineMap, HeisAffineMap, HeisAut, HeisPoint

UNITS = [GaussRat(1), GaussRat(-1), GaussRat(0, 1), GaussRat(0, -1)] + [
    GaussRat(Fraction(3 * sr, 5), Fraction(4 * si, 5)) for sr in (1, -1) for si in (1, -1)
]


def random_signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = rng.choice((-1, 1))
    return IntMatrix(rows)


def random_flat(rng, n=None):
    """A signed-permutation map of dimension 1-4; about 40% of the
    translation entries are 0, so cycles that close to x = x + 0 occur."""
    n = n or rng.randint(1, 4)
    trans = [
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else 0
        for _ in range(n)
    ]
    return FlatAffineMap(random_signed_permutation(rng, n), trans)


def rand_rat(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 3))


def random_heis(rng):
    """A nil map with rotation part from UNITS, conjugating or not; half of
    them are conjugates of a map fixing the origin, so they have a fixed
    point."""
    aut = HeisAut(rng.choice(UNITS), conj=rng.random() < 0.5)
    if rng.random() < 0.5:
        return HeisAffineMap(HeisPoint(rand_rat(rng), GaussRat(rand_rat(rng), rand_rat(rng))), aut)
    t = HeisAffineMap(HeisPoint(rand_rat(rng), GaussRat(rand_rat(rng), rand_rat(rng))))
    return t * HeisAffineMap(HeisPoint.identity(), aut) * t.inverse()


def test_flat_fixed_points_match_oracle():
    # the oracle's solver on a singular system: the free variable is 0
    a = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(0)]]
    assert solve_rational(a, [Fraction(3), Fraction(0)]) == [Fraction(3, 2), 0]
    assert solve_rational(a, [Fraction(3), Fraction(1)]) is None

    rng = random.Random(20110601)
    outcomes = Counter()
    for _ in range(2400):
        m = random_flat(rng)
        pt = m.fixed_point()
        expected = flat_fixed_point(m)
        assert pt == expected, m
        outcomes[pt is None] += 1
        if pt is not None:
            assert type(pt) is list
            assert [type(x) for x in pt] == [Fraction] * m.dim
            assert m.apply(pt) == tuple(pt)
    assert min(outcomes.values()) >= 200 and len(outcomes) == 2, outcomes


def test_heis_fixed_points_match_oracle():
    rng = random.Random(1729)
    outcomes = Counter()
    for _ in range(1200):
        m = random_heis(rng)
        pt = m.fixed_point()
        assert pt == heis_fixed_point(m), m
        outcomes[m.aut.conj, m.aut.u.re == 1, pt is None] += 1
        if pt is not None:
            assert type(pt.x) is Fraction and type(pt.z) is GaussRat
            assert m.apply(pt) == pt
    # both outcomes in each branch of the conjugating solve and for rotations
    for conj, unit_re in [(True, True), (True, False), (False, False)]:
        for none in (True, False):
            assert outcomes[conj, unit_re, none] >= 20, outcomes


def test_flat_products_match_matrix_products():
    rng = random.Random(5)
    for _ in range(600):
        n = rng.randint(1, 4)
        lin = random_signed_permutation(rng, n)
        a = FlatAffineMap(lin, [rand_rat(rng) for _ in range(n)])
        b = random_flat(rng, n)
        assert a.lin == lin
        assert a * b == (MatrixMap(a) * MatrixMap(b)).m
        inv = a.inverse()
        assert inv == MatrixMap(a).inverse().m
        assert (a * inv).is_identity() and (inv * a).is_identity()
        point = tuple(rand_rat(rng) for _ in range(n))
        assert (a * b).apply(point) == a.apply(b.apply(point))


def assert_point_types(pt, m):
    if isinstance(m, FlatAffineMap):
        assert type(pt) is list and [type(x) for x in pt] == [Fraction] * m.dim
    else:
        assert type(pt) is HeisPoint and type(pt.x) is Fraction and type(pt.z) is GaussRat


@pytest.mark.parametrize("kind", ["flat", "nil"])
def test_mixed_denominator_chains_match_oracle(kind):
    # three factors with translation denominators 1, 2 and 3 in one product
    # (and rotations over 5 for the nil maps): products, inverses and fixed
    # points equal the oracle's, fixed points in value and type
    rng = random.Random(271828 if kind == "flat" else 161803)
    outcomes = Counter()
    for _ in range(500):
        if kind == "flat":
            n = rng.randint(1, 4)
            factors = [
                FlatAffineMap(random_signed_permutation(rng, n),
                              [Fraction(rng.randint(-5, 5), den) for _ in range(n)])
                for den in (1, 2, 3)
            ]
            rng.shuffle(factors)
        else:
            # a b a^-1 has a fixed point when b does
            a, b = random_heis(rng), random_heis(rng)
            factors = [a, b, a.inverse() if rng.random() < 0.5 else random_heis(rng)]
        a, b, c = factors
        m = a * b * c
        oracle = MatrixMap(a) * MatrixMap(b) * MatrixMap(c)
        assert m == oracle.m and hash(m) == hash(oracle.m) and repr(m) == repr(oracle.m)
        assert m.inverse() == oracle.inverse().m
        pt = m.fixed_point()
        assert pt == oracle.fixed_point(), m
        outcomes[pt is None] += 1
        if pt is not None:
            assert_point_types(pt, m)
            assert m.apply(pt) == (tuple(pt) if kind == "flat" else pt)
    assert len(outcomes) == 2 and min(outcomes.values()) >= 20, outcomes


def test_nil_products_and_inverses_match_value_oracle():
    rng = random.Random(4242)
    for _ in range(600):
        a, b = random_heis(rng), random_heis(rng)
        ab = a * b
        assert ab == heis_product(a, b)
        assert a.inverse() == heis_inverse(a)
        assert (ab * ab.inverse()).is_identity() and (ab.inverse() * ab).is_identity()
        assert type(ab.g) is HeisPoint and type(ab.g.x) is Fraction
        assert type(ab.g.z) is GaussRat and type(ab.aut) is HeisAut
        point = HeisPoint(rand_rat(rng), GaussRat(rand_rat(rng), rand_rat(rng)))
        assert ab.apply(point) == a.apply(b.apply(point))


def test_equal_maps_through_different_denominators():
    half = FlatAffineMap.translation((Fraction(1, 2), 0, 0))
    whole = FlatAffineMap.translation((1, 0, 0))
    assert half * half == whole and whole == half * half
    assert hash(half * half) == hash(whole) and repr(half * half) == repr(whole)
    assert (half * half).trans == (1, 0, 0)
    assert all(type(t) is Fraction for t in (half * half).trans)
    assert {half * half} == {whole}
    # denominators 3 and 6 give 1/2 over 6
    third = FlatAffineMap.translation((Fraction(1, 3), 0, 0))
    sixth = FlatAffineMap.translation((Fraction(1, 6), 0, 0))
    assert third * sixth == half and hash(third * sixth) == hash(half)
    assert third * sixth != whole and third != sixth

    step = HeisAffineMap(HeisPoint(Fraction(1, 2), GaussRat(Fraction(1, 2))))
    nil_whole = HeisAffineMap(HeisPoint(1, GaussRat(1)))
    assert step * step == nil_whole and hash(step * step) == hash(nil_whole)
    assert repr(step * step) == repr(nil_whole)
    # a rotation by (3 + 4i)/5 composed with its inverse has u over 25 before
    # reduction; the product is the identity map
    rot = HeisAffineMap(
        HeisPoint(Fraction(1, 3), GaussRat(1, Fraction(2, 3))),
        HeisAut(GaussRat(Fraction(3, 5), Fraction(4, 5))),
    )
    ident = HeisAffineMap(HeisPoint.identity())
    assert rot * rot.inverse() == ident and hash(rot * rot.inverse()) == hash(ident)
    assert (rot * rot).aut == HeisAut(GaussRat(Fraction(-7, 25), Fraction(24, 25)))


@pytest.mark.parametrize(
    "lin, trans, message",
    [
        ([[1, 0]], (0, 0), "linear part must be square"),
        ([[2, 0], [0, 1]], (0, 0), "linear part entries must be -1, 0 or 1"),
        ([[1, -1], [0, 1]], (0, 0), "linear part must be orthogonal"),
        ([[0, 0], [0, 1]], (0, 0), "linear part must be orthogonal"),
        ([[0, -1], [0, 1]], (0, 0), "linear part must be orthogonal"),
        ([[1, 0], [0, -1]], (0,), "translation length mismatch"),
        ([[1, 0], [0, -1]], (0, 0, 1), "translation length mismatch"),
    ],
    ids=["non-square", "entry-2", "two-in-a-row", "zero-row", "repeated-column",
         "short-translation", "long-translation"],
)
def test_constructor_rejects_bad_maps(lin, trans, message):
    with pytest.raises(ValueError, match=message):
        FlatAffineMap(IntMatrix(lin), trans)


def test_products_reject_mixed_dimensions():
    with pytest.raises(ValueError, match="dimension mismatch"):
        FlatAffineMap.translation((1, 0)) * FlatAffineMap.translation((1, 0, 0))
