"""The integer triangular maps and their fixed points against the
Fraction-matrix oracle, the nil oracle's value maps, equality across
denominators, and the checks of the validating constructor.

On a diagonal map the engine's Smith form and the oracle's elimination
give the same point, the unique one; otherwise both solve a singular system, so the engine's
point is checked by applying the map, and it must be None exactly when the
oracle's is."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from fraction_fixed_points import MatrixMap, flat_fixed_point, solve_rational
from heis_oracle import GaussRat, HeisAffineMap, HeisAut, HeisPoint

from nilbott.exact import IntMatrix
from nilbott.geometry import FlatAffineMap

UNITS = [GaussRat(1), GaussRat(-1), GaussRat(0, 1), GaussRat(0, -1)] + [
    GaussRat(Fraction(3 * sr, 5), Fraction(4 * si, 5)) for sr in (1, -1) for si in (1, -1)
]


def random_triangular(rng, n, shear=True):
    """An integer lower-triangular matrix with +-1 on its diagonal; with
    shear, about half its lower entries are nonzero, in [-2, 2]."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice((-1, 1))
        for j in range(i):
            if shear and rng.random() < 0.5:
                rows[i][j] = rng.randint(-2, 2)
    return IntMatrix(rows)


def random_flat(rng, n=None, shear=None):
    """A triangular map of dimension 1-4, sheared or not (drawn when shear
    is None); about 40% of the translation entries are 0, so coordinates
    that close to x = x + 0 occur."""
    n = n or rng.randint(1, 4)
    shear = rng.random() < 0.5 if shear is None else shear
    trans = [
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.6 else 0
        for _ in range(n)
    ]
    return FlatAffineMap(random_triangular(rng, n, shear), trans)


def fixing(m, point):
    """m with its translation changed so that it fixes point."""
    moved = m.apply(point)
    return FlatAffineMap(m.lin, [p - (y - t) for p, y, t in zip(point, moved, m.trans)])


def rand_rat(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 3))


def random_heis(rng):
    """A nil oracle map with rotation part from UNITS, conjugating or not;
    half of them are conjugates of a map fixing the origin."""
    aut = HeisAut(rng.choice(UNITS), conj=rng.random() < 0.5)
    if rng.random() < 0.5:
        return HeisAffineMap(HeisPoint(rand_rat(rng), GaussRat(rand_rat(rng), rand_rat(rng))), aut)
    t = HeisAffineMap(HeisPoint(rand_rat(rng), GaussRat(rand_rat(rng), rand_rat(rng))))
    return t * HeisAffineMap(HeisPoint.identity(), aut) * t.inverse()


def assert_fixed_point(m, pt, expected):
    """pt, the engine's fixed point of m, against the oracle's expected."""
    if m.low is None:
        assert pt == expected, m
    else:
        assert (pt is None) == (expected is None), m
    if pt is not None:
        assert type(pt) is list and [type(x) for x in pt] == [Fraction] * m.dim
        assert m.apply(pt) == tuple(pt)


def test_flat_fixed_points_match_oracle():
    # the oracle's solver on a singular system: the free variable is 0
    a = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(0)]]
    assert solve_rational(a, [Fraction(3), Fraction(0)]) == [Fraction(3, 2), 0]
    assert solve_rational(a, [Fraction(3), Fraction(1)]) is None

    rng = random.Random(20110601)
    outcomes = Counter()
    for _ in range(2400):
        m = random_flat(rng)
        if rng.random() < 0.3:
            m = fixing(m, [rand_rat(rng) for _ in range(m.dim)])
        pt = m.fixed_point()
        assert_fixed_point(m, pt, flat_fixed_point(m))
        outcomes[m.low is None, pt is None] += 1
    assert min(outcomes.values()) >= 150 and len(outcomes) == 4, outcomes


def test_flat_products_match_matrix_products():
    rng = random.Random(5)
    for _ in range(600):
        n = rng.randint(1, 4)
        lin = random_triangular(rng, n, rng.random() < 0.7)
        a = FlatAffineMap(lin, [rand_rat(rng) for _ in range(n)])
        b = random_flat(rng, n)
        assert a.lin == lin
        assert a * b == (MatrixMap(a) * MatrixMap(b)).m
        inv = a.inverse()
        assert inv == MatrixMap(a).inverse().m
        one = FlatAffineMap.translation((0,) * n)
        assert a * inv == one and inv * a == one
        point = tuple(rand_rat(rng) for _ in range(n))
        assert (a * b).apply(point) == a.apply(b.apply(point))


@pytest.mark.parametrize("kind", ["flat", "nil"])
def test_mixed_denominator_chains_match_oracle(kind):
    # three factors with translation denominators 1, 2 and 3 in one
    # product, diagonal (flat) or sheared as the nil models are: products,
    # inverses and fixed points agree with the oracle's
    rng = random.Random(271828 if kind == "flat" else 161803)
    outcomes = Counter()
    for _ in range(500):
        n = rng.randint(1, 4) if kind == "flat" else rng.randint(2, 4)
        factors = [
            FlatAffineMap(random_triangular(rng, n, kind == "nil"),
                          [Fraction(rng.randint(-5, 5), den) for _ in range(n)])
            for den in (1, 2, 3)
        ]
        rng.shuffle(factors)
        a, b, c = factors
        if rng.random() < 0.5:
            # a b a^-1 has a fixed point when b does
            b = fixing(b, [rand_rat(rng) for _ in range(n)])
            c = a.inverse()
        m = a * b * c
        oracle = MatrixMap(a) * MatrixMap(b) * MatrixMap(c)
        assert m == oracle.m and hash(m) == hash(oracle.m) and repr(m) == repr(oracle.m)
        assert m.inverse() == oracle.inverse().m
        pt = m.fixed_point()
        assert_fixed_point(m, pt, oracle.fixed_point())
        outcomes[pt is None] += 1
    assert len(outcomes) == 2 and min(outcomes.values()) >= 20, outcomes


def test_nil_products_and_inverses_match_value_oracle():
    # the nil oracle's maps: a product acts on points as the composition
    # of its factors, and an inverse undoes its map
    rng = random.Random(4242)
    for _ in range(600):
        a, b = random_heis(rng), random_heis(rng)
        ab = a * b
        assert (ab * ab.inverse()).is_identity() and (ab.inverse() * ab).is_identity()
        assert type(ab.g) is HeisPoint and type(ab.g.x) is Fraction
        assert type(ab.g.z) is GaussRat and type(ab.aut) is HeisAut
        point = HeisPoint(rand_rat(rng), GaussRat(rand_rat(rng), rand_rat(rng)))
        assert ab.apply(point) == a.apply(b.apply(point))
        assert a.inverse().apply(a.apply(point)) == point


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

    # a shear over 2 squared, and against its inverse: the lower part
    # cancels to None, so the identity hashes and prints alike
    lin = IntMatrix([[1, 0, 0], [1, 1, 0], [0, -2, 1]])
    step = FlatAffineMap(lin, (Fraction(1, 2), 0, 0))
    sq = FlatAffineMap(IntMatrix([[1, 0, 0], [2, 1, 0], [-2, -4, 1]]), (1, Fraction(1, 2), 0))
    assert step * step == sq and hash(step * step) == hash(sq) and repr(step * step) == repr(sq)
    ident = FlatAffineMap.translation((0, 0, 0))
    assert step * step.inverse() == ident and hash(step * step.inverse()) == hash(ident)
    assert (step * step.inverse()).low is None and ident.den == 1


@pytest.mark.parametrize(
    "lin, trans, message",
    [
        ([[1, 0]], (0, 0), "linear part must be square"),
        ([[2, 0], [0, 1]], (0, 0), "diagonal entries of the linear part must be -1 or 1"),
        ([[1, -1], [0, 1]], (0, 0), "linear part must be lower triangular"),
        ([[0, 0], [0, 1]], (0, 0), "diagonal entries of the linear part must be -1 or 1"),
        ([[0, -1], [0, 1]], (0, 0), "linear part must be lower triangular"),
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
