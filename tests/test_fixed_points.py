"""The signed-permutation flat maps and the closed-form fixed points against
the Fraction-matrix oracle, and the checks of the validating constructor."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from fraction_fixed_points import MatrixMap, flat_fixed_point, heis_fixed_point, solve_rational

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
