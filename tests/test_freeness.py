"""The l1-ball walk of freeness_sample against the letter-by-letter oracle
(and, on the non-free representations, the Fraction-matrix kernel), its
cost in map products, and rep_evaluate at huge twisting integers."""

import random
import time
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from fraction_fixed_points import MatrixMap
from letterwise_freeness import evaluate as letterwise_evaluate
from letterwise_freeness import freeness_sample as letterwise_sample

from nilbott.catalogue import catalogue_pc
from nilbott.exact import GaussRat, IntMatrix
from nilbott.geometry import (
    TAU,
    FlatAffineMap,
    HeisAffineMap,
    HeisAut,
    HeisPoint,
    catalogue_representation,
    freeness_sample,
    l1_ball_size,
    rep_evaluate,
    verify_relations_in_rep,
)
from nilbott.polycyclic import cyclic_pc, parse_pc_presentation
from nilbott.words import Word

CATALOGUE = [
    ("S1", None), ("T2", None), ("K", None), ("T3", None), ("G2", None),
    ("B1", None), ("B2", None), ("B3", None), ("B4", None),
    ("Delta", 0), ("Delta", 2), ("Delta", -3), ("Gamma", 1), ("Gamma", 2), ("Gamma", -5),
]


def ball_size(ngens, radius):
    return sum(2**i * comb(ngens, i) * comb(radius, i) for i in range(1, ngens + 1))


def assert_matches_oracle(p, rep, max_word_len):
    report = freeness_sample(p, rep, max_word_len)
    assert report == letterwise_sample(p, rep, max_word_len)
    assert report.words_checked == ball_size(p.ngens, max_word_len)
    return report


@pytest.mark.parametrize("label, k", CATALOGUE)
def test_catalogue_reports_match_oracle(label, k):
    p = catalogue_pc(label, k)
    report = assert_matches_oracle(p, catalogue_representation(label, k), 4)
    assert report.is_free_sample


def _reflection_klein():
    """K with g a reflection (no glide): fixed lines for every g^odd h^j."""
    g = FlatAffineMap(IntMatrix.diagonal([1, -1]), (0, 0))
    h = FlatAffineMap.translation((0, 1))
    return catalogue_pc("K"), [g, h]


def _signed_permutation_torus():
    """Z^3 acting through a quarter turn with a translation, a vertical
    translation and the square of the quarter turn."""
    x = FlatAffineMap(IntMatrix([[0, -1, 0], [1, 0, 0], [0, 0, 1]]), (1, Fraction(1, 3), 0))
    y = FlatAffineMap.translation((0, 0, 1))
    return catalogue_pc("T3"), [x, y, x * x]


def _conjugating_nil():
    """a = z -> conj(z), x -> -x inverts the lattice <b, n> of the nil
    geometry and fixes the real axis."""
    p = parse_pc_presentation("gens: a b n ; a b a^-1 = b^-1 ; a n a^-1 = n^-1")
    a = HeisAffineMap(HeisPoint.identity(), TAU)
    b = HeisAffineMap(HeisPoint(0, GaussRat(0, 2)))
    n = HeisAffineMap(HeisPoint(4, GaussRat(0)))
    return p, [a, b, n]


@pytest.mark.parametrize("make", [_reflection_klein, _signed_permutation_torus, _conjugating_nil])
@pytest.mark.parametrize("max_word_len", [3, 5])
def test_non_free_reports_match_oracle(make, max_word_len):
    p, rep = make()
    assert verify_relations_in_rep(p, rep) == (True, None)
    report = assert_matches_oracle(p, rep, max_word_len)
    assert len(report.fixed_points) >= 3
    # matrix products and Fraction eliminations give the same exact points
    assert report == letterwise_sample(p, [MatrixMap(m) for m in rep], max_word_len)


@pytest.mark.parametrize(
    "rep, max_word_len, n_fixed",
    [
        ([FlatAffineMap(IntMatrix.diagonal([-1, -1]), (0, 0))], 1, 2),
        ([FlatAffineMap(IntMatrix.diagonal([-1, -1]), (0, 0))], 2, 4),
        ([FlatAffineMap(IntMatrix([[0, -1], [1, 0]]), (1, 0))], 6, 12),
        ([HeisAffineMap(HeisPoint(Fraction(1, 2), GaussRat(1)), HeisAut(GaussRat(0, 1)))], 5, 10),
        ([HeisAffineMap(HeisPoint(0, GaussRat(1)), HeisAut(GaussRat(0, 1)))], 5, 0),
        ([FlatAffineMap.translation((Fraction(1, 2), 0))], 6, 0),
    ],
)
def test_cyclic_controls_match_oracle(rep, max_word_len, n_fixed):
    # the flat rotations and the first nil quarter turn fix a point at every
    # power (their fourth powers are the identity); the second nil quarter
    # turn is a screw motion and the half translation moves every point
    report = assert_matches_oracle(cyclic_pc("r"), rep, max_word_len)
    assert len(report.fixed_points) == n_fixed
    assert [vec for vec, _ in report.fixed_points] == sorted(vec for vec, _ in report.fixed_points)


def test_freeness_needs_one_map_per_generator():
    p = catalogue_pc("B1")
    rep = catalogue_representation("B1")
    for bad in (rep + rep, rep[:2], []):
        with pytest.raises(ValueError, match="need one map per generator"):
            freeness_sample(p, bad, 2)


def test_freeness_rejects_huge_balls_up_front():
    # the ball size is computed in closed form before any power table is
    # built, so this allocates nothing
    p = catalogue_pc("B1")
    rep = catalogue_representation("B1")
    with pytest.raises(ValueError, match="above the limit of 1000000"):
        freeness_sample(p, rep, 10**12)
    assert [l1_ball_size(3, n) for n in (90, 91)] == [988440, 1021566]
    for n in (1, 2, 3):
        for r in (1, 4):
            ball = [v for v in product(range(-r, r + 1), repeat=n) if 0 < sum(map(abs, v)) <= r]
            assert l1_ball_size(n, r) == len(ball)


class CountedMap:
    """A map that counts the products taken through it."""

    def __init__(self, m, counter):
        self.m, self.counter = m, counter

    def __mul__(self, other):
        self.counter[0] += 1
        return CountedMap(self.m * other.m, self.counter)

    def inverse(self):
        return CountedMap(self.m.inverse(), self.counter)

    def fixed_point(self):
        return self.m.fixed_point()


@pytest.mark.parametrize("label, k", [("B4", None), ("Gamma", 2), ("T2", None)])
def test_one_product_per_normal_form(label, k):
    max_word_len = 6
    counter = [0]
    p = catalogue_pc(label, k)
    rep = [CountedMap(m, counter) for m in catalogue_representation(label, k)]
    report = freeness_sample(p, rep, max_word_len)
    tables = p.ngens * 2 * (max_word_len - 1)
    assert counter[0] - tables <= report.words_checked
    # the letter-by-letter walk takes about five times as many for n = 3
    counter[0] = 0
    letterwise_sample(p, rep, max_word_len)
    assert counter[0] > 2 * report.words_checked


def test_rep_evaluate_matches_letterwise():
    rng = random.Random(314159)
    for label, k in [("B4", None), ("G2", None), ("Delta", -3), ("Gamma", 2)]:
        rep = catalogue_representation(label, k)
        for _ in range(30):
            syllables = [(rng.randrange(3), rng.choice([-1, 1]) * rng.randint(1, 13))
                         for _ in range(rng.randint(1, 4))]
            w = Word(syllables)
            if not w.syllables:
                continue
            assert rep_evaluate(rep, w) == letterwise_evaluate(rep, w.syllables), (label, w)


@pytest.mark.parametrize("label", ["Delta", "Gamma"])
@pytest.mark.parametrize("k", [10**6, -(10**6), 10**30, -(10**30)])
def test_relations_at_huge_k(label, k):
    p = catalogue_pc(label, k)
    rep = catalogue_representation(label, k)
    start = time.perf_counter()
    assert verify_relations_in_rep(p, rep) == (True, None)
    assert time.perf_counter() - start < 2.0
