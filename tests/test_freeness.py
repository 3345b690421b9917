"""The row walk of freeness_sample against the letter-by-letter oracle
(and, on the non-free representations, the Fraction-matrix kernel), on the
catalogue and on random representations; its closed-form candidates for
each row's last exponent; its cost in map products; and rep_evaluate at
huge twisting integers."""

import random
import time
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from fraction_fixed_points import MatrixMap
from letterwise_freeness import evaluate as letterwise_evaluate
from letterwise_freeness import freeness_sample as letterwise_sample
from pc_oracle import from_rule_text, pc_presentation

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
from nilbott.polycyclic import cyclic_pc
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
    p = from_rule_text(("a", "b", "n"), {(0, 1): "b^-1", (0, 2): "n^-1"})
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


@pytest.mark.parametrize("first", ["flat", "nil"])
def test_mixed_representations_are_rejected(first):
    flat = FlatAffineMap.translation((1, 0, 0))
    nil = HeisAffineMap(HeisPoint(0, GaussRat(1)))
    rep = [flat, nil] if first == "flat" else [nil, flat]
    p = catalogue_pc("T2")
    match = "all flat maps of one dimension or all nil maps"
    with pytest.raises(ValueError, match=match):
        freeness_sample(p, rep, 2)
    with pytest.raises(ValueError, match=match):
        verify_relations_in_rep(p, rep)
    # flat maps of two dimensions do not mix either
    with pytest.raises(ValueError, match=match):
        freeness_sample(p, [flat, FlatAffineMap.translation((1, 0))], 2)


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

    @property
    def dim(self):
        return self.m.dim

    @staticmethod
    def over_one_den(maps):
        inner = type(maps[0].m).over_one_den([c.m for c in maps])
        return [CountedMap(m, c.counter) for m, c in zip(inner, maps)]

    def __mul__(self, other):
        self.counter[0] += 1
        return CountedMap(self.m * other.m, self.counter)

    def inverse(self):
        return CountedMap(self.m.inverse(), self.counter)

    def is_translation(self):
        return self.m.is_translation()

    def fixed_point_candidates(self, tau, lo, hi):
        return self.m.fixed_point_candidates(tau.m, lo, hi)

    def fixed_point(self):
        return self.m.fixed_point()


@pytest.mark.parametrize("label, k", [("B4", None), ("Gamma", 2), ("T2", None)])
def test_one_product_per_normal_form(label, k):
    # beyond the power tables, a free sample takes at most one product per
    # row prefix (e_0, ..., e_{n-2}), far fewer than one per normal form:
    # the last exponent is decided in closed form
    max_word_len = 6
    counter = [0]
    p = catalogue_pc(label, k)
    rep = [CountedMap(m, counter) for m in catalogue_representation(label, k)]
    report = freeness_sample(p, rep, max_word_len)
    assert report.is_free_sample and report.words_checked == ball_size(p.ngens, max_word_len)
    tables = p.ngens * 2 * (max_word_len - 1)
    assert counter[0] - tables <= l1_ball_size(p.ngens - 1, max_word_len)
    # the letter-by-letter walk takes about five products per normal form
    counter[0] = 0
    letterwise_sample(p, rep, max_word_len)
    assert counter[0] > 2 * report.words_checked


# -- the row walk against the letterwise oracle on random representations ------

UNITS = [GaussRat(1), GaussRat(0, 1), GaussRat(-1), GaussRat(0, -1),
         GaussRat(Fraction(3, 5), Fraction(4, 5))]


def _rationals(draw, size):
    den = draw(st.sampled_from([1, 2, 3]))
    return [Fraction(draw(st.sampled_from(range(-2, 3))), den) for _ in range(size)]


def _flat_map(draw, dim, order=None):
    """A flat map of dimension dim; order 1, 2 or 4 fixes the order of its
    holonomy, None draws any signed permutation."""
    perm = list(draw(st.permutations(range(dim))))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=dim, max_size=dim))
    if order == 1:
        perm, signs = list(range(dim)), [1] * dim
    elif order == 2:
        perm, signs[0] = list(range(dim)), -1
    elif order == 4 and dim >= 2:
        # a quarter turn of the first two coordinates
        perm, signs[:2] = [1, 0] + list(range(2, dim)), [-1, 1]
    lin = IntMatrix([[signs[i] if j == perm[i] else 0 for j in range(dim)] for i in range(dim)])
    return FlatAffineMap(lin, _rationals(draw, dim))


def _nil_map(draw):
    x, re, im = _rationals(draw, 3)
    aut = HeisAut(draw(st.sampled_from(UNITS)), draw(st.booleans()))
    return HeisAffineMap(HeisPoint(x, GaussRat(re, im)), aut)


def _fixing(m, draw):
    """m with its translation part changed so that it fixes a drawn point."""
    if isinstance(m, FlatAffineMap):
        p = _rationals(draw, m.dim)
        lin_p = [y - t for y, t in zip(m.apply(p), m.trans)]
        return FlatAffineMap(m.lin, [a - b for a, b in zip(p, lin_p)])
    x, re, im = _rationals(draw, 3)
    p = HeisPoint(x, GaussRat(re, im))
    return HeisAffineMap(p * m.aut.apply(p).inverse(), m.aut)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_rows_match_letterwise_on_random_representations(data):
    draw = data.draw
    ngens, max_word_len = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        order = draw(st.sampled_from([1, 2, 4, None]))
        rep = [_flat_map(draw, dim) for _ in range(ngens - 1)] + [_flat_map(draw, dim, order)]
    else:
        rep = [_nil_map(draw) for _ in range(ngens)]
    # most cases have a generator that fixes a point, so fixed points show
    fixer = draw(st.sampled_from([None] + list(range(ngens))))
    if fixer is not None:
        rep[fixer] = _fixing(rep[fixer], draw)
    p = pc_presentation(tuple(f"x{i}" for i in range(ngens)))
    report = assert_matches_oracle(p, rep, max_word_len)
    if fixer is not None:
        assert report.fixed_points


def _nil(x, z, aut=None):
    return HeisAffineMap(HeisPoint(x, GaussRat(*z)), aut)


@pytest.mark.parametrize(
    "q, tau, expected",
    [
        # two cycles whose sums vanish at different j, and at the same j
        (FlatAffineMap.translation((2, 3)), FlatAffineMap.translation((1, 1)), []),
        (FlatAffineMap.translation((2, 2)), FlatAffineMap.translation((1, 1)), [-2]),
        # the cycle with signs -1 always closes, the +1 cycle never moves
        (FlatAffineMap(IntMatrix.diagonal([-1, 1]), (5, 0)),
         FlatAffineMap.translation((1, 0)), list(range(-4, 5))),
        (FlatAffineMap(IntMatrix.diagonal([-1, 1]), (5, 1)),
         FlatAffineMap.translation((1, 0)), []),
        # nil translations: g s^j is the identity at one j or none
        (_nil(2, (2, 2)), _nil(1, (1, 1)), [-2]),
        (_nil(1, (2, 2)), _nil(1, (1, 1)), []),
        (_nil(0, (2, 3)), _nil(0, (1, 1)), []),
        # rotation 1 with conjugation: only re z counts
        (_nil(3, (1, 5), TAU), _nil(7, (1, 7)), [-1]),
        (_nil(3, (1, 5), TAU), _nil(7, (0, 7)), []),
        # a quarter turn is left to fixed_point
        (_nil(0, (1, 0), HeisAut(GaussRat(0, 1))), _nil(1, (0, 0)), list(range(-4, 5))),
    ],
)
def test_candidates_in_closed_form(q, tau, expected):
    assert list(q.fixed_point_candidates(tau, -4, 4)) == expected
    fixed = [j for j in range(-4, 5)
             if (q * rep_evaluate([tau], Word([(0, j)])) if j else q).fixed_point() is not None]
    assert set(fixed) <= set(expected)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_candidates_hold_every_fixed_point(data):
    # mostly Q = F tau^-j0 with F fixing a point, so that Q tau^j0 has a
    # fixed point; the filter may keep extra j only for a nil rotation
    # other than 1
    draw = data.draw
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        f = _flat_map(draw, dim)
        tau = FlatAffineMap.translation(_rationals(draw, dim))
    else:
        f = _nil_map(draw)
        x, re, im = _rationals(draw, 3)
        tau = HeisAffineMap(HeisPoint(x, GaussRat(re, im)))
    fixes = draw(st.integers(0, 3)) > 0
    if fixes:
        f = _fixing(f, draw)
    exact = isinstance(f, FlatAffineMap) or f.aut.u == GaussRat(1)
    j0 = draw(st.sampled_from(range(-4, 5)))
    q = f * rep_evaluate([tau], Word([(0, -j0)])) if j0 else f
    lo = draw(st.integers(-5, 5))
    hi = lo + draw(st.integers(0, 8))
    fixed = [j for j in range(lo, hi + 1)
             if (q * rep_evaluate([tau], Word([(0, j)])) if j else q).fixed_point() is not None]
    candidates = q.fixed_point_candidates(tau, lo, hi)
    assert list(candidates) in ([], list(range(lo, hi + 1))) or len(candidates) == 1
    assert set(fixed) <= set(candidates)
    if exact:
        assert fixed == list(candidates)
    if fixes and lo <= j0 <= hi:
        assert j0 in fixed


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
