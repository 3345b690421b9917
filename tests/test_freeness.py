"""The walk of freeness_sample against the letter-by-letter oracle (and,
on the non-free representations, the Fraction-matrix kernel), on the
catalogue, on random triangular representations and on representations
built so that whole subtrees and rows are ruled out, or an unsettled level
sits above a settled one, and on the nil oracle's maps, which claim no
shifted coordinate; the walk's start at the first unsettled level, after
the settled levels before it are counted in one step; its cost, which on
the catalogue and on every Seifert model is one read of each generator's
shifts and no map product, rescaling, power table or fixed-point solve at
any word length, since every level is settled and the whole ball is
counted in closed form; the order of its argument checks; and
rep_evaluate on normal forms, at huge twisting integers too."""

import random
import time
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import deep_specs, diagonal
from fraction_fixed_points import MatrixMap
from heis_oracle import TAU, GaussRat, HeisAffineMap, HeisAut, HeisPoint
from letterwise_freeness import evaluate as letterwise_evaluate
from letterwise_freeness import freeness_sample as letterwise_sample
from pc_oracle import from_rule_text, pc_presentation

from nilbott import geometry
from nilbott.catalogue import catalogue_pc
from nilbott.exact import IntMatrix
from nilbott.geometry import (
    FlatAffineMap,
    catalogue_representation,
    freeness_sample,
    l1_ball_size,
    rep_evaluate,
    seifert_model,
    verify_relations_in_rep,
)
from nilbott.polycyclic import ExtensionError, collect, cyclic_pc
from nilbott.towers import build_tower_groups
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
    g = FlatAffineMap(diagonal([1, -1]), (0, 0))
    h = FlatAffineMap.translation((0, 1))
    return catalogue_pc("K"), [g, h]


def _signed_permutation_torus():
    """Z^3 acting through a half turn (a diagonal signed permutation) with
    a translation, a vertical translation and the square of the half
    turn."""
    x = FlatAffineMap(diagonal([-1, -1, 1]), (1, Fraction(1, 3), 0))
    y = FlatAffineMap.translation((0, 0, 1))
    return catalogue_pc("T3"), [x, y, x * x]


def _sheared_torus():
    """Z^3 acting through a shear with a translation along its fixed
    direction, a vertical translation and the square of the shear; every
    power of the shear fixes a line."""
    x = FlatAffineMap(IntMatrix([[1, 0, 0], [1, 1, 0], [0, 0, 1]]), (0, Fraction(1, 3), 0))
    y = FlatAffineMap.translation((0, 0, 1))
    return catalogue_pc("T3"), [x, y, x * x]


def _conjugating_nil():
    """The nil oracle's a = z -> conj(z), x -> -x inverts the lattice
    <b, n> of the nil geometry and fixes the real axis."""
    p = from_rule_text(("a", "b", "n"), {(0, 1): "b^-1", (0, 2): "n^-1"})
    a = HeisAffineMap(HeisPoint.identity(), TAU)
    b = HeisAffineMap(HeisPoint(0, GaussRat(0, 2)))
    n = HeisAffineMap(HeisPoint(4, GaussRat(0)))
    return p, [a, b, n]


@pytest.mark.parametrize(
    "make", [_reflection_klein, _signed_permutation_torus, _conjugating_nil, _sheared_torus]
)
@pytest.mark.parametrize("max_word_len", [3, 5])
def test_non_free_reports_match_oracle(make, max_word_len):
    p, rep = make()
    assert verify_relations_in_rep(p, rep) == (True, None)
    report = assert_matches_oracle(p, rep, max_word_len)
    assert len(report.fixed_points) >= 3
    # matrix products and Fraction eliminations fix the same normal forms,
    # at the same exact points unless a map is sheared
    oracle = letterwise_sample(p, [MatrixMap(m) for m in rep], max_word_len)
    if make is _sheared_torus:
        assert [v for v, _ in report.fixed_points] == [v for v, _ in oracle.fixed_points]
        for v, pt in report.fixed_points:
            assert rep_evaluate(rep, v).apply(pt) == tuple(pt)
    else:
        assert report == oracle


@pytest.mark.parametrize(
    "rep, max_word_len, n_fixed",
    [
        ([FlatAffineMap(diagonal([-1, -1]), (0, 0))], 1, 2),
        ([FlatAffineMap(diagonal([-1, -1]), (0, 0))], 2, 4),
        ([FlatAffineMap(IntMatrix([[-1, 0], [1, 1]]), (2, -1))], 6, 12),
        ([HeisAffineMap(HeisPoint(Fraction(1, 2), GaussRat(1)), HeisAut(GaussRat(0, 1)))], 5, 10),
        ([HeisAffineMap(HeisPoint(0, GaussRat(1)), HeisAut(GaussRat(0, 1)))], 5, 0),
        ([FlatAffineMap.translation((Fraction(1, 2), 0))], 6, 0),
        ([FlatAffineMap(IntMatrix([[-1, 0], [1, 1]]), (0, 1))], 5, 0),
    ],
)
def test_cyclic_controls_match_oracle(rep, max_word_len, n_fixed):
    # the half turn, the sheared involution and the nil oracle's quarter
    # turn fix a point at every power (their squares or fourth powers are
    # the identity); the nil oracle's second quarter turn is a screw
    # motion, the half translation moves every point, and the sheared
    # glide has no fixed point although it shifts no coordinate alone
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
    # a plane map and a nil oracle map differ in dimension
    flat = FlatAffineMap.translation((1, 0))
    nil = HeisAffineMap(HeisPoint(0, GaussRat(1)))
    rep = [flat, nil] if first == "flat" else [nil, flat]
    p = catalogue_pc("T2")
    match = "a representation must be maps of one dimension"
    with pytest.raises(ValueError, match=match):
        freeness_sample(p, rep, 2)
    with pytest.raises(ValueError, match=match):
        verify_relations_in_rep(p, rep)
    # flat maps of two dimensions do not mix either
    with pytest.raises(ValueError, match=match):
        freeness_sample(p, [flat, FlatAffineMap.translation((1, 0, 0))], 2)


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
    """A map that counts the products taken through it, in counter[0], its
    fixed-point solves, in counter[1], the reads of its coordinate shifts,
    in counter[2], and the rescalings of its representation to one
    denominator, in counter[3]."""

    def __init__(self, m, counter):
        self.m, self.counter = m, counter

    @property
    def dim(self):
        return self.m.dim

    @staticmethod
    def over_one_den(maps):
        maps[0].counter[3] += 1
        inner = type(maps[0].m).over_one_den([c.m for c in maps])
        return [CountedMap(m, c.counter) for m, c in zip(inner, maps)]

    def __mul__(self, other):
        self.counter[0] += 1
        return CountedMap(self.m * other.m, self.counter)

    def inverse(self):
        return CountedMap(self.m.inverse(), self.counter)

    def coordinate_shifts(self):
        self.counter[2] += 1
        return self.m.coordinate_shifts()

    def fixed_point(self):
        self.counter[1] += 1
        return self.m.fixed_point()


@pytest.fixture
def power_tables(monkeypatch):
    """The number of power tables freeness_sample builds, in a one-item
    list."""
    built = [0]
    table = geometry._power_table

    def counted(m, bound):
        built[0] += 1
        return table(m, bound)

    monkeypatch.setattr(geometry, "_power_table", counted)
    return built


def assert_closed_form(p, maps, max_word_len, power_tables):
    """An all-settled sample is free and covers the whole ball, from one
    read of each generator's shifts: no product, no solve, no common
    denominator and no power table."""
    counter = [0, 0, 0, 0]
    report = freeness_sample(p, [CountedMap(m, counter) for m in maps], max_word_len)
    assert report.is_free_sample
    assert report.words_checked == ball_size(p.ngens, max_word_len)
    assert counter == [0, 0, p.ngens, 0]
    assert power_tables == [0]
    return report


@pytest.mark.parametrize("label, k", CATALOGUE)
def test_one_product_per_normal_form(label, k, power_tables):
    # a free catalogue sample takes no product at all and solves no map:
    # x_i shifts coordinate i by a nonzero amount that no later generator
    # touches, so every level is settled and every normal form whose first
    # nonzero exponent is at i is ruled out from m_i alone.  At i = n-1
    # that is the all-zero row.  The shape alone certifies the ball: a
    # sample reads each generator's shifts once, rescales no map, builds no
    # power table and costs O(n) at any word length, the largest ball the
    # limit accepts included
    p = catalogue_pc(label, k)
    for max_word_len in (90, 6):
        report = assert_closed_form(p, catalogue_representation(label, k), max_word_len,
                                    power_tables)
    counter = [0, 0, 0, 0]
    rep = [CountedMap(m, counter) for m in catalogue_representation(label, k)]
    # the letter-by-letter walk takes about five products per normal form
    letterwise_sample(p, rep, max_word_len)
    assert counter[0] > 2 * report.words_checked


def test_deep_seifert_models_are_certified_in_closed_form(power_tables):
    # the model of every accepted deep tower is settled at every level, by
    # the Seifert construction, so its sample is the closed form too
    depths = []
    for spec in deep_specs():
        try:
            p = build_tower_groups(spec)[-1]
        except (ExtensionError, ValueError):
            continue
        model = seifert_model(p)
        for max_word_len in (1, 5):
            assert_closed_form(p, model, max_word_len, power_tables)
        depths.append(p.ngens)
    assert len(depths) >= 20 and set(depths) == {4, 5}, depths


def _settled_prefix():
    """Two settled levels, x0 and x1 translating coordinates 0 and 1 that
    every later generator fixes pointwise, then two unsettled ones: x2 and
    x3 reflect coordinate 2 about 0 and about 1/2, so their odd products
    fix a point."""
    return [
        FlatAffineMap.translation((1, 0, 0)),
        FlatAffineMap.translation((0, Fraction(1, 2), 0)),
        FlatAffineMap(diagonal([1, 1, -1]), (0, 0, 0)),
        FlatAffineMap(diagonal([1, 1, -1]), (0, 0, 1)),
    ]


def _unsettled_first():
    """An unsettled level 0, a half turn of the plane, above two settled
    levels, the unit translations along coordinates 0 and 1; the half turn
    has a fixed point at every odd power."""
    return [
        FlatAffineMap(diagonal([-1, -1]), (Fraction(1, 3), 0)),
        FlatAffineMap.translation((1, 0)),
        FlatAffineMap.translation((0, 1)),
    ]


def _settled_between():
    """A settled level 0, then an unsettled level 1 whose every power fixes
    a point (a reflection, of order 2), then a settled level 2: the walk
    starts at head (0,), and level 2 is ruled out inside its e_1 subtrees."""
    return [
        FlatAffineMap.translation((1, 0, 0)),
        FlatAffineMap(diagonal([1, -1, 1]), (0, Fraction(1, 3), 0)),
        FlatAffineMap.translation((0, 0, 2)),
    ]


@pytest.mark.parametrize("make, start", [(_settled_prefix, 2), (_unsettled_first, 0),
                                         (_settled_between, 1)])
@pytest.mark.parametrize("max_word_len", [1, 2, 5])
def test_walk_starts_at_the_first_unsettled_level(make, start, max_word_len, power_tables):
    # the settled levels below the first unsettled one are counted in one
    # step; the walk starts there, rescales the maps once and matches the
    # letterwise oracle in words_checked and in the ordered fixed points
    maps = make()
    p = pc_presentation(tuple(f"x{i}" for i in range(len(maps))))
    counter = [0, 0, 0, 0]
    counted = freeness_sample(p, [CountedMap(m, counter) for m in maps], max_word_len)
    assert counter[3] == 1
    # only the generators from the start on are ever raised to a power
    assert 0 < power_tables[0] <= len(maps) - start
    report = assert_matches_oracle(p, maps, max_word_len)
    assert report.fixed_points
    assert counted.words_checked == report.words_checked
    assert [v for v, _ in counted.fixed_points] == [v for v, _ in report.fixed_points]
    assert all(not any(v[:start]) for v, _ in report.fixed_points)


def test_freeness_errors_come_before_any_shift_is_read():
    # the argument checks run in a fixed order, and all of them before the
    # shape of the representation is read
    p = catalogue_pc("B1")
    flat = catalogue_representation("B1")
    wide = flat[:2] + [FlatAffineMap.translation((0, 0, 0, 1))]
    cases = [
        (flat[:2], 0, "max_word_len must be at least 1"),
        (flat[:2], 10**12, "need one map per generator"),
        (wide, 10**12, "above the limit of 1000000"),
        (wide, 2, "a representation must be maps of one dimension"),
    ]
    for maps, max_word_len, match in cases:
        counter = [0, 0, 0, 0]
        with pytest.raises(ValueError, match=match):
            freeness_sample(p, [CountedMap(m, counter) for m in maps], max_word_len)
        assert counter == [0, 0, 0, 0]


# -- the row walk against the letterwise oracle on random representations ------

def _rationals(draw, size):
    den = draw(st.sampled_from([1, 2, 3]))
    return [Fraction(draw(st.sampled_from(range(-2, 3))), den) for _ in range(size)]


def _lower_rows(draw, dim, signs, shear):
    """The rows of a lower-triangular matrix with signs on its diagonal and,
    with shear, drawn entries below it."""
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = signs[i]
        for j in range(i):
            if shear:
                rows[i][j] = draw(st.sampled_from([0, 0, 1, -1, 2]))
    return rows


def _flat_map(draw, dim, order=None):
    """A triangular map of dimension dim; order 1 or 2 fixes the order of
    its linear part with no shear, None draws any signs and any shear."""
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=dim, max_size=dim))
    shear = order is None and draw(st.booleans())
    if order == 1:
        signs = [1] * dim
    elif order == 2:
        signs[0] = -1
    return FlatAffineMap(IntMatrix(_lower_rows(draw, dim, signs, shear)), _rationals(draw, dim))


def _fixing(m, draw):
    """m with its translation part changed so that it fixes a drawn point."""
    p = _rationals(draw, m.dim)
    lin_p = [y - t for y, t in zip(m.apply(p), m.trans)]
    return FlatAffineMap(m.lin, [a - b for a, b in zip(p, lin_p)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_rows_match_letterwise_on_random_representations(data):
    draw = data.draw
    ngens, max_word_len = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    dim = draw(st.integers(1, 3))
    order = draw(st.sampled_from([1, 2, None]))
    rep = [_flat_map(draw, dim) for _ in range(ngens - 1)] + [_flat_map(draw, dim, order)]
    # most cases have a generator that fixes a point, so fixed points show
    fixer = draw(st.sampled_from([None] + list(range(ngens))))
    if fixer is not None:
        rep[fixer] = _fixing(rep[fixer], draw)
    p = pc_presentation(tuple(f"x{i}" for i in range(ngens)))
    report = assert_matches_oracle(p, rep, max_word_len)
    if fixer is not None:
        assert report.fixed_points


def _levelled(draw, ngens, stacked=False):
    """Triangular maps where coordinate c is fixed pointwise by every
    generator from a drawn level t_c on; below it, the generators flip,
    translate and (in half the draws) shear the coordinates not yet fixed.
    At level ngens no generator fixes c, so the last one can move a
    coordinate that a row's prefix shifts.

    With stacked, an unsettled level sits above a settled one: a drawn
    level s >= 1 shifts coordinate 0, which every later generator fixes
    pointwise, so every normal form whose first nonzero exponent is at s
    is ruled out at once; a drawn level u < s flips every coordinate it
    does not fix, so it shifts none, has fixed points, and is walked
    exponent by exponent, with its e_u = 0 subtree, level s in it, between
    its negative and positive exponents."""
    dim = draw(st.integers(1, 3))
    levels = [draw(st.integers(1, ngens)) for _ in range(dim)]
    settled = unsettled = None
    if stacked:
        settled = draw(st.integers(1, ngens - 1))
        unsettled = draw(st.integers(0, settled - 1))
        levels[0] = settled + 1
    shear = draw(st.booleans())
    rep = []
    for j in range(ngens):
        free = [levels[c] > j for c in range(dim)]
        signs = [draw(st.sampled_from([1, 1, -1])) if f else 1 for f in free]
        if j == unsettled:
            signs = [-1 if f else 1 for f in free]
        elif j == settled:
            signs[0] = 1
        rows = _lower_rows(draw, dim, signs, shear)
        trans = _rationals(draw, dim)
        if j == settled:
            trans[0] = Fraction(draw(st.sampled_from([-2, -1, 1, 2])), draw(st.sampled_from([1, 3])))
        for c in range(dim):
            if not free[c]:
                rows[c] = [int(c == l) for l in range(dim)]
                trans[c] = 0
        rep.append(FlatAffineMap(IntMatrix(rows), trans))
    return rep


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_ruled_out_subtrees_match_letterwise(data):
    # representations built so that whole subtrees of the walk, and rows,
    # are ruled out: a head's product shifts a coordinate that every later
    # generator fixes pointwise.  Some draws leave a coordinate that the
    # last generator moves, so a row whose prefix shifts only that one
    # must still be solved.  In a third of the cases one generator is
    # changed to fix a point; that keeps the coordinates it fixes
    # pointwise, so fixed points and ruled-out subtrees meet in the same
    # ball.  In another third an unsettled level with fixed points sits
    # above a settled level, so the fixed points of its e = 0 subtree must
    # come between those of its negative and positive exponents
    draw = data.draw
    ngens, max_word_len = draw(st.integers(3, 4)), draw(st.integers(1, 4))
    shape = draw(st.sampled_from(["plain", "fixer", "stacked"]))
    rep = _levelled(draw, ngens, stacked=shape == "stacked")
    if shape == "fixer":
        fixer = draw(st.integers(0, ngens - 1))
        rep[fixer] = _fixing(rep[fixer], draw)
    p = pc_presentation(tuple(f"x{i}" for i in range(ngens)))
    report = assert_matches_oracle(p, rep, max_word_len)
    if shape != "plain":
        assert report.fixed_points


def test_rep_evaluate_matches_letterwise():
    # a word letter by letter against its collected normal form
    rng = random.Random(314159)
    for label, k in [("B4", None), ("G2", None), ("Delta", -3), ("Gamma", 2)]:
        p = catalogue_pc(label, k)
        rep = catalogue_representation(label, k)
        for _ in range(30):
            syllables = [(rng.randrange(3), rng.choice([-1, 1]) * rng.randint(1, 13))
                         for _ in range(rng.randint(1, 4))]
            w = Word(syllables)
            expected = letterwise_evaluate(rep, w.syllables)
            assert rep_evaluate(rep, collect(p, w)) == expected, (label, w)


def test_rep_evaluate_needs_one_exponent_per_map():
    rep = catalogue_representation("B1")
    assert rep_evaluate(rep, (0, 0, 0)) == rep[0] * rep[0].inverse()
    for bad in ((1, 0), (1, 0, 0, 0), ()):
        with pytest.raises(ValueError, match="need one exponent per map"):
            rep_evaluate(rep, bad)


@pytest.mark.parametrize("label", ["Delta", "Gamma"])
@pytest.mark.parametrize("k", [10**6, -(10**6), 10**30, -(10**30)])
def test_relations_at_huge_k(label, k):
    p = catalogue_pc(label, k)
    rep = catalogue_representation(label, k)
    start = time.perf_counter()
    assert verify_relations_in_rep(p, rep) == (True, None)
    assert time.perf_counter() - start < 2.0
