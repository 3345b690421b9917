import random
from fractions import Fraction

import pytest

from conftest import CASE_DATA, PATTERNS, case_extension, deep_specs, diagonal
from extension_models import extension_representation
from flat_catalogue_oracle import holonomy, load_flat_catalogue
import heis_oracle
from heis_oracle import (
    TAU,
    GaussRat,
    HeisAffineMap,
    HeisAut,
    HeisPoint,
    check_quotient_action,
    delta_generators,
    gamma_generators,
)
from letterwise_freeness import evaluate as letterwise_evaluate

from nilbott.catalogue import catalogue_pc
from nilbott.exact import IntMatrix
from nilbott.geometry import (
    FlatAffineMap,
    _klein_quotient_action,
    catalogue_representation,
    euler_number,
    freeness_sample,
    klein_quotient_check,
    rep_evaluate,
    seifert_model,
    verify_relations_in_rep,
)
from nilbott.invariants import holonomy_order
from nilbott.polycyclic import ExtensionError, collect, cyclic_pc
from nilbott.towers import Stage, TowerSpec, build_tower_groups, classify_tower
from nilbott.words import Word, parse_word


def rand_point(rng):
    return HeisPoint(
        Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
        GaussRat(
            Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
            Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
        ),
    )


def test_heis_product_example():
    a = HeisPoint(0, GaussRat(2))
    b = HeisPoint(0, GaussRat(0, 2))
    assert a * b == HeisPoint(-4, GaussRat(2, 2))
    assert HeisPoint.identity() * a == a


def test_heis_inverse_and_associativity():
    rng = random.Random(31)
    for _ in range(100):
        p, q, r = (rand_point(rng) for _ in range(3))
        assert (p * p.inverse()).is_identity()
        assert (p * q) * r == p * (q * r)


def test_tau_example_and_involution():
    assert TAU.apply(HeisPoint(3, GaussRat(1, 1))) == HeisPoint(
        -3, GaussRat(1, -1)
    )
    assert (TAU * TAU).is_identity()
    # every conjugating automorphism squares to the identity
    itau = HeisAut(GaussRat(0, 1), conj=True)
    assert (itau * itau).is_identity()


def test_auts_are_automorphisms():
    rng = random.Random(8)
    auts = [
        TAU,
        HeisAut(GaussRat(0, 1)),
        HeisAut(GaussRat(-1)),
        HeisAut(GaussRat(0, -1), conj=True),
        HeisAut(GaussRat(Fraction(3, 5), Fraction(4, 5))),
    ]
    for aut in auts:
        for _ in range(40):
            p, q = rand_point(rng), rand_point(rng)
            assert aut.apply(p * q) == aut.apply(p) * aut.apply(q)


def test_aut_rejects_non_unit():
    with pytest.raises(ValueError):
        HeisAut(GaussRat(2))


def test_heis_center():
    rng = random.Random(12)
    for _ in range(50):
        center = HeisPoint(Fraction(rng.randint(-5, 5), rng.randint(1, 3)), GaussRat(0))
        p = rand_point(rng)
        assert center * p == p * center


def test_plane_equivariance():
    # the maps act on the plane C = (R x C) / R: the z-part of an image
    # does not depend on the fiber coordinate, on 50 random pairs
    rng = random.Random(4)
    maps = gamma_generators(3) + delta_generators(2)
    for _ in range(50):
        m = rng.choice(maps)
        xi = rand_point(rng)
        moved = HeisPoint(rand_point(rng).x, xi.z)
        assert m.apply(xi).z == m.apply(moved).z


def test_gamma_relations_exact():
    for k in range(-5, 6):
        if k == 0:
            continue
        a, b, n = gamma_generators(k)
        assert a * n * a.inverse() == n.inverse()
        assert b * n * b.inverse() == n
        rhs = parse_word(f"n^{k} b^-1", ("a", "b", "n"))
        assert a * b * a.inverse() == letterwise_evaluate([a, b, n], rhs.syllables)
        assert a * a == HeisAffineMap(HeisPoint(0, GaussRat(k)))


def test_gamma_1_conjugation_value():
    a, b, n = gamma_generators(1)
    result = a * b * a.inverse()
    assert result == HeisAffineMap(HeisPoint(1, GaussRat(0, -1)))


def test_delta_bracket_exact():
    for k in range(-5, 6):
        if k == 0:
            continue
        a, b, c = delta_generators(k)
        comm = a * b * a.inverse() * b.inverse()
        assert comm == rep_evaluate([a, b, c], (0, 0, -k))
        assert comm.g == HeisPoint(-2 * k * k, GaussRat(0))


def test_euler_numbers():
    assert abs(euler_number(3)) == 3
    assert euler_number(0) == 0
    assert abs(euler_number(-2)) == 2
    # sign convention: the commutator exponent for the (a, b) ordering
    assert euler_number(3) == -3


def test_klein_quotient_check():
    assert klein_quotient_check(1)
    assert klein_quotient_check(2)
    assert klein_quotient_check(-3)
    a, b, n = gamma_generators(2)
    tampered = HeisAffineMap(a.g)  # drop the conjugating part
    assert not check_quotient_action(n, tampered, b)
    # the same on the engine's model: a without its reflection, or with b's
    # direction sheared into the first, or the fiber moving the plane
    a, b, n = catalogue_representation("Gamma", 2)
    assert _klein_quotient_action(a, b, n)
    assert not _klein_quotient_action(FlatAffineMap.translation((1, 0, 0)), b, n)
    sheared = FlatAffineMap(IntMatrix([[1, 0, 0], [1, -1, 0], [0, 2, -1]]), (1, 0, 0))
    assert not _klein_quotient_action(sheared, b, n)
    assert not _klein_quotient_action(a, b, b)


def test_catalogue_representations_satisfy_relations():
    for label in ("S1", "T2", "K", "T3", "G2", "B1", "B2", "B3", "B4"):
        p = catalogue_pc(label)
        ok, witness = verify_relations_in_rep(p, catalogue_representation(label))
        assert ok, (label, witness)
    for k in (-3, -1, 1, 2, 5):
        for label in ("Delta", "Gamma"):
            p = catalogue_pc(label, k)
            ok, witness = verify_relations_in_rep(
                p, catalogue_representation(label, k)
            )
            assert ok, (label, k, witness)


def test_delta_zero_is_translations():
    rep = catalogue_representation("Delta", 0)
    assert all(isinstance(m, FlatAffineMap) for m in rep)
    assert all(m.lin == IntMatrix.identity(m.dim) for m in rep)
    for m in rep:
        for m2 in rep:
            assert m * m2 == m2 * m


def test_catalogue_representation_errors():
    # unknown labels, a missing or zero k for the nil groups, and a k for
    # a label that takes none
    for label, k in [("X9", None), ("Gamma", 0), ("Gamma", None), ("Delta", None),
                     ("B2", 9), ("T3", "junk"), ("K", 0)]:
        with pytest.raises(ValueError):
            catalogue_representation(label, k)


@pytest.mark.parametrize("k", [2.5, 2.0, Fraction(2), "3", True, False])
@pytest.mark.parametrize(
    "build",
    [
        lambda k: catalogue_pc("Delta", k),
        lambda k: catalogue_pc("Gamma", k),
        lambda k: catalogue_representation("Delta", k),
        lambda k: catalogue_representation("Gamma", k),
        delta_generators,
        gamma_generators,
    ],
    ids=["pc-Delta", "pc-Gamma", "rep-Delta", "rep-Gamma", "delta", "gamma"],
)
def test_k_must_be_an_integer(build, k):
    with pytest.raises(ValueError, match="^k must be an integer$"):
        build(k)


@pytest.mark.parametrize("k", [1, -1, 2, -3, 7, 10**30, -(10**30) - 1])
def test_nil_generators_from_integers(k):
    # the engine's models of the nil lattices are integer maps: x_i shifts
    # coordinate i by 1, and a shears the fiber along b by -k (Delta) or
    # reflects both and shears by k (Gamma), as the validating constructor
    # builds them
    unit = [FlatAffineMap.translation(row) for row in IntMatrix.identity(3).entries]
    shear = {"Delta": [[1, 0, 0], [0, 1, 0], [0, -k, 1]],
             "Gamma": [[1, 0, 0], [0, -1, 0], [0, k, -1]]}
    for label, lin in shear.items():
        a, b, c = catalogue_representation(label, k)
        assert a == FlatAffineMap(IntMatrix(lin), (1, 0, 0)) and a.den == 1
        assert [b, c] == unit[1:]


def test_verify_relations_detects_tampering():
    p = catalogue_pc("B1")
    rep = list(catalogue_representation("B1"))
    rep[2] = FlatAffineMap.translation((0, 0, Fraction(1, 2)))
    ok, witness = verify_relations_in_rep(p, rep)
    # scaling a fixed direction still satisfies these relations; break one
    rep = list(catalogue_representation("B1"))
    rep[1] = FlatAffineMap.translation((1, 1, 0))
    ok, witness = verify_relations_in_rep(p, rep)
    assert not ok and witness is not None


def test_extension_representations_all_cases():
    for case in sorted(CASE_DATA):
        for k in range(-5, 6):
            ext = case_extension(case, k)
            rep = extension_representation(case, k)
            ok, witness = verify_relations_in_rep(ext, rep)
            assert ok, (case, k, witness)


def test_representation_faithfulness_sampling():
    rng = random.Random(271828)
    entries = [("T3", None), ("G2", None), ("B1", None), ("B2", None),
               ("B3", None), ("B4", None), ("Gamma", 2), ("Delta", 3)]
    for label, k in entries:
        p = catalogue_pc(label, k)
        rep = catalogue_representation(label, k)
        for _ in range(60):
            su = [(rng.randint(0, 2), rng.choice([-2, -1, 1, 2])) for _ in range(4)]
            sv = [(rng.randint(0, 2), rng.choice([-2, -1, 1, 2])) for _ in range(4)]
            u, v = Word(su), Word(sv)
            same_group = collect(p, u) == collect(p, v)
            same_rep = (letterwise_evaluate(rep, u.syllables)
                        == letterwise_evaluate(rep, v.syllables))
            assert same_group == same_rep, (label, su, sv)


def test_freeness_sampling():
    for label, k in [("Gamma", 2), ("B2", None), ("G2", None), ("Delta", -2)]:
        p = catalogue_pc(label, k)
        rep = catalogue_representation(label, k)
        report = freeness_sample(p, rep, 4)
        assert report.is_free_sample, (label, report.fixed_points[:3])
        assert report.words_checked > 0


def test_freeness_negative_control():
    rot = FlatAffineMap(diagonal([-1, -1]), (0, 0))
    report = freeness_sample(cyclic_pc("r"), [rot], 1)
    assert not report.is_free_sample
    assert report.fixed_points[0][1] == [0, 0]


def test_flat_fixed_point_solver():
    glide = FlatAffineMap(diagonal([1, -1]), (Fraction(1, 2), 0))
    assert glide.fixed_point() is None
    reflect = FlatAffineMap(diagonal([1, -1]), (0, 1))
    pt = reflect.fixed_point()
    assert pt is not None and reflect.apply(pt) == tuple(pt)


def test_heis_fixed_point_solver():
    # the oracle's nil maps: a rotation by i around the origin fixes the
    # whole central axis
    rot = HeisAffineMap(HeisPoint.identity(), HeisAut(GaussRat(0, 1)))
    pt = rot.fixed_point()
    assert pt is not None and rot.apply(pt) == pt
    # generic conjugating map
    m = gamma_generators(2)[0]
    assert m.fixed_point() is None
    sq = m * m
    assert sq.fixed_point() is None


def test_flat_catalogue_data_golden():
    data = load_flat_catalogue()
    assert sorted(data) == ["B1", "B2", "B3", "B4", "G2", "K", "S1", "T2", "T3"]
    b1 = data["B1"]
    assert b1["e"].lin == diagonal([1, -1, 1])
    assert b1["e"].trans == (Fraction(1, 2), 0, 0)
    assert data["B2"]["u"].trans == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert data["K"]["g"].lin == diagonal([1, -1])


# -- the Seifert construction ---------------------------------------------------

@pytest.mark.parametrize(
    "label, k",
    [(label, None) for label in ("S1", "T2", "K", "T3", "G2", "B1", "B2", "B3", "B4")]
    + [("Delta", 0)],
)
def test_seifert_models_of_the_flat_labels(label, k):
    p = catalogue_pc(label, k)
    model = seifert_model(p)
    assert verify_relations_in_rep(p, model) == (True, None)
    assert freeness_sample(p, model, 6).is_free_sample
    order = holonomy_order(p)
    assert holonomy(model)[0] == order
    if k is None:
        hand_typed = load_flat_catalogue()[label]
        assert holonomy([hand_typed[name] for name in p.names])[0] == order
    # catalogue_representation hands out the cached model in a fresh list
    rep = catalogue_representation(label, k)
    assert rep == model and rep is not catalogue_representation(label, k)


def _accepted_towers():
    """Every depth-3 sign pattern at k in [-3, 3] and the accepted towers
    of deep_specs, with classify_tower's type and the top stage's group."""
    specs = [TowerSpec.depth3(base, signs, k) for base, signs in PATTERNS for k in range(-3, 4)]
    for spec in specs + deep_specs():
        try:
            verdict = classify_tower(spec)
        except (ExtensionError, ValueError):
            continue
        yield spec, verdict.type, build_tower_groups(spec)[-1]


def test_seifert_model_is_diagonal_iff_finite():
    # every accepted tower has a model; it satisfies every rule, has the
    # triangular shape (x_i shifts coordinate i by a nonzero amount and
    # every later generator fixes that coordinate pointwise), and is flat
    # exactly for the finite-type towers
    seen = {"finite": 0, "infinite": 0}
    for spec, kind, p in _accepted_towers():
        seen[kind] += 1
        model = seifert_model(p)
        assert verify_relations_in_rep(p, model) == (True, None), spec
        for i, m in enumerate(model):
            assert m.coordinate_shifts()[i], spec
            assert all(later.coordinate_shifts()[i] == 0 for later in model[i + 1:]), spec
        assert all(m.low is None for m in model) == (kind == "finite"), spec
        assert holonomy(model)[0] == holonomy_order(p), spec
    assert min(seen.values()) > 20, seen


def test_seifert_model_solves_the_infinite_stages():
    # degree 0 has no solution at an infinite-type stage; degree 1 does
    p = catalogue_pc("Delta", 1)
    model = seifert_model(p)
    assert verify_relations_in_rep(p, model) == (True, None)
    assert model[0].low == ((), (0,), (0, -1))
    # a Heisenberg stage over the 3-torus: flat up to stage 3, sheared at 4
    torus = TowerSpec.depth3("T2", (1, 1), 0)
    spec = TowerSpec(torus.stages + (Stage(4, (1, 1, 1), (1, 0, 0)),))
    p = build_tower_groups(spec)[-1]
    model = seifert_model(p)
    assert verify_relations_in_rep(p, model) == (True, None)
    assert [m.low is None for m in model] == [False, True, True, True]
    assert all(m.low is None for m in seifert_model(build_tower_groups(spec)[-2]))


@pytest.mark.parametrize("k", [1, -1, 2, 3, -7, 64, 10**30])
def test_nil_models_agree_with_the_oracle_lattices(k):
    # the engine's triangular models and the hand-written nil lattices:
    # both satisfy every rule, give the same Euler number and freeness
    # report, and pass the quotient-action check
    for label, lattice in (("Delta", delta_generators(k)), ("Gamma", gamma_generators(k))):
        p = catalogue_pc(label, k)
        model = catalogue_representation(label, k)
        assert verify_relations_in_rep(p, model) == (True, None)
        assert verify_relations_in_rep(p, lattice) == (True, None)
        assert freeness_sample(p, model, 6) == freeness_sample(p, lattice, 6)
    assert euler_number(k) == heis_oracle.euler_number(k) == -k
    assert klein_quotient_check(k) and heis_oracle.klein_quotient_check(k)
