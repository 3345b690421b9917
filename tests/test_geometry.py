import random
from fractions import Fraction

import pytest

from conftest import CASE_DATA, case_extension
from extension_models import extension_representation

from nilbott.catalogue import catalogue_pc
from nilbott.exact import GaussRat, IntMatrix
from nilbott.geometry import (
    FlatAffineMap,
    HeisAffineMap,
    HeisAut,
    HeisPoint,
    TAU,
    catalogue_representation,
    check_quotient_action,
    delta_generators,
    euler_number,
    freeness_sample,
    gamma_generators,
    klein_quotient_check,
    load_flat_catalogue,
    rep_evaluate,
    verify_relations_in_rep,
)
from nilbott.polycyclic import collect, cyclic_pc
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
        rhs = rep_evaluate([a, b, n], parse_word(f"n^{k} b^-1", ("a", "b", "n")))
        assert a * b * a.inverse() == rhs
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
        assert comm == rep_evaluate([a, b, c], parse_word(f"c^{-k}", ("a", "b", "c")))
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
    assert all(m.lin.is_identity() for m in rep)
    for m in rep:
        for m2 in rep:
            assert m * m2 == m2 * m


def test_catalogue_representation_errors():
    with pytest.raises(ValueError):
        catalogue_representation("X9")
    with pytest.raises(ValueError):
        catalogue_representation("Gamma", 0)


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
    # built from integers, equal in value and reduced integers to the maps
    # the validating constructor builds
    assert delta_generators(k) == [
        HeisAffineMap(HeisPoint(0, GaussRat(k))),
        HeisAffineMap(HeisPoint(0, GaussRat(0, k))),
        HeisAffineMap(HeisPoint(2 * k, GaussRat(0))),
    ]
    assert gamma_generators(k) == [
        HeisAffineMap(HeisPoint(0, GaussRat(Fraction(k, 2))), TAU),
        HeisAffineMap(HeisPoint(0, GaussRat(0, k))),
        HeisAffineMap(HeisPoint(k, GaussRat(0))),
    ]


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
            same_rep = rep_evaluate(rep, u) == rep_evaluate(rep, v)
            assert same_group == same_rep, (label, su, sv)


def test_freeness_sampling():
    for label, k in [("Gamma", 2), ("B2", None), ("G2", None), ("Delta", -2)]:
        p = catalogue_pc(label, k)
        rep = catalogue_representation(label, k)
        report = freeness_sample(p, rep, 4)
        assert report.is_free_sample, (label, report.fixed_points[:3])
        assert report.words_checked > 0


def test_freeness_negative_control():
    rot = FlatAffineMap(IntMatrix.diagonal([-1, -1]), (0, 0))
    report = freeness_sample(cyclic_pc("r"), [rot], 1)
    assert not report.is_free_sample
    assert report.fixed_points[0][1] == [0, 0]


def test_flat_fixed_point_solver():
    glide = FlatAffineMap(IntMatrix.diagonal([1, -1]), (Fraction(1, 2), 0))
    assert glide.fixed_point() is None
    reflect = FlatAffineMap(IntMatrix.diagonal([1, -1]), (0, 1))
    pt = reflect.fixed_point()
    assert pt is not None and reflect.apply(pt) == tuple(pt)


def test_heis_fixed_point_solver():
    # a rotation by i around the origin fixes the whole central axis
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
    assert b1["e"].lin == IntMatrix.diagonal([1, -1, 1])
    assert b1["e"].trans == (Fraction(1, 2), 0, 0)
    assert data["B2"]["u"].trans == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert data["K"]["g"].lin == IntMatrix.diagonal([1, -1])
