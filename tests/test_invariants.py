import random

import pytest

from conftest import case_extension, commutator_fiber_index, relators

from nilbott.catalogue import catalogue_pc, central_words
from nilbott.exact import IntMatrix, smith_normal_form
from nilbott.geometry import FlatAffineMap, catalogue_representation
from nilbott.invariants import (
    _unimodular_inverse,
    betti_numbers,
    catalogue_report,
    center_rank,
    halperin_carlsson_check,
    holonomy,
    homological_injectivity_check,
    torus_rank,
)
from nilbott.polycyclic import collect, nf_multiply, pc_abelianization
from nilbott.towers import TowerSpec, classify_tower
from nilbott.words import parse_word


FINITE_LABELS = ("B1", "B2", "B3", "B4", "G2", "T3")

EXPECTED = {
    # label: (h1_rank, h1_torsion, holonomy_order, torus_rank, betti, orientable)
    "T3": (3, (), 1, 3, (1, 3, 3, 1), True),
    "G2": (1, (2, 2), 2, 1, (1, 1, 1, 1), True),
    "B1": (2, (2,), 2, 2, (1, 2, 1, 0), False),
    "B2": (2, (), 2, 2, (1, 2, 1, 0), False),
    "B3": (1, (2, 2), 4, 1, (1, 1, 0, 0), False),
    "B4": (1, (4,), 4, 1, (1, 1, 0, 0), False),
}


def test_holonomy_examples():
    order, elem, _ = holonomy(catalogue_representation("T3"))
    assert (order, elem) == (1, True)
    order, elem, _ = holonomy(catalogue_representation("B2"))
    assert (order, elem) == (2, True)
    order, elem, elements = holonomy(catalogue_representation("G2"))
    assert (order, elem) == (2, True)
    assert IntMatrix.diagonal([1, -1, -1]) in elements
    order, elem, _ = holonomy(catalogue_representation("B3"))
    assert (order, elem) == (4, True)


def test_holonomy_guard():
    # a 60-degree-like signed permutation of infinite closure is impossible,
    # but a non-catalogue large closure is simulated by feeding many gens
    rot = FlatAffineMap(IntMatrix([[0, -1], [1, 0]]), (0, 0))
    order, elem, _ = holonomy([rot])
    assert order == 4 and not elem


def test_betti_examples():
    for label, (_, _, _, _, betti, _) in EXPECTED.items():
        group = catalogue_pc(label)
        rep = catalogue_representation(label)
        assert betti_numbers(group, rep) == betti, label
        assert betti[0] == 1
        assert betti[0] - betti[1] + betti[2] - betti[3] == 0


def test_betti_requires_dimension_3():
    with pytest.raises(ValueError):
        betti_numbers(catalogue_pc("K"), catalogue_representation("K"))


def test_torus_rank_examples():
    for label, (h1_rank, _, _, s, _, _) in EXPECTED.items():
        group = catalogue_pc(label)
        rep = catalogue_representation(label)
        assert torus_rank(group, rep) == s, label
        assert s == h1_rank  # maximal torus rank equals first Betti number
    assert torus_rank(catalogue_pc("Delta", 2), catalogue_representation("Delta", 2)) == 1
    assert torus_rank(catalogue_pc("Gamma", 2), catalogue_representation("Gamma", 2)) == 0


def test_center_rank_matches_catalogue_centers():
    for label in FINITE_LABELS:
        p = catalogue_pc(label)
        words = central_words(label)
        # declared central words really are central
        for w in words:
            v = collect(p, w)
            for i in range(p.ngens):
                u = p._unit(i)
                assert nf_multiply(p, v, u) == nf_multiply(p, u, v), (label, w)
        assert center_rank(p) == len(words), label


def test_homological_injectivity():
    for label in FINITE_LABELS:
        group = catalogue_pc(label)
        assert homological_injectivity_check(group, central_words(label)), label
    # a non-central lattice direction of the Klein-type group fails: its
    # image in first homology is torsion
    b1 = catalogue_pc("B1")
    bad = [parse_word("t2", b1.names)]
    assert not homological_injectivity_check(b1, bad)


def test_unimodular_inverse():
    # the Smith transforms of small random matrices are unimodular; keep the
    # inputs at 4 x 4 or smaller, the transforms grow fast with size
    rng = random.Random(2718)
    for _ in range(100):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])
        _, u, v = smith_normal_form(m)
        for t in (u, v):
            inv = _unimodular_inverse(t)
            assert inv * t == IntMatrix.identity(t.rows) == t * inv
    with pytest.raises(ValueError):
        _unimodular_inverse(IntMatrix([[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        _unimodular_inverse(IntMatrix([[1, 2], [2, 4]]))


def test_halperin_carlsson():
    ok, margins, total = halperin_carlsson_check((1, 3, 3, 1), 3)
    assert ok and margins == [0, 0, 0, 0] and total == 0  # equality for T3
    ok, margins, total = halperin_carlsson_check((1, 2, 1, 0), 2)
    assert ok and margins == [0, 0, 0, 0]
    ok, margins, total = halperin_carlsson_check((1, 1, 1, 1), 1)
    assert ok and margins == [0, 0, 1, 1] and total == 2
    ok, _, _ = halperin_carlsson_check((1, 1, 0, 0), 2)
    assert not ok


def test_catalogue_reports():
    for label, (h1r, h1t, hol, s, betti, ori) in EXPECTED.items():
        rep = catalogue_report(label)
        assert rep.h1 == (h1r, h1t)
        assert rep.holonomy_order == hol
        assert rep.holonomy_is_elementary_2
        assert rep.center_rank == s
        assert rep.betti == betti
        assert rep.orientable is ori
        assert rep.hom_inj_pass and rep.hc_pass
        assert rep.type == "finite"


def test_nil_reports():
    for k in (1, 2, -3):
        rd = catalogue_report("Delta", k)
        assert rd.betti == (1, 2, 2, 1) and rd.center_rank == 1
        assert rd.h1[0] == 2  # rank stays 2 for every nonzero twisting
        assert rd.type == "infinite"
        rg = catalogue_report("Gamma", k)
        assert rg.betti == (1, 1, 1, 1) and rg.center_rank == 0
        assert rg.holonomy_order == 2 and rg.holonomy_is_elementary_2
        assert rg.type == "infinite"


def test_h1_rank_step_finite_type():
    # for finite type: a centralized fiber adds one to the first Betti
    # number, an inverted fiber keeps it
    base_rank = {1: 1, 2: 1, 4: 1, 6: 2, 7: 2}  # rank H1 of K or T2
    for case, base_b1 in base_rank.items():
        for k in (-2, 0, 3):
            ext = case_extension(case, k)
            b1, _ = pc_abelianization(ext)
            if commutator_fiber_index(ext) == "trivial":
                assert b1 == base_b1 + 1, (case, k)
            else:
                assert b1 == base_b1, (case, k)
    # case 3 is infinite type for k != 0 yet still satisfies the step rule
    for k in (-2, 0, 3):
        ext = case_extension(3, k)
        assert commutator_fiber_index(ext) == "index-2"
        assert pc_abelianization(ext)[0] == 1


def test_gamma_h1_two_routes():
    # abelianization from the stored rules vs exponent sums of the relator
    # words, reduced with the same Smith machinery
    from relator_oracle import Presentation
    from relator_oracle import abelianization as word_abelianization

    for k in (-4, -1, 1, 2, 5):
        p = catalogue_pc("Gamma", k)
        via_rules = pc_abelianization(p)
        via_words = word_abelianization(Presentation(p.names, relators(p)))
        assert via_rules == (via_words[0], via_words[1])
        assert via_rules[0] == 1


def test_report_type_matches_classifier():
    for label, signs, k in [("B1", (1, 1), 0), ("B4", (1, -1), 1), ("G2", (-1, 1), 0)]:
        verdict = classify_tower(TowerSpec.depth3("K", signs, k))
        report = catalogue_report(label)
        assert verdict.label == label
        assert verdict.type == report.type
