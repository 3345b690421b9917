import random

import pytest

from conftest import (
    case_extension,
    central_words,
    commutator_fiber_index,
    deep_specs,
    diagonal,
    echelon,
    in_span,
    relators,
    solve_fixed_lattice,
)

from flat_catalogue_oracle import holonomy

from nilbott.catalogue import catalogue_pc
from nilbott.exact import IntMatrix, rank, smith_normal_form
from nilbott.geometry import catalogue_representation
from nilbott.invariants import (
    betti_numbers,
    catalogue_report,
    halperin_carlsson_check,
    homological_injectivity_check,
)
from nilbott.polycyclic import center, collect, nf_multiply, pc_abelianization, relation_rows
from nilbott.towers import ExtensionError, TowerSpec, build_tower_groups, classify_tower


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
    assert diagonal([1, -1, -1]) in elements
    order, elem, _ = holonomy(catalogue_representation("B3"))
    assert (order, elem) == (4, True)


def test_betti_examples():
    for label, (_, _, _, _, betti, _) in EXPECTED.items():
        group = catalogue_pc(label)
        assert betti_numbers(group) == betti, label
        assert betti[0] == 1
        assert betti[0] - betti[1] + betti[2] - betti[3] == 0


def test_betti_requires_dimension_3():
    with pytest.raises(ValueError):
        betti_numbers(catalogue_pc("K"))


def test_torus_rank_examples():
    for label, (h1_rank, _, _, s, _, _) in EXPECTED.items():
        assert len(center(catalogue_pc(label))) == s, label
        # the holonomy-fixed lattice of the flat model has the same rank
        assert solve_fixed_lattice([m.lin for m in catalogue_representation(label)]) == s, label
        assert s == h1_rank  # maximal torus rank equals first Betti number
    assert len(center(catalogue_pc("Delta", 2))) == 1
    assert len(center(catalogue_pc("Gamma", 2))) == 0


def _same_centre(p, words):
    """center(p) and the collected words span the same subgroup of p, and
    both are bases of it."""
    computed = center(p)
    typed = [collect(p, w) for w in words]
    ours, theirs = echelon(p, computed), echelon(p, typed)
    return (
        len(ours) == len(computed) == len(theirs) == len(typed)
        and all(in_span(p, ours, v) for v in typed)
        and all(in_span(p, theirs, v) for v in computed)
    )


def test_center_rank_matches_catalogue_centers():
    for label in ("S1", "T2", "K") + FINITE_LABELS:
        p = catalogue_pc(label)
        # the typed central words really are central
        for w in central_words(label):
            v = collect(p, w)
            for i in range(p.ngens):
                u = p._unit(i)
                assert nf_multiply(p, v, u) == nf_multiply(p, u, v), (label, w)
        assert _same_centre(p, central_words(label)), label
    for k in range(-12, 13):
        assert _same_centre(catalogue_pc("Delta", k), central_words("Delta", k)), k
        if k:
            assert _same_centre(catalogue_pc("Gamma", k), central_words("Gamma", k)), k


def test_homological_injectivity():
    for label in FINITE_LABELS:
        group = catalogue_pc(label)
        assert homological_injectivity_check(group, center(group)), label
    # a non-central lattice direction of the Klein-type group fails: its
    # image in first homology is torsion
    b1 = catalogue_pc("B1")
    assert not homological_injectivity_check(b1, [b1._unit(1)])  # t2
    # Delta(2)'s centre <c> maps to torsion in H_1
    delta = catalogue_pc("Delta", 2)
    assert not homological_injectivity_check(delta, center(delta))


def _free_images_have_full_rank(p, vectors):
    """The check by projection: each vector mapped onto the free
    coordinates of H_1 through the Smith form of the transposed Fox rows,
    then the images' rank."""
    d, u, _ = smith_normal_form(IntMatrix(relation_rows(p)).transpose())
    free = [i for i in range(p.ngens) if i >= len(d) or d[i] == 0]
    images = [[u.apply(tuple(v))[i] for i in free] for v in vectors]
    return len(free) >= len(vectors) and rank(IntMatrix(images)) == len(vectors)


def test_homological_injectivity_matches_projection():
    # the rank test against projecting onto the free part of H_1, on the
    # catalogue and the deep towers' groups, with random families of up
    # to ngens vectors, dependent and zero ones among them
    rng = random.Random(3)
    groups = [catalogue_pc(label) for label in FINITE_LABELS + ("K", "T2")]
    groups += [catalogue_pc("Delta", k) for k in (0, 1, 2)] + [catalogue_pc("Gamma", 3)]
    for spec in deep_specs()[:100]:
        try:
            groups += build_tower_groups(spec)[2:]
        except (ExtensionError, ValueError):
            pass
    verdicts = set()
    for p in groups:
        for _ in range(5):
            vectors = [tuple(rng.randint(-2, 2) for _ in range(p.ngens))
                       for _ in range(rng.randint(1, p.ngens))]
            verdict = homological_injectivity_check(p, vectors)
            assert verdict == _free_images_have_full_rank(p, vectors), (p, vectors)
            verdicts.add(verdict)
    assert verdicts == {True, False}


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
        # the order read off the signs is that of the nil models' rotations
        assert rd.holonomy_order == holonomy(catalogue_representation("Delta", k))[0] == 1
        assert rd.h1[0] == 2  # rank stays 2 for every nonzero twisting
        assert rd.type == "infinite"
        rg = catalogue_report("Gamma", k)
        assert rg.betti == (1, 1, 1, 1) and rg.center_rank == 0
        assert rg.holonomy_order == 2 and rg.holonomy_is_elementary_2
        assert holonomy(catalogue_representation("Gamma", k))[:2] == (2, True)
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
