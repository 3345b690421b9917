"""Acceptance gate: every criterion below is exact (no tolerances) and
prints one PASS line when it holds.  Run with -s (or read the -v report)
to see the per-criterion lines.
"""

import random
from itertools import product

from conftest import (
    CASE_DATA,
    as_words,
    base_group,
    base_presentation,
    case_extension,
    collected,
    compose_maps,
    diagonal,
    reduction_at,
)
import cocycle_oracle
from cocycle_oracle import Cocycle
from extension_models import extension_representation
from flat_catalogue_oracle import holonomy
from heis_oracle import delta_generators, gamma_generators
from identification_oracle import base_identification
from letterwise_freeness import evaluate as letterwise_evaluate
from relator_oracle import relator_pairing
from sympy import Matrix

from nilbott.catalogue import case_swap_maps, catalogue_pc
from nilbott.cohomology import (
    class_order,
    h2_one_relator,
    restriction_nonzero,
)
from nilbott.exact import IntMatrix, smith_normal_form
from nilbott.geometry import (
    FlatAffineMap,
    catalogue_representation,
    euler_number,
    freeness_sample,
    rep_evaluate,
    verify_relations_in_rep,
)
from nilbott.invariants import (
    catalogue_report,
    halperin_carlsson_check,
    homological_injectivity_check,
)
from nilbott.polycyclic import center, collect, cyclic_pc, verify_isomorphism
from nilbott.words import Word, parse_word


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_cohomology_tables():
    klein = base_group(1)
    torus = base_group(5)
    klein_expected = {1: "Z_2", 2: "Z_2", 3: "Z", 4: "Z_2"}
    torus_expected = {5: "Z", 6: "Z_2", 7: "Z_2"}
    for case, expected in klein_expected.items():
        assert str(h2_one_relator(klein, CASE_DATA[case][1])) == expected
    for case, expected in torus_expected.items():
        assert str(h2_one_relator(torus, CASE_DATA[case][1])) == expected
    report(1, "twisted H^2 tables: Z_2, Z_2, Z, Z_2 and Z, Z_2, Z_2 exactly")


def _identify(case, k, label, target_k=None):
    """Verify the case-k extension against the named catalogue group via
    the explicit witness maps, both directions, composed as words by
    substitution."""
    ext = case_extension(case, k)
    chain_case, chain_k = case, k
    fwd = [Word(((i, 1),)) for i in range(3)]
    bwd = [Word(((i, 1),)) for i in range(3)]
    if case in (4, 7):
        sw_fwd, sw_bwd = map(as_words, case_swap_maps(case))
        fwd, bwd = compose_maps(fwd, sw_fwd), compose_maps(sw_bwd, bwd)
        chain_case = 2 if case == 4 else 6
    if chain_case in (1, 2, 6):
        r = chain_k % 2
        if r != chain_k:
            red_fwd, red_bwd = map(as_words, reduction_at(chain_case, chain_k, r))
            fwd = compose_maps(fwd, red_fwd)
            bwd = compose_maps(red_bwd, bwd)
            chain_k = r
    got_label, target, id_fwd, id_bwd = base_identification(chain_case, chain_k, ext)
    assert got_label == label, (case, k, got_label, label)
    fwd = compose_maps(fwd, as_words(id_fwd))
    bwd = compose_maps(as_words(id_bwd), bwd)
    fwd_nf, bwd_nf = collected(target, fwd), collected(ext, bwd)
    assert verify_isomorphism(ext, target, fwd_nf, bwd_nf), (case, k, label)


def test_criterion_2_catalogue_identifications():
    _identify(1, 0, "B1")
    _identify(1, 1, "B2")
    _identify(2, 0, "B3")
    _identify(2, 1, "B4")
    _identify(3, 0, "G2")
    for k in range(-5, 6):
        if k != 0:
            _identify(3, k, f"Gamma({k})")
        # case 4 group is the case 2 group with the same lift
        a, b = case_extension(4, k), case_extension(2, k)
        fwd, bwd = map(as_words, case_swap_maps(4))
        assert verify_isomorphism(a, b, collected(b, fwd), collected(a, bwd))
        # case 7 group is the case 6 group with the same lift
        a, b = case_extension(7, k), case_extension(6, k)
        fwd, bwd = map(as_words, case_swap_maps(7))
        assert verify_isomorphism(a, b, collected(b, fwd), collected(a, bwd))
        if k == 0:
            _identify(5, 0, "T3")
        else:
            _identify(5, k, f"Delta({-k})")
    _identify(6, 0, "B1")
    _identify(6, 1, "B2")
    report(2, "all catalogue identifications verified in both directions")


def test_criterion_3_nil_relations_exact():
    # the hand-written nil lattices, and the engine's triangular models
    names = ("a", "b", "n")
    for k in range(-5, 6):
        if k != 0:
            for label in ("Delta", "Gamma"):
                model = catalogue_representation(label, k)
                assert verify_relations_in_rep(catalogue_pc(label, k), model) == (True, None)
            a, b, n = gamma_generators(k)
            assert a * n * a.inverse() == n.inverse()
            assert a * b * a.inverse() == letterwise_evaluate(
                [a, b, n], parse_word(f"n^{k} b^-1", names).syllables
            )
            assert b * n * b.inverse() == n
            da, db, dc = delta_generators(k)
            assert da * db * da.inverse() * db.inverse() == rep_evaluate(
                [da, db, dc], (0, 0, -k)
            )
        assert abs(euler_number(k)) == abs(k)
    report(3, "nil lattice relations and Euler magnitudes exact for |k| <= 5")


def test_criterion_4_type_dichotomy():
    for case in sorted(CASE_DATA):
        base, signs = base_group(case), CASE_DATA[case][1]
        for k in range(-5, 6):
            infinite_by_order = not class_order(base, signs, (k,)).is_finite
            infinite_by_restriction = restriction_nonzero(case_extension(case, k))
            assert infinite_by_order == infinite_by_restriction, (case, k)
            assert infinite_by_order == (case in (3, 5) and k != 0), (case, k)
    report(4, "class order and lattice restriction agree; infinite type is "
              "exactly cases 3 and 5 with k != 0")


def test_criterion_5_holonomy_elementary_2():
    expected_s = {"T3": 0, "G2": 1, "B1": 1, "B2": 1, "B3": 2, "B4": 2}
    for label, s in expected_s.items():
        order, elementary, _ = holonomy(catalogue_representation(label))
        assert elementary, label
        assert order == 2 ** s, (label, order)
        assert catalogue_report(label).holonomy_order == order, label
    report(5, "finite-type holonomy is elementary abelian 2-group with "
              "s = 0 (T3), 1 (G2, B1, B2), 2 (B3, B4)")


def test_criterion_6_torus_rank_and_injectivity():
    for label in ("B1", "B2", "B3", "B4", "G2", "T3"):
        group = catalogue_pc(label)
        central = center(group)
        rank_h1 = catalogue_report(label).h1[0]
        assert len(central) == rank_h1, label
        assert homological_injectivity_check(group, central), label
    report(6, "rank C(pi) = rank H_1 and homological injectivity certified "
              "for every finite-type entry")


def test_criterion_7_halperin_carlsson():
    for label in ("B1", "B2", "B3", "B4", "G2", "T3"):
        rep = catalogue_report(label)
        ok, margins, total = halperin_carlsson_check(rep.betti, rep.center_rank)
        assert ok, label
        if label == "T3":
            assert sum(rep.betti) == 8 and rep.center_rank == 3
            assert total == 0  # the equality case 2^3 = 8
    report(7, "binomial bounds hold for every finite-type entry, with "
              "equality 2^3 = 8 for T3")


def test_criterion_8_property_suites():
    # cocycle identity on every triple of the sampled window
    failures = 0
    for case, k in [(1, 1), (2, 3), (3, 2), (5, -2), (7, 4)]:
        f = Cocycle(case_extension(case, k))
        box = list(product(range(-1, 2), repeat=2))
        for a in box:
            for b in box:
                for c in box:
                    if f.identity_defect(a, b, c) != 0:
                        failures += 1
    assert failures == 0

    # rebuilding the lift integer through the relator pairing, the
    # engine's and the cocycle's
    for case in sorted(CASE_DATA):
        pres = base_presentation(case)
        for k in range(-5, 6):
            ext = case_extension(case, k)
            r = pres.relators[0]
            if not relator_pairing(ext, r) == cocycle_oracle.relator_pairing(Cocycle(ext), r) == k:
                failures += 1
    assert failures == 0

    # collection agrees with the faithful models on 200 random words/group
    rng = random.Random(60221023)
    groups = []
    for label, k in [("T3", None), ("G2", None), ("B1", None), ("B2", None),
                     ("B3", None), ("B4", None), ("Delta", 3), ("Delta", -2),
                     ("Gamma", 1), ("Gamma", -4)]:
        groups.append((catalogue_pc(label, k), catalogue_representation(label, k)))
    for case in sorted(CASE_DATA):
        for k in (3, -2):
            groups.append(
                (case_extension(case, k), extension_representation(case, k))
            )
    for p, rep in groups:
        for _ in range(200):
            sylls = [
                (rng.randint(0, p.ngens - 1), rng.choice([-2, -1, 1, 2]))
                for _ in range(4)
            ]
            w = Word(sylls)
            nf = collect(p, w)
            if letterwise_evaluate(rep, w.syllables) != rep_evaluate(rep, nf):
                failures += 1
    assert failures == 0

    # Smith form checks on 500 random small matrices
    for _ in range(500):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = IntMatrix(
            [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        )
        d, u, v = smith_normal_form(m)
        if u * m * v != diagonal(d, rows=rows, cols=cols):
            failures += 1
        if abs(Matrix(u.entries).det()) != 1 or abs(Matrix(v.entries).det()) != 1:
            failures += 1
        for i in range(len(d) - 1):
            if d[i] == 0:
                if d[i + 1] != 0:
                    failures += 1
            elif d[i + 1] % d[i]:
                failures += 1
    assert failures == 0
    report(8, "cocycle identities, pairing round trips, 200-word collection "
              "cross-checks and 500 Smith-form checks: zero failures")


def test_criterion_9_freeness():
    entries = [("T3", None), ("G2", None), ("B1", None), ("B2", None),
               ("B3", None), ("B4", None), ("K", None), ("T2", None),
               ("Delta", 2), ("Delta", -3), ("Gamma", 1), ("Gamma", 2),
               ("Gamma", -5)]
    for label, k in entries:
        p = catalogue_pc(label, k)
        rep = catalogue_representation(label, k)
        result = freeness_sample(p, rep, 6)
        assert result.is_free_sample, (label, k, result.fixed_points[:2])
    control = FlatAffineMap(diagonal([-1, -1]), (0, 0))
    control_report = freeness_sample(cyclic_pc("r"), [control], 2)
    assert not control_report.is_free_sample
    assert control_report.fixed_points[0][1] == [0, 0]
    report(9, "no fixed points through length 6 in any catalogue model; "
              "the control rotation reports its fixed point")
