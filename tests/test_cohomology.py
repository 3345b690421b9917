import random
import re
from itertools import product
from math import gcd

import pytest

from conftest import (
    CASE_DATA,
    PATTERNS,
    assert_value_record,
    base_group,
    base_presentation,
    case_extension,
    deep_specs,
    relator_images_if_homomorphism,
    relators,
)

from nilbott.cohomology import (
    ClassOrder,
    CohomologyResult,
    base_kind,
    class_order,
    h2_one_relator,
    restriction_nonzero,
    transfer_identity_check,
    untwisted_subgroup,
)
import cocycle_oracle
import relator_oracle as oracle
from cocycle_oracle import Cocycle, fiber_signs
from nilbott.catalogue import catalogue_pc
from nilbott.geometry import FreenessReport
from nilbott.polycyclic import nf_invert, nf_multiply, relation_rows, twist_signs
from nilbott.towers import ExtensionError, _low_stages, build_extension, build_tower_groups
from nilbott.words import _word_sign, gen, parse_word
from pc_oracle import nf_to_word, pc_presentation
from relator_oracle import (
    TwistMap,
    fox_augmented,
    klein_presentation,
    relator_pairing,
    torus_presentation,
)


KLEIN_H2 = {(1, 1): "Z_2", (1, -1): "Z_2", (-1, 1): "Z", (-1, -1): "Z_2"}
TORUS_H2 = {(1, 1): "Z", (1, -1): "Z_2", (-1, -1): "Z_2"}


def test_h2_tables():
    K = catalogue_pc("K")
    for signs, expected in KLEIN_H2.items():
        assert str(h2_one_relator(K, signs)) == expected
    T = catalogue_pc("T2")
    for signs, expected in TORUS_H2.items():
        assert str(h2_one_relator(T, signs)) == expected


def test_generator_image_pinned():
    assert h2_one_relator(catalogue_pc("K"), (1, 1)).generator_image == 1


@pytest.mark.parametrize("make,other,text,frozen", [
    (
        lambda: h2_one_relator(catalogue_pc("K"), (-1, -1)),
        CohomologyResult(0, (2,), 0),
        "CohomologyResult(free_rank=0, torsion=(2,), generator_image=1)",
        True,
    ),
    (
        lambda: CohomologyResult(free_rank=1, torsion=()),
        CohomologyResult(1, (2,)),
        "CohomologyResult(free_rank=1, torsion=(), generator_image=1)",
        True,
    ),
    (
        lambda: class_order(catalogue_pc("K"), (-1, -1), (3,)),
        ClassOrder("finite", 1),
        "ClassOrder(kind='finite', order=2)",
        True,
    ),
    (
        lambda: ClassOrder(kind="infinite"),
        ClassOrder("finite"),
        "ClassOrder(kind='infinite', order=None)",
        True,
    ),
    (
        lambda: FreenessReport(max_word_len=4, words_checked=80, fixed_points=[]),
        FreenessReport(4, 80, [((1,), (0,))]),
        "FreenessReport(max_word_len=4, words_checked=80, fixed_points=[])",
        False,
    ),
], ids=["h2", "h2-defaults", "class-order", "class-order-defaults", "freeness"])
def test_results_are_values(make, other, text, frozen):
    # class orders are shared values (_INFINITE, _FINITE), so they are
    # frozen; a freeness report compares by value but is not hashed
    assert_value_record(make, other, text, frozen)


def test_h2_torus_coinvariants_formula():
    # independent description: Z / <1 - phi(b), phi(a) - 1>
    T = catalogue_pc("T2")
    for signs in TORUS_H2:
        g = gcd(1 - signs[1], signs[0] - 1)
        expected = (1, ()) if g == 0 else (0, (g,) if g > 1 else ())
        h2 = h2_one_relator(T, signs)
        assert (h2.free_rank, h2.torsion) == expected


def test_h2_requires_one_relator():
    p = oracle.Presentation(("g", "h"), [gen(0) * gen(1) * gen(0, -1) * gen(1), gen(0)])
    with pytest.raises(ValueError):
        oracle.h2_one_relator(p, TwistMap(klein_presentation(), (1, 1)))


#: twisting integers on which class_order is compared with the oracle
ORACLE_KS = (0, 1, -1, 2, -2, 3, -3, 2**64 + 1, -(2**64 + 1), 10**30, -(10**30))


def test_pc_h2_matches_relator_oracle():
    # the engine reads H^2 off the pc base's one rule; the oracle takes the
    # Fox row of the relator presentation.  Both the catalogue bases and
    # the tower's stage-2 groups are checked, on all eight sign forms.
    for pres, label, stage2 in ((klein_presentation(), "K", (-1,)),
                                (torus_presentation(), "T2", (1,))):
        for base in (catalogue_pc(label), _low_stages(stage2)[1]):
            for signs in product((1, -1), repeat=2):
                phi = TwistMap(pres, signs)
                assert h2_one_relator(base, signs) == oracle.h2_one_relator(pres, phi)
                for k in ORACLE_KS:
                    assert class_order(base, signs, (k,)) == oracle.class_order(pres, phi, k)


BAD_SIGNS = [
    pytest.param(catalogue_pc("K"), (1,), id="K-one-sign"),
    pytest.param(catalogue_pc("K"), (1, 1, 1), id="K-three-signs"),
    pytest.param(catalogue_pc("K"), (1, 2), id="K-sign-2"),
    pytest.param(catalogue_pc("K"), (0, -1), id="K-sign-0"),
    pytest.param(catalogue_pc("T2"), (-2, 1), id="T2-sign-minus-2"),
]
BAD_BASE_INPUTS = BAD_SIGNS + [
    pytest.param(catalogue_pc("S1"), (1,), id="S1"),
    pytest.param(catalogue_pc("T3"), (1, 1, 1), id="T3"),
    pytest.param(catalogue_pc("B1"), (1, -1, 1), id="B1"),
    pytest.param(pc_presentation(("g", "h"), {(0, 1): gen(1, 2)}), (1, 1), id="rule-h^2"),
]


@pytest.mark.parametrize("base, signs", BAD_BASE_INPUTS)
def test_base_inputs_checked(base, signs):
    # a twist that is not one sign +1/-1 per generator, or a base other
    # than the torus or Klein group, is an error, never a wrong H^2
    with pytest.raises(ValueError):
        h2_one_relator(base, signs)
    with pytest.raises(ValueError):
        transfer_identity_check(base, signs, 1)


@pytest.mark.parametrize("base, signs", BAD_SIGNS)
def test_class_order_checks_its_twist(base, signs):
    with pytest.raises(ValueError):
        class_order(base, signs, [1] * (base.ngens * (base.ngens - 1) // 2))


def test_class_order_takes_any_base():
    # one lift per rule of any base, in positive_rules order; a wrong
    # count is an error, never read as a shorter or padded vector
    T3 = catalogue_pc("T3")
    assert class_order(T3, (1, 1, 1), (1, 0, 0)).kind == "infinite"
    assert class_order(T3, (1, 1, 1), (0, 0, 0)).order == 1
    assert class_order(catalogue_pc("S1"), (1,), ()).order == 1
    for lifts in ((), (1, 0)):
        with pytest.raises(ValueError, match="^need 1 lift integers"):
            class_order(catalogue_pc("K"), (1, 1), lifts)


def test_class_order_examples():
    K, T = catalogue_pc("K"), catalogue_pc("T2")
    co = class_order(K, (1, -1), (2,))
    assert co.is_finite and co.order == 1  # the doubled class vanishes
    co = class_order(K, (1, 1), (0,))
    assert co.is_finite and co.order == 1
    assert class_order(T, (1, 1), (4,)).kind == "infinite"
    assert class_order(K, (-1, 1), (3,)).kind == "infinite"
    co = class_order(K, (-1, -1), (3,))
    assert co.is_finite and co.order == 2


def test_class_order_matches_complement_search():
    # independent oracle: the class is trivial iff a complement exists among
    # lifts with fiber exponents in [-2, 2]
    for case in sorted(CASE_DATA):
        kind, signs = CASE_DATA[case]
        pres = base_presentation(case)
        for k in range(-2, 3):
            ext = case_extension(case, k)
            found = False
            for c1, c2 in product(range(-2, 3), repeat=2):
                images = [gen(0) * gen(2, c1), gen(1) * gen(2, c2)]
                if relator_images_if_homomorphism(pres, ext, images) is not None:
                    found = True
                    break
            co = class_order(base_group(case), signs, (k,))
            assert found == (co.is_finite and co.order == 1), (case, k)


def test_cocycle_split_extension_vanishes():
    f = Cocycle(case_extension(1, 0))
    box = list(product(range(-2, 3), repeat=2))
    assert all(f.value(a, b) == 0 for a in box for b in box)


def _pairings(ext, relator, f=None):
    """The engine's pairing of relator in ext and the oracle's, through
    the cocycle f of ext (its zero section if None)."""
    f = Cocycle(ext) if f is None else f
    return relator_pairing(ext, relator), cocycle_oracle.relator_pairing(f, relator)


def test_cocycle_recovers_lift_integer():
    # engine == oracle == k on all eight sign forms, huge k included
    for base, signs in PATTERNS:
        pres = klein_presentation() if base == "K" else torus_presentation()
        for k in (-4, 2, 5) + ORACLE_KS:
            ext = build_extension(catalogue_pc(base), signs, [k], "n")
            assert _pairings(ext, pres.relators[0]) == (k, k), (base, signs, k)


def test_cocycle_antisymmetry_on_torus():
    f = Cocycle(case_extension(5, 2))
    assert f.value((1, 0), (0, 1)) - f.value((0, 1), (1, 0)) == 2


def test_relator_pairing_examples():
    klein = klein_presentation().relators[0]
    torus = torus_presentation().relators[0]
    assert _pairings(case_extension(2, 1), klein) == (1, 1)
    assert _pairings(case_extension(2, 0), klein) == (0, 0)
    assert _pairings(case_extension(5, -3), torus) == (-3, -3)


def test_relator_pairing_rejects_non_relators():
    ext = case_extension(1, 1)
    f = Cocycle(ext)
    word = parse_word("g h", ("g", "h"))
    with pytest.raises(ValueError):
        cocycle_oracle.relator_pairing(f, word)
    with pytest.raises(ValueError, match="is not a relator of the base"):
        relator_pairing(ext, word)
    # the message names the word; a fiber letter is not a base generator
    with pytest.raises(ValueError, match=r"\(2, 1\).*not a base generator"):
        relator_pairing(ext, gen(0) * gen(2))
    with pytest.raises(ValueError):
        cocycle_oracle.relator_pairing(f, gen(0) * gen(2))


def test_cocycle_identity_all_window_triples():
    for case, k in [(2, 3), (3, 2), (5, -2)]:
        f = Cocycle(case_extension(case, k))
        box = list(product(range(-2, 3), repeat=2))
        assert all(
            f.identity_defect(a, b, c) == 0
            for a in box
            for b in box
            for c in box
        )


def test_pairing_of_conjugated_relator():
    # g^3 r g^-3 lifts to the conjugate of z^k, i.e. z^(phi(g)^3 k)
    for case in sorted(CASE_DATA):
        pres = base_presentation(case)
        r = pres.relators[0]
        g3 = parse_word("g^3", ("g", "h"))
        for k in (-3, 0, 2):
            ext = case_extension(case, k)
            f = Cocycle(ext)
            expected = f.phi((1, 0)) ** 3 * k
            assert _pairings(ext, g3 * r * g3.inverse(), f) == (expected, expected)


def _element(f, pair):
    """The extension element z^n s(x) that the pair (n, x) stands for."""
    n, x = pair
    return nf_multiply(f.ext, f.ext._unit(f.fiber, n), f.section(x))


def _pair_product(f, a, b):
    (n, x), (m, y) = a, b
    return (n + f.phi(x) * m + f.value(x, y), nf_multiply(f.base, x, y))


def test_pairs_multiply_as_extension_elements():
    # defining identity of the cocycle, checked by collection:
    # z^n s(x) . z^m s(y) = z^(n + phi(x) m + f(x, y)) s(xy)
    rng = random.Random(1234)
    f = Cocycle(case_extension(2, 3))
    for _ in range(100):
        triple = []
        for _ in range(3):
            triple.append(
                (rng.randint(-2, 2), (rng.randint(-1, 1), rng.randint(-1, 1)))
            )
        a, b, c = triple
        for p, q in ((a, b), (b, c), (_pair_product(f, a, b), c)):
            assert nf_multiply(f.ext, _element(f, p), _element(f, q)) == _element(
                f, _pair_product(f, p, q)
            )
        # inverse: (n, x)^-1 = (-phi(x) (n + f(x, x^-1)), x^-1)
        n, x = a
        xinv = nf_invert(f.base, x)
        inv = (-f.phi(x) * (n + f.value(x, xinv)), xinv)
        assert _element(f, inv) == nf_invert(f.ext, _element(f, a))

    # split extension: the fiber part is n + phi(x) m, nothing more
    split = Cocycle(case_extension(2, 0))
    a, b = (3, (1, 0)), (-2, (0, 1))
    product_ = nf_multiply(split.ext, _element(split, a), _element(split, b))
    assert product_ == _element(split, (3 + split.phi((1, 0)) * -2, (1, 1)))


def test_pairing_ignores_section_at_identity():
    # shifting every section value by z^c moves the lifted relator by c
    # times the coboundary image, which is zero for the torsion-free twists
    for case in (3, 5):
        r = base_presentation(case).relators[0]
        for c in (-2, 1, 3):
            ext = case_extension(case, 4)
            f = Cocycle(ext, section_shift=lambda a, c=c: c)
            assert f.section((0, 0)) == (0, 0, c)
            assert _pairings(ext, r, f) == (4, 4)


def test_section_change_moves_pairing_by_coboundary_image():
    # perturbing the section shifts the pairing by a multiple of the
    # coboundary image; for the torsion-free twists it cannot move at all
    rng = random.Random(77)
    for case, k in [(1, 1), (2, 2), (3, 3), (5, 2), (6, 1), (7, 4)]:
        pres = base_presentation(case)
        _, signs = CASE_DATA[case]
        r = pres.relators[0]
        image_gcd = gcd(fox_augmented(r, 0, signs), fox_augmented(r, 1, signs))
        ext = case_extension(case, k)
        for _ in range(5):
            shifts = {}

            def shift(a, shifts=shifts, rng=rng):
                if not any(a):
                    return 0  # normalized section
                if a not in shifts:
                    shifts[a] = rng.randint(-2, 2)
                return shifts[a]

            f2 = Cocycle(ext, section_shift=shift)
            k2 = cocycle_oracle.relator_pairing(f2, r)
            if image_gcd == 0:
                assert k2 == k
            else:
                assert (k2 - k) % image_gcd == 0


def test_fiber_signs_and_base():
    ext = case_extension(4, 2)
    assert fiber_signs(ext) == (-1, -1)
    f = Cocycle(ext)
    assert f.base.ngens == 2
    assert base_kind(f.base) == "klein"


def test_restriction_examples():
    assert restriction_nonzero(case_extension(3, 2))  # nil lattice inside
    assert not restriction_nonzero(case_extension(1, 1))
    assert restriction_nonzero(case_extension(5, -3))
    assert not restriction_nonzero(case_extension(7, 5))


def _restriction_or_error(criterion, ext):
    """criterion(ext), or (ValueError, message) if it refuses."""
    try:
        return criterion(ext)
    except ValueError as exc:
        return ValueError, str(exc)


def test_restriction_matches_product_form():
    # the engine pairs each lattice commutator a b a^-1 b^-1; the oracle
    # multiplies (ab)(ba)^-1 out in normal forms.  Every stage of the
    # seeded deep towers that builds, and every depth-3 case, is compared;
    # above an infinite-type stage the lattice need not commute, and then
    # both must refuse, naming the same first pair whose commutator leaves
    # the fiber
    exts = [case_extension(case, k) for case in sorted(CASE_DATA) for k in range(-3, 4)]
    for spec in deep_specs():
        try:
            exts += build_tower_groups(spec)[2:]
        except (ExtensionError, ValueError):
            pass
    assert len(exts) > 300
    verdicts = set()
    for ext in exts:
        engine = _restriction_or_error(restriction_nonzero, ext)
        assert engine == _restriction_or_error(cocycle_oracle.restriction_nonzero, ext)
        if isinstance(engine, tuple):
            assert re.fullmatch(
                r"lattice generators \S+ and \S+ do not commute in the base", engine[1]
            )
            engine = ValueError
        verdicts.add(engine)
    assert verdicts == {True, False, ValueError}


def _twists(p):
    """Every twist of p: the sign vectors that every rule keeps."""
    out = []
    for signs in product((1, -1), repeat=p.ngens):
        try:
            out.append(twist_signs(p, signs))
        except ValueError:
            pass
    return out


def _fox_rows(p, signs):
    """The twisted Fox rows of p's relator words, by the oracle."""
    return [[fox_augmented(r, t, signs) for t in range(p.ngens)] for r in relators(p)]


def test_relation_rows_match_fox_oracle():
    # the engine reads each rule's twisted Fox row off its normal form;
    # the oracle differentiates the relator word x_i x_j x_i^-1 w^-1 one
    # syllable at a time.  Every twist of every catalogue group, and of
    # every stage of the seeded deep towers that builds, is compared.
    flat = ("S1", "T2", "K", "T3", "G2", "B1", "B2", "B3", "B4")
    groups = [catalogue_pc(label) for label in flat]
    groups += [catalogue_pc("Delta", k) for k in (0, 1, -2, 3, 10**30)]
    groups += [catalogue_pc("Gamma", k) for k in (1, -2, 3, -(10**30))]
    pairs = [(p, signs) for p in groups for signs in _twists(p)]
    assert len(pairs) > 60
    stages = set()  # the low stages are shared between towers
    for spec in deep_specs():
        try:
            stages.update(build_tower_groups(spec))
        except (ExtensionError, ValueError):
            pass
    assert len(stages) > 250
    pairs += [(p, signs) for p in stages for signs in _twists(p)]
    for p, signs in pairs:
        assert relation_rows(p, signs) == _fox_rows(p, signs), (p, signs)
    # with no twist each row is the rule's relator in the abelianization
    for p in groups:
        assert relation_rows(p) == _fox_rows(p, (1,) * p.ngens)


def _transfer_by_words(base, signs, k):
    """Whether the class restricts to zero on the untwisted subgroup, and
    the transfer verdict, with the subgroup relator as a word paired by
    the cocycle oracle through the zero section."""
    (u, v), kind = untwisted_subgroup(base, signs)
    u, v = nf_to_word(u), nf_to_word(v)
    relator = u * v * u.inverse() * (v if kind == "klein" else v.inverse())
    ext = build_extension(base, signs, [k], "n")
    restricted = cocycle_oracle.relator_pairing(Cocycle(ext), relator)
    vanishes = restricted % 2 == 0 if kind == "klein" else restricted == 0
    if not vanishes:
        return False, True
    doubled = class_order(base, signs, (2 * k,))
    return True, doubled.is_finite and doubled.order == 1


def test_transfer_matches_word_route():
    # every twisted base and k in [-50, 50], plus +-(2^64 + 1) and +-10^30;
    # the restriction both vanishes and does not among them
    ks = list(range(-50, 51)) + [2**64 + 1, -(2**64 + 1), 10**30, -(10**30)]
    restrictions = set()
    for label in ("K", "T2"):
        base = catalogue_pc(label)
        for signs in ((1, -1), (-1, 1), (-1, -1)):
            for k in ks:
                vanishes, verdict = _transfer_by_words(base, signs, k)
                assert transfer_identity_check(base, signs, k) == verdict, (label, signs, k)
                restrictions.add(vanishes)
    assert restrictions == {True, False}


def test_transfer_identity():
    K, T = catalogue_pc("K"), catalogue_pc("T2")
    assert transfer_identity_check(K, (1, -1), 1)
    assert transfer_identity_check(K, (-1, 1), 1)
    assert transfer_identity_check(K, (-1, -1), 0)
    assert transfer_identity_check(T, (1, -1), 3)
    with pytest.raises(ValueError):
        transfer_identity_check(K, (1, 1), 1)


def test_untwisted_subgroups_are_untwisted():
    # each listed subgroup sits inside the kernel of its twist
    K, T = catalogue_pc("K"), catalogue_pc("T2")
    for pres, signs_list in ((K, [(1, -1), (-1, 1), (-1, -1)]),
                             (T, [(1, -1), (-1, 1), (-1, -1)])):
        for signs in signs_list:
            (u, v), kind = untwisted_subgroup(pres, signs)
            assert _word_sign(enumerate(u), signs) == 1 and _word_sign(enumerate(v), signs) == 1
            assert kind in ("klein", "torus")
