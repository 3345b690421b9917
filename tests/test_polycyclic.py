import random

import pytest

from conftest import (
    CASE_DATA,
    abstract_b1_presentation,
    case_extension,
    collected,
    commutator_fiber_index,
    relator_images_if_homomorphism,
    substitute,
)

from extension_models import extension_representation
from pc_oracle import check, pc_presentation

from nilbott.catalogue import catalogue_pc
from nilbott.geometry import rep_evaluate
from nilbott.polycyclic import (
    collect,
    consistency_check,
    cyclic_pc,
    nf_invert,
    nf_multiply,
    nf_power,
    nf_to_word,
    pc_abelianization,
    verify_homomorphism,
    verify_isomorphism,
)
from nilbott.words import Word, gen, parse_word


GHN = ("g", "h", "n")


def test_collect_examples():
    p = case_extension(3, 1)
    assert collect(p, parse_word("h g", GHN)) == (1, -1, -1)  # g h^-1 n^-1
    assert collect(p, Word()) == (0, 0, 0)
    p0 = case_extension(1, 0)
    assert collect(p0, parse_word("g h g^-1", GHN)) == (0, -1, 0)


def test_collect_oracle_heisenberg_rep():
    # evaluate both sides in the faithful nil model and compare
    p = case_extension(3, 1)
    rep = extension_representation(3, 1)
    w = parse_word("h g", GHN)
    nf = collect(p, w)
    assert rep_evaluate(rep, w) == rep_evaluate(rep, nf_to_word(nf))


def test_consistency_examples():
    assert consistency_check(case_extension(2, 5)).ok
    assert consistency_check(cyclic_pc()).ok
    # h n h^-1 = n^2 is not invertible: a defect of the rule-text
    # constructor, which the engine cannot build
    corrupted = pc_presentation(
        GHN,
        {
            (0, 1): parse_word("n h^-1", GHN),
            (0, 2): parse_word("n^-1", GHN),
            (1, 2): parse_word("n^2", GHN),
        },
    )
    result = check(corrupted)
    assert not result.ok
    assert result.witness is not None
    assert "h" in result.detail or "n" in result.detail


def test_consistency_overlap_witness():
    # incompatible conjugation family over a nil tail: conjugation by g
    # does not respect h n h^-1 = n f
    names = ("g", "h", "n", "f")
    p = pc_presentation(
        names,
        {
            (1, 2): parse_word("n f", names),
            (0, 3): parse_word("f^-1", names),
        },
    )
    assert p._defects == []
    result = consistency_check(p)
    assert not result.ok
    assert result.witness is not None and len(result.witness) == 3


def test_nf_operations():
    p = case_extension(3, 2)
    # conjugating the fiber by g negates it
    assert collect(p, parse_word("g n g^-1", GHN)) == (0, 0, -1)
    a = collect(p, parse_word("g^2 h^-1 n^3", GHN))
    assert nf_multiply(p, p.identity(), a) == a
    assert nf_multiply(p, a, nf_invert(p, a)) == p.identity()
    assert nf_power(p, a, 3) == nf_multiply(p, nf_multiply(p, a, a), a)
    p5 = case_extension(5, 4)
    comm = collect(p5, parse_word("g h g^-1 h^-1", GHN))
    assert comm == (0, 0, 4)


def test_rule_output_filtration_enforced():
    with pytest.raises(ValueError):
        pc_presentation(GHN, {(1, 2): parse_word("h n", GHN)})


def test_verify_homomorphism_examples():
    b1 = abstract_b1_presentation()
    target = case_extension(1, 0)
    images = [parse_word(t, GHN) for t in ("g", "g^2", "h", "n")]
    # a finite presentation source is checked relator by relator, in the
    # test oracle only
    assert relator_images_if_homomorphism(b1, target, images) is not None
    with pytest.raises(TypeError):
        verify_homomorphism(b1, target, collected(target, images))
    # swapping the lattice images breaks the inverting relation
    bad = [parse_word(t, GHN) for t in ("g", "g^2", "n", "h")]
    assert relator_images_if_homomorphism(b1, case_extension(1, 1), bad) is None
    p = case_extension(3, 2)
    assert verify_homomorphism(p, p, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    # the images are normal forms of the target, one per source generator
    with pytest.raises(ValueError):
        verify_homomorphism(p, p, [gen(0), gen(1), gen(2)])
    with pytest.raises(ValueError):
        verify_homomorphism(p, p, [(1, 0, 0), (0, 1, 0)])


def test_verify_isomorphism_examples():
    # the case-4 group is the case-2 group in disguise
    for k in (-3, 0, 1, 4):
        a = case_extension(4, k)
        b = case_extension(2, k)
        fwd = collected(b, [parse_word(t, GHN) for t in ("g h^-1", "h", "n")])
        bwd = collected(a, [parse_word(t, GHN) for t in ("g h", "h", "n")])
        assert verify_isomorphism(a, b, fwd, bwd)
        assert verify_isomorphism(b, a, bwd, fwd)  # symmetric in (a, b)
    p = case_extension(3, 2)
    ident = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert verify_isomorphism(p, p, ident, ident)
    # naive generator-to-generator map between different cases fails
    assert not verify_isomorphism(
        case_extension(3, 0), case_extension(1, 0), ident, ident
    )
    with pytest.raises(ValueError):
        verify_isomorphism(p, p, ident, [(1, 0, 0), (0, 1, 0), (0, 0, 1.0)])


def test_commutator_fiber_index():
    assert commutator_fiber_index(case_extension(1, 1)) == "trivial"
    assert commutator_fiber_index(case_extension(2, 0)) == "index-2"
    assert commutator_fiber_index(case_extension(5, 3)) == "trivial"
    assert commutator_fiber_index(case_extension(3, 2)) == "index-2"


def test_normal_form_uniqueness_under_rewriting():
    rng = random.Random(314)
    for case in sorted(CASE_DATA):
        p = case_extension(case, 3)
        for _ in range(200):
            sylls = [
                (rng.randint(0, 2), rng.choice([-2, -1, 1, 2])) for _ in range(6)
            ]
            w = Word(sylls)
            reference = collect(p, w)
            # insert cancelling pairs at random spots: same group element
            padded = []
            for s in sylls:
                if rng.random() < 0.4:
                    g = rng.randint(0, 2)
                    e = rng.choice([-2, -1, 1, 2])
                    padded.extend([(g, e), (g, -e)])
                padded.append(s)
            assert collect(p, Word(padded)) == reference


def test_collect_is_multiplicative():
    rng = random.Random(2718)
    p = case_extension(6, 2)
    for _ in range(200):
        sylls = [(rng.randint(0, 2), rng.choice([-2, -1, 1, 2])) for _ in range(8)]
        cut = rng.randint(0, len(sylls))
        u, v = Word(sylls[:cut]), Word(sylls[cut:])
        assert collect(p, u * v) == nf_multiply(p, collect(p, u), collect(p, v))


def test_pc_abelianization():
    assert pc_abelianization(catalogue_pc("T3")) == (3, [])
    assert pc_abelianization(catalogue_pc("G2")) == (1, [2, 2])
    assert pc_abelianization(catalogue_pc("B4")) == (1, [4])
    assert pc_abelianization(catalogue_pc("Delta", 3)) == (2, [3])
    assert pc_abelianization(catalogue_pc("K")) == (1, [2])


def test_substitute_scales_single_syllable_images():
    images = [gen(1, 2), parse_word("g h^-1", ("g", "h"))]
    # a one-syllable image takes the exponent, however large
    assert substitute(gen(0, 10**30), images) == gen(1, 2 * 10**30)
    # other images are concatenated, inverted for negative exponents
    assert substitute(Word(((1, 2), (0, 1))), images) == Word(
        ((0, 1), (1, -1), (0, 1), (1, 1))
    )
    assert substitute(gen(1, -2), images) == Word(((1, 1), (0, -1), (1, 1), (0, -1)))
    with pytest.raises(ValueError):
        substitute(gen(2), images)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: nf_multiply(catalogue_pc("T3"), (1, 2), (1, 2, 3)), id="short-factor"),
        pytest.param(lambda: nf_power(catalogue_pc("T3"), (1, 2, 3, 4), 2), id="long-base"),
        pytest.param(
            lambda: nf_multiply(catalogue_pc("Delta", 2), (1.5, 0, 0), (0, 1, 0)), id="float-entry"
        ),
        pytest.param(lambda: nf_invert(catalogue_pc("Delta", 2), (1, 2)), id="short-inverse"),
        pytest.param(lambda: nf_power(catalogue_pc("Delta", 2), (1, 0, 0), 2.0), id="float-exponent"),
    ],
)
def test_normal_form_entry_points_reject_malformed_input(call):
    # each of these gave a wrong answer or a bare IndexError before
    with pytest.raises(ValueError):
        call()
