import random
from itertools import product

import pytest

from conftest import (
    CASE_DATA,
    abstract_b1_presentation,
    case_extension,
    collected,
    commutator_fiber_index,
    deep_specs,
    echelon,
    in_span,
    relator_images_if_homomorphism,
    substitute,
)

from extension_models import extension_representation
from letterwise_freeness import evaluate as letterwise_evaluate
from pc_oracle import check, pc_presentation

from nilbott.catalogue import catalogue_pc
from nilbott.geometry import rep_evaluate
from nilbott.polycyclic import (
    PcPresentation,
    build_extension,
    center,
    collect,
    cyclic_pc,
    nf_invert,
    nf_multiply,
    nf_power,
    pc_abelianization,
    twist_signs,
    verify_homomorphism,
    verify_isomorphism,
)
from nilbott.towers import (
    ExtensionError,
    Stage,
    TowerSpec,
    build_tower_groups,
    classify_tower,
    parse_tower_spec,
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
    # evaluate both sides in the faithful nil model and compare: the word
    # letter by letter, its collected normal form by rep_evaluate
    p = case_extension(3, 1)
    rep = extension_representation(3, 1)
    w = parse_word("h g", GHN)
    nf = collect(p, w)
    assert letterwise_evaluate(rep, w.syllables) == rep_evaluate(rep, nf)


def test_consistency_examples():
    assert check(case_extension(2, 5)).ok
    assert check(cyclic_pc()).ok
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
    result = check(p)
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
    # the projection T2 -> S1 is onto and its section is a round trip on
    # S1, but the Hirsch lengths are 2 and 1
    t2, s1 = catalogue_pc("T2"), catalogue_pc("S1")
    project, section = [(1,), (0,)], [(1, 0)]
    assert verify_homomorphism(t2, s1, project) and verify_homomorphism(s1, t2, section)
    assert not verify_isomorphism(t2, s1, project, section)
    # the section S1 -> T2 is not onto
    assert not verify_isomorphism(s1, t2, section, project)
    # t1 -> t1^2 is an injective homomorphism of T3 that is not onto
    t3 = catalogue_pc("T3")
    assert not verify_isomorphism(t3, t3, [(2, 0, 0), (0, 1, 0), (0, 0, 1)], ident)
    # the case-4/case-2 witness pair with one exponent of bwd moved by 1
    a, b = case_extension(4, 3), case_extension(2, 3)
    fwd = collected(b, [parse_word(t, GHN) for t in ("g h^-1", "h", "n")])
    bwd = collected(a, [parse_word(t, GHN) for t in ("g h^2", "h", "n")])
    assert verify_homomorphism(a, b, fwd)
    assert not verify_isomorphism(a, b, fwd, bwd)
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


@pytest.mark.parametrize(
    "stages, basis",
    [
        # a rank-2 centre: the central exponent vectors are not closed
        # under vector addition, and a 5^3 box sample read rank 3
        ("stage 2: phi={g:+1}\nstage 3: base=T2 phi={g:-1,h:-1} k=2", [(2, 0, 0), (-1, -1, -1)]),
        # the generator lies outside the 5^3 box, which read rank 0
        ("stage 2: phi={g:-1}\nstage 3: base=K phi={g:+1,h:-1} k=3", [(2, 0, -3)]),
    ],
    ids=["T2-mm-k2", "K-pm-k3"],
)
def test_center_pinned_towers(stages, basis):
    p = build_tower_groups(parse_tower_spec(f"nilbott-tower v1\nstage 1: S1\n{stages}\n"))[-1]
    assert center(p) == basis


def _commutes_with_generators(p, v):
    return all(nf_multiply(p, v, p._unit(i)) == nf_multiply(p, p._unit(i), v) for i in range(p.ngens))


def test_center_on_deep_stages():
    # every stage of the seeded deep towers that builds: the basis is
    # central and independent, and every central normal form of the
    # [-2, 2]^n box (n <= 4) lies in its span
    stages = {}
    for spec in deep_specs():
        try:
            groups = build_tower_groups(spec)
        except (ExtensionError, ValueError):
            continue
        for p in groups:
            stages.setdefault((p.names, tuple(p.positive_rules())), p)
    assert len(stages) > 150
    boxed = 0
    for p in stages.values():
        basis = center(p)
        assert all(_commutes_with_generators(p, v) for v in basis), p
        rows = echelon(p, basis)
        assert len(rows) == len(basis), p
        if p.ngens <= 4:
            for v in product(range(-2, 3), repeat=p.ngens):
                if _commutes_with_generators(p, v):
                    assert in_span(p, rows, v), (p, v)
                    boxed += 1
    assert boxed > 1000


def _fresh_groups():
    """A new circle, Klein bottle group, torus group and depth-3 group of
    odd lift, on which (1, 1, -1) is not a twist, with no twist kept."""
    circle = cyclic_pc("g")
    klein = build_extension(circle, (-1,), (), "h")
    torus = build_extension(circle, (1,), (), "h")
    return [circle, klein, torus, build_extension(klein, (1, 1), [3], "n")]


def test_twist_signs_keeps_the_int_tuple():
    # a tuple equal to a kept twist, True and 1.0 included, gives the int
    # tuple, cold and warm; the twist is kept once, under its int tuple
    torus = _fresh_groups()[2]
    for given in [(True, -1), (1.0, -1), (1, -1), (True, -1), (1.0, -1)]:
        out = twist_signs(torus, given)
        assert out == (1, -1) and all(type(s) is int for s in out), given
    assert torus._twists == {(1, -1): (1, -1)}


@pytest.mark.parametrize(
    "signs, message",
    [
        ((1, [1]), "need one sign per base generator"),  # cannot be hashed
        ([1, 2], "need one sign per base generator"),
        ((1, 2), "need one sign per base generator"),
        ((1, -1), "need one sign per base generator"),
        ((1, 1, -1), "phi is not a homomorphism on the base"),
    ],
)
def test_twist_signs_rejects_the_same_way_every_time(signs, message):
    depth3 = _fresh_groups()[3]
    for _ in range(3):
        with pytest.raises(ValueError) as exc:
            twist_signs(depth3, signs)
        assert str(exc.value) == message
    assert depth3._twists == {}


def test_twist_signs_checks_each_twist_once(monkeypatch):
    # the rule loop runs once per (presentation, accepted tuple); a
    # rejected tuple, or one that cannot be hashed, is checked every time,
    # and a presentation keeps at most 2^ngens twists
    checks = {}
    original = PcPresentation.positive_rules

    def counted(p):
        checks[p] = checks.get(p, 0) + 1
        return original(p)

    monkeypatch.setattr(PcPresentation, "positive_rules", counted)
    groups = _fresh_groups()
    rounds = 4
    for _ in range(rounds):
        for p in groups:
            for signs in product((1, -1), repeat=p.ngens):
                for given in (signs, list(signs)):
                    try:
                        twist_signs(p, given)
                    except ValueError:
                        pass
    for p in groups:
        accepted = len(p._twists)
        assert accepted <= 2**p.ngens
        rejected = 2**p.ngens - accepted
        # a tuple's full check runs once if accepted, every round if not;
        # a list's runs every round
        assert checks[p] == accepted + rounds * rejected + rounds * 2**p.ngens, p
    assert [len(p._twists) for p in groups] == [2, 4, 4, 4]


def test_build_extension_checks_every_lift_type():
    # the lift types are checked after the twist, warm or cold, with the
    # same message as ever
    klein = _fresh_groups()[1]
    for lift in (True, 1.0, False, 2.5):
        for _ in range(2):
            with pytest.raises(ValueError, match="^k must be an integer$"):
                build_extension(klein, (1, 1), [lift], "n")
    assert klein._twists == {(1, 1): (1, 1)}


def _depth4(stage3, stage4):
    return TowerSpec((Stage(1), Stage(2, (-1,)), Stage(3, *stage3), Stage(4, *stage4)))


@pytest.mark.parametrize(
    "call, message",
    [
        # twist, then lift types, then the lift count
        (lambda g: build_extension(g[1], (1, 2), [True, 1], "n"), "need one sign per base generator"),
        (lambda g: build_extension(g[1], (1, 1), [1.0, 2], "n"), "k must be an integer"),
        (lambda g: build_extension(g[1], [1, 1], (1, 2), "n"), "need 1 lift integers, got 2"),
        (lambda g: build_extension(g[3], (1, 1, -1), [True], "m"), "phi is not a homomorphism on the base"),
        (lambda g: build_extension(g[0], (-1,), [0.0], "h"), "k must be an integer"),
        # a tower: every lift's type and bound, then stage by stage the
        # twist and the lift count
        (
            lambda g: classify_tower(
                TowerSpec((Stage(1), Stage(2, (2,)), Stage(3, (1, 7), (True,))))
            ),
            "k must be an integer",
        ),
        (
            lambda g: classify_tower(
                TowerSpec((Stage(1), Stage(2, (-1,)), Stage(3, (1, 7), (1.0, 2))))
            ),
            "k must be an integer",
        ),
        (
            lambda g: classify_tower(
                TowerSpec((Stage(1), Stage(2, (-1,)), Stage(3, (1, 7), (1, 2))))
            ),
            "stage 3: need one sign per base generator",
        ),
        (
            lambda g: classify_tower(
                TowerSpec((Stage(1), Stage(2, (1,), (5,)), Stage(3, (1, 1), (1, 2))))
            ),
            "stage 2: need 0 lift integers, got 1",
        ),
        (
            lambda g: classify_tower(_depth4(((1, -1), (1,)), ((1, 1, 2), (1, 1, 2**129)))),
            "stage 4: a twisting integer of 130 bits is above the bound of 128 bits "
            "for towers of depth 4 or more",
        ),
        (
            lambda g: classify_tower(_depth4(((1, 1), (3,)), ((1, 1, -1), (1, 1)))),
            "stage 4: phi is not a homomorphism on the base",
        ),
        (
            lambda g: build_tower_groups(_depth4(((1, 1), (3,)), ((1, 1, 1), (1, 1)))),
            "stage 4: need 3 lift integers, got 2",
        ),
    ],
)
def test_several_faults_raise_the_first(call, message):
    # each input breaks more than one check; the first in the order above
    # is reported, cold and with the twists kept
    groups = _fresh_groups()
    for _ in range(3):
        with pytest.raises(ValueError) as exc:
            call(groups)
        assert str(exc.value) == message
