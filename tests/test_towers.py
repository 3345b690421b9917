import time
from functools import reduce
from pathlib import Path

import pytest

from conftest import (
    CASE_DATA,
    GOLDEN_KS,
    PATTERNS,
    base_group,
    base_presentation,
    case_extension,
    classify_deep_text,
    classify_witnesses_text,
    collected,
    compose_maps,
)
import cocycle_oracle
from cocycle_oracle import Cocycle

from nilbott.catalogue import base_identification, case_swap_maps, catalogue_pc, reduction_maps
from nilbott.cohomology import (
    class_order,
    relator_pairing,
    restriction_nonzero,
    transfer_identity_check,
)
from nilbott.polycyclic import (
    collect,
    cyclic_pc,
    verify_isomorphism,
)
from nilbott.towers import (
    DEEP_LIFT_BITS,
    MAX_LIFT_DIGITS,
    ExtensionError,
    Stage,
    TowerSpec,
    build_extension,
    build_tower_groups,
    classify_tower,
    format_tower_spec,
    parse_tower_spec,
    tower_names,
)
from nilbott.words import gen, parse_word


GHN = ("g", "h", "n")


def test_build_extension_klein_case2():
    ext = case_extension(2, 1)
    rules = dict(ext.positive_rules())
    assert rules[(0, 1)] == (0, -1, -1)  # g h g^-1 = n h^-1 = h^-1 n^-1
    assert rules[(0, 2)] == (0, 0, 1)
    assert rules[(1, 2)] == (0, 0, -1)
    assert collect(ext, parse_word("g h g^-1 h", GHN)) == (0, 0, 1)


def test_build_extension_depth2_torus():
    z2 = build_extension(cyclic_pc("a"), (1,), [], fiber_name="b")
    assert z2.names == ("a", "b")
    assert collect(z2, parse_word("a b a^-1 b^-1", ("a", "b"))) == (0, 0)


def test_build_extension_case7():
    ext = case_extension(7, 2)
    assert collect(ext, parse_word("g n g^-1", GHN)) == (0, 0, -1)
    assert collect(ext, parse_word("h n h^-1", GHN)) == (0, 0, -1)
    assert collect(ext, parse_word("g h g^-1", GHN)) == (0, 1, -2)  # h n^-2 = n^2 h


def test_build_extension_validates_phi():
    with pytest.raises(ValueError):
        # phi must be a homomorphism on the base: on the Klein group the
        # fiber sign of h is unconstrained, but a wrong-length tuple is not
        build_extension(base_group(1), (1,), [0])
    with pytest.raises(ValueError):
        build_extension(base_group(1), (1, 1), [0, 0])


def test_build_extension_rejects_bad_cocycle():
    # a sign pattern that is a homomorphism on the base can still carry
    # lift data violating the cocycle condition
    gamma = catalogue_pc("Gamma", 1)
    with pytest.raises(ExtensionError) as err:
        build_extension(gamma, (1, -1, 1), [0, 0, 1])
    assert err.value.witness is not None
    # the trivial lift over the same base is fine
    build_extension(gamma, (1, -1, 1), [0, 0, 0])


def test_tower_groups_names_and_shapes():
    spec = TowerSpec.depth3("K", (-1, 1), 2)
    groups = build_tower_groups(spec)
    assert [g.ngens for g in groups] == [1, 2, 3]
    assert groups[2].names == GHN == tower_names(3)
    assert tower_names(8) == ("g", "h", "n", "m", "f", "q", "z6", "z7")


def test_classification_table_klein():
    for k in range(-5, 6):
        r = k % 2
        assert classify_tower(TowerSpec.depth3("K", (1, 1), k)).label == (
            "B1" if r == 0 else "B2"
        )
        assert classify_tower(TowerSpec.depth3("K", (1, -1), k)).label == (
            "B3" if r == 0 else "B4"
        )
        assert classify_tower(TowerSpec.depth3("K", (-1, -1), k)).label == (
            "B3" if r == 0 else "B4"
        )
        v = classify_tower(TowerSpec.depth3("K", (-1, 1), k))
        assert v.label == ("G2" if k == 0 else f"Gamma({k})")
        assert v.type == ("finite" if k == 0 else "infinite")


def test_classification_table_torus():
    for k in range(-5, 6):
        r = k % 2
        v = classify_tower(TowerSpec.depth3("T2", (1, 1), k))
        assert v.label == ("T3" if k == 0 else f"Delta({-k})")
        assert v.type == ("finite" if k == 0 else "infinite")
        assert classify_tower(TowerSpec.depth3("T2", (1, -1), k)).label == (
            "B1" if r == 0 else "B2"
        )
        assert classify_tower(TowerSpec.depth3("T2", (-1, -1), k)).label == (
            "B1" if r == 0 else "B2"
        )
        # the unlisted sign pattern reduces to the listed one by a swap
        assert classify_tower(TowerSpec.depth3("T2", (-1, 1), k)).label == (
            "B1" if r == 0 else "B2"
        )


def test_classification_witnesses_reverify():
    # the verdict's witness words, replayed from scratch, still verify
    for case, k in [(1, 4), (2, -3), (3, 5), (4, 2), (5, -2), (6, 3), (7, -1)]:
        kind, signs = CASE_DATA[case]
        base = "K" if kind == "klein" else "T2"
        spec = TowerSpec.depth3(base, signs, k)
        v = classify_tower(spec)
        ext = build_tower_groups(spec)[2]
        target_label = v.target
        target_k = None
        if target_label in ("Gamma", "Delta"):
            target_k = int(v.label.split("(")[1].rstrip(")"))
        target = catalogue_pc(target_label, target_k)
        fwd = [parse_word(v.witness_fwd[n], target.names) for n in ext.names]
        bwd = [parse_word(v.witness_bwd[n], ext.names) for n in target.names]
        assert verify_isomorphism(ext, target, collected(target, fwd), collected(ext, bwd))
        # the independently built extension has the same index structure
        other = case_extension(case, k)
        assert verify_isomorphism(other, target, collected(target, fwd), collected(other, bwd))


def test_classify_depths_one_and_two():
    assert classify_tower(TowerSpec((Stage(1),))).label == "S1"
    k2 = TowerSpec((Stage(1), Stage(2, (-1,), (), "S1")))
    assert classify_tower(k2).label == "K"
    t2 = TowerSpec((Stage(1), Stage(2, (1,), (), "S1")))
    assert classify_tower(t2).label == "T2"


def test_classify_depth4_type_only():
    flat = TowerSpec(
        (
            Stage(1),
            Stage(2, (-1,), (), "S1"),
            Stage(3, (1, -1), (0,), "K"),
            Stage(4, (1, 1, 1), (0, 0, 0)),
        )
    )
    v = classify_tower(flat)
    assert v.label == "unclassified" and v.type == "finite"
    nil = TowerSpec(
        (
            Stage(1),
            Stage(2, (1,), (), "S1"),
            Stage(3, (1, 1), (0,), "T2"),
            Stage(4, (1, 1, 1), (1, 0, 0)),
        )
    )
    v = classify_tower(nil)
    assert v.label == "unclassified" and v.type == "infinite"
    # infinite already at stage 3
    deep_nil = TowerSpec(
        (
            Stage(1),
            Stage(2, (1,), (), "S1"),
            Stage(3, (1, 1), (2,), "T2"),
            Stage(4, (1, 1, 1), (0, 0, 0)),
        )
    )
    assert classify_tower(deep_nil).type == "infinite"


def _dense_deep_tower(bits):
    """The slowest depth-5 tower of a seeded search over towers whose
    twisting integers all have the given bit length, most bits set."""
    top = 2**bits
    return TowerSpec(
        (
            Stage(1),
            Stage(2, (-1,), (), "S1"),
            Stage(3, (-1, -1), (-(top - 7),), "K"),
            Stage(4, (1, -1, 1), (top - 14, -(top - 4), -(top - 12))),
            Stage(
                5,
                (1, -1, 1, -1),
                (-(top - 3), top - 9, -(top - 5), -(top - 10), top - 1, top - 6),
            ),
        )
    )


def test_deep_twisting_integers_are_bounded():
    start = time.perf_counter()
    with pytest.raises(ExtensionError, match="does not respect n m n\\^-1"):
        classify_tower(_dense_deep_tower(DEEP_LIFT_BITS))
    # 0.48 s on a 2-vCPU Xeon at 2.1 GHz
    assert time.perf_counter() - start < 10
    over = _dense_deep_tower(DEEP_LIFT_BITS + 1)
    with pytest.raises(ValueError, match=(
        f"^stage 3: a twisting integer of {DEEP_LIFT_BITS + 1} bits is above "
        f"the bound of {DEEP_LIFT_BITS} bits for towers of depth 4 or more$"
    )):
        classify_tower(over)
    # one over-bound lift at the top stage of depth 5, and of depth 4
    *low, top = _dense_deep_tower(DEEP_LIFT_BITS).stages
    lifts = top.lifts[:-1] + (-(2**DEEP_LIFT_BITS),)
    with pytest.raises(ValueError, match="^stage 5: a twisting integer of 129 bits"):
        build_tower_groups(TowerSpec((*low, Stage(5, top.phi, lifts))))
    depth4 = TowerSpec((*low[:3], Stage(4, low[3].phi, (2**DEEP_LIFT_BITS, 0, 0))))
    with pytest.raises(ValueError, match="^stage 4: a twisting integer of 129 bits"):
        build_tower_groups(depth4)


def test_twisting_integers_have_a_digit_bound():
    # the largest k of MAX_LIFT_DIGITS digits is classified and printed
    top = 10**MAX_LIFT_DIGITS - 1
    spec = TowerSpec.depth3("K", (-1, 1), top)
    assert classify_tower(spec).label == f"Gamma({top})"
    text = format_tower_spec(spec)
    assert parse_tower_spec(text) == spec
    # one more digit is refused up front, naming the stage
    over = f"^stage 3: a twisting integer has more than {MAX_LIFT_DIGITS} decimal digits$"
    for k in (top + 1, -(top + 1)):
        with pytest.raises(ValueError, match=over):
            TowerSpec.depth3("K", (-1, 1), k)
        stages = spec.stages[:2] + (Stage(3, (-1, 1), (k,), "K"),)
        with pytest.raises(ValueError, match=over):
            build_tower_groups(TowerSpec(stages))
    # a spec's k= text is counted before it is read as an int
    with pytest.raises(ValueError, match=over):
        parse_tower_spec(text.replace("k=", "k=-1"))


def test_type_decisions_agree():
    for case in sorted(CASE_DATA):
        kind, signs = CASE_DATA[case]
        for k in range(-5, 6):
            by_order = not class_order(base_group(case), signs, k).is_finite
            by_restriction = restriction_nonzero(case_extension(case, k))
            assert by_order == by_restriction
            assert by_order == (case in (3, 5) and k != 0)


def test_round_trip_lift_through_pairing():
    for case in sorted(CASE_DATA):
        pres = base_presentation(case)
        for k in (-5, -2, 0, 1, 3):
            ext = case_extension(case, k)
            r = pres.relators[0]
            assert relator_pairing(ext, r) == cocycle_oracle.relator_pairing(Cocycle(ext), r) == k


def test_tower_spec_parse_format_roundtrip():
    text = (
        "nilbott-tower v1\n"
        "stage 1: S1\n"
        "stage 2: base=S1 phi={g:-1}\n"
        "stage 3: base=K phi={g:-1,h:+1} k=3\n"
    )
    spec = parse_tower_spec(text)
    assert spec.depth == 3
    assert spec.stages[1].phi == (-1,)
    assert spec.stages[2].phi == (-1, 1)
    assert spec.stages[2].lifts == (3,)
    assert format_tower_spec(spec) == text
    assert parse_tower_spec(format_tower_spec(spec)) == spec
    # phi signs are matched by name, so their order does not matter
    assert parse_tower_spec(text.replace("g:-1,h:+1", "h:+1,g:-1")) == spec


def test_tower_spec_errors():
    with pytest.raises(ValueError):
        parse_tower_spec("stage 1: S1")
    with pytest.raises(ValueError):
        parse_tower_spec("nilbott-tower v1\nstage 1: S1\nstage 3: phi={g:-1} k=1")
    with pytest.raises(ValueError):
        parse_tower_spec("nilbott-tower v1\nstage 1: S1\nstage 2: k=1")
    with pytest.raises(ValueError):
        TowerSpec.depth3("RP2", (1, 1), 0)


GOLDEN_WITNESSES = Path(__file__).parent / "golden" / "classify_witnesses.json"


def test_classify_matches_golden_bytes():
    # labels, witness normal forms and rejection messages, pinned from the
    # engine that composed witness maps by word substitution
    assert classify_witnesses_text().encode() == GOLDEN_WITNESSES.read_bytes()


GOLDEN_DEEP = Path(__file__).parent / "golden" / "classify_deep.json"


def test_classify_deep_matches_golden_bytes():
    # depth-4/5 types and rejections of a seeded tower set; where the
    # depth-3 prefix is finite the restriction criterion alone decides
    assert classify_deep_text().encode() == GOLDEN_DEEP.read_bytes()


#: values that are not integers, and the bools that int() would accept
NOT_INTEGERS = [2.5, 2.0, "7", True, False, None]

K_ENTRY_POINTS = {
    "build_extension": lambda k: build_extension(catalogue_pc("T2"), (1, 1), [k]),
    "depth3": lambda k: TowerSpec.depth3("T2", (1, 1), k),
    "class_order-free": lambda k: class_order(catalogue_pc("T2"), (1, 1), k),
    "class_order-torsion": lambda k: class_order(catalogue_pc("K"), (1, -1), k),
    "transfer": lambda k: transfer_identity_check(catalogue_pc("K"), (-1, 1), k),
}


@pytest.mark.parametrize("k", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("entry", sorted(K_ENTRY_POINTS))
def test_k_must_be_an_integer(entry, k):
    # a lift that is not an int is refused, never truncated or read as 0/1
    with pytest.raises(ValueError, match="^k must be an integer$"):
        K_ENTRY_POINTS[entry](k)


def _substituted_witnesses(base, signs, k):
    """(target, fwd, bwd): classify_tower's chain of case swap, k-reduction
    and catalogue identification, composed as words by substitution."""
    fwd, bwd = [], []
    if (base, signs) == ("T2", (-1, 1)):
        swap = [gen(1), gen(0), gen(2)]
        fwd, bwd, case, k = [swap], [swap], 6, -k
    else:
        kind = "klein" if base == "K" else "torus"
        case = next(c for c, data in CASE_DATA.items() if data == (kind, signs))
        if case in (4, 7):
            sw_fwd, sw_bwd = case_swap_maps(case)
            fwd, bwd, case = [sw_fwd], [sw_bwd], {4: 2, 7: 6}[case]
    if case in (1, 2, 6) and k % 2 != k:
        red_fwd, red_bwd = reduction_maps(case, k, k % 2)
        fwd, bwd, k = fwd + [red_fwd], [red_bwd] + bwd, k % 2
    _, target, id_fwd, id_bwd = base_identification(case, k)
    return target, reduce(compose_maps, fwd + [id_fwd]), reduce(compose_maps, [id_bwd] + bwd)


@pytest.mark.parametrize("base,signs", PATTERNS)
def test_witness_fold_matches_word_substitution(base, signs):
    for k in GOLDEN_KS:
        if (base, signs) == ("K", (1, 1)) and k % 2 and abs(k) > 11:
            # the substituted word repeats u^2 v about 2^63 times
            continue
        spec = TowerSpec.depth3(base, signs, k)
        v = classify_tower(spec)
        ext = build_tower_groups(spec)[2]
        target, fwd, bwd = _substituted_witnesses(base, signs, k)
        witness_fwd = [parse_word(v.witness_fwd[n], target.names) for n in ext.names]
        witness_bwd = [parse_word(v.witness_bwd[n], ext.names) for n in target.names]
        assert collected(target, fwd) == collected(target, witness_fwd), (base, signs, k)
        assert collected(ext, bwd) == collected(ext, witness_bwd), (base, signs, k)
