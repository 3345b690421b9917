import json
import re
import time
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    CASE_DATA,
    DEPTH4,
    GOLDEN_KS,
    PATTERNS,
    as_words,
    base_group,
    base_presentation,
    case_extension,
    classify_deep_text,
    classify_witnesses_text,
    collected,
    compose_maps,
    deep_specs,
    reduction_at,
    wide_lift_specs,
)
import cocycle_oracle
from cocycle_oracle import Cocycle
from identification_oracle import assembled_verdict, base_identification
from relator_oracle import relator_pairing

from nilbott import polycyclic
from nilbott.catalogue import case_swap_maps, catalogue_pc
from nilbott.cohomology import (
    class_order,
    restriction_nonzero,
    transfer_identity_check,
)
from nilbott.geometry import seifert_model
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
    z2 = build_extension(cyclic_pc("a"), (1,), [], "b")
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
        build_extension(base_group(1), (1,), [0], "n")
    with pytest.raises(ValueError):
        build_extension(base_group(1), (1, 1), [0, 0], "n")


def test_build_extension_rejects_bad_cocycle():
    # a sign pattern that is a homomorphism on the base can still carry
    # lift data violating the cocycle condition
    gamma = catalogue_pc("Gamma", 1)
    with pytest.raises(ExtensionError) as err:
        build_extension(gamma, (1, -1, 1), [0, 0, 1], "m")
    assert err.value.witness is not None
    # the trivial lift over the same base is fine
    build_extension(gamma, (1, -1, 1), [0, 0, 0], "m")


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
    # 1.2 to 1.9 ms on a 2-vCPU Xeon at 2.1 GHz: stage 5 is rejected at
    # the first level it breaks, before any arithmetic rests on that level
    assert time.perf_counter() - start < 1
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


def _accepted_deep_tower(bits):
    """The slowest accepted depth-5 tower of finite type in a seeded search
    over towers whose stage-3 lift and each stage's lifts are one magnitude
    a few below 2^bits, with random signs; one in two hundred is accepted."""
    top = 2**bits
    return TowerSpec(
        (
            Stage(1),
            Stage(2, (-1,), (), "S1"),
            Stage(3, (1, 1), (top - 14,), "K"),
            Stage(4, (-1, -1, 1), (-(top - 11),) * 3),
            Stage(5, (1, 1, -1, 1), tuple(e * (top - 9) for e in (1, 1, -1, 1, -1, 1))),
        )
    )


def test_accepted_deep_tower_at_the_bound():
    # every stage is a cocycle at 128 bits, and each stage's class order
    # is read off its 128-bit lifts
    spec = _accepted_deep_tower(DEEP_LIFT_BITS)
    assert {x.bit_length() for s in spec.stages for x in s.lifts} == {DEEP_LIFT_BITS}
    start = time.perf_counter()
    v = classify_tower(spec)
    assert time.perf_counter() - start < 1
    assert (v.label, v.type) == ("unclassified", "finite")
    groups = build_tower_groups(spec)
    orders = [class_order(g, s.phi, s.lifts).order for g, s in zip(groups[1:], spec.stages[2:])]
    assert orders == [1, 2, 4]
    # one lift off by one breaks the stage-5 cocycle
    *low, top = spec.stages
    lifts = (top.lifts[0] + 1,) + top.lifts[1:]
    with pytest.raises(ExtensionError, match="^lift data is not a cocycle"):
        classify_tower(TowerSpec((*low, Stage(5, top.phi, lifts))))


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


def _signed(base, signs, lifts):
    """lifts, each times the sign signs[j] of the fiber tail of its rule
    (i, j): the convention that class_order must not take."""
    return [x * signs[j] for ((_, j), _), x in zip(base.positive_rules(), lifts)]


def test_type_decisions_agree():
    # depth 3: the class order and the engine's lattice restriction, on
    # every case; infinite type is exactly cases 3 and 5 with k != 0
    for case in sorted(CASE_DATA):
        kind, signs = CASE_DATA[case]
        for k in range(-5, 6):
            by_order = not class_order(base_group(case), signs, (k,)).is_finite
            by_restriction = restriction_nonzero(case_extension(case, k))
            assert by_order == by_restriction
            assert by_order == (case in (3, 5) and k != 0)
    # every stage of the accepted deep_specs towers and of a sample with
    # lifts in [-3, 3]: the class order is finite iff seifert_model keeps
    # the stage's coordinate flat, and agrees with the restriction oracle
    # wherever it decides; it refuses the stages whose lattice does not
    # commute, 28 of deep_specs', and those get a type too.  The tower is
    # infinite iff some stage is.  The sample's wide lifts tell the lifts
    # as given from the lifts times the fiber sign of their rule.
    refused = {"deep": 0, "wide": 0}
    apart = 0  # stages where the signed convention gives another type
    samples = [("deep", spec) for spec in deep_specs()] + [("wide", spec) for spec in wide_lift_specs()]
    for sample, spec in samples:
        try:
            groups = build_tower_groups(spec)
        except (ExtensionError, ValueError):
            continue
        model = seifert_model(groups[-1])
        types = []
        for j, (base, stage) in enumerate(zip(groups[1:], spec.stages[2:]), start=2):
            finite = class_order(base, stage.phi, stage.lifts).is_finite
            flat = all(m.low is None or not any(m.low[j]) for m in model)
            assert finite == flat, (spec, j)
            try:
                infinite = cocycle_oracle.restriction_nonzero(groups[j])
            except ValueError:
                refused[sample] += 1
            else:
                assert finite != infinite, (spec, j)
            signed = class_order(base, stage.phi, _signed(base, stage.phi, stage.lifts))
            apart += signed.is_finite != finite
            types.append(finite)
        assert classify_tower(spec).type == ("finite" if all(types) else "infinite"), spec
    assert refused["deep"] == 28 and refused["wide"] > 50, refused
    assert apart > 10, apart


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
    # depth-4/5 types and rejections of a seeded tower set; each type is
    # read off the class orders of stages 3 and up
    assert classify_deep_text().encode() == GOLDEN_DEEP.read_bytes()


def test_rejection_formats_nothing_until_read(monkeypatch):
    # a rejected extension collects and prints nothing: classify_tower
    # raises without one nf_str call, and str() then gives the golden
    # message, the same on every read
    rejected = [
        entry for entry in json.loads(GOLDEN_DEEP.read_text())["towers"]
        if entry.get("error") == "ExtensionError"
    ]
    assert len(rejected) > 100
    calls = []
    nf_str = polycyclic.nf_str
    monkeypatch.setattr(polycyclic, "nf_str", lambda *args: calls.append(args) or nf_str(*args))
    for entry in rejected:
        with pytest.raises(ExtensionError) as err:
            classify_tower(parse_tower_spec(entry["spec"]))
        assert calls == [], entry["spec"]
        assert str(err.value) == entry["message"]
        assert calls
        assert str(err.value) == entry["message"]
        calls.clear()


#: values that are not integers, and the bools that int() would accept
NOT_INTEGERS = [2.5, 2.0, "7", True, False, None]

K_ENTRY_POINTS = {
    "build_extension": lambda k: build_extension(catalogue_pc("T2"), (1, 1), [k], "n"),
    "depth3": lambda k: TowerSpec.depth3("T2", (1, 1), k),
    "class_order-free": lambda k: class_order(catalogue_pc("T2"), (1, 1), (k,)),
    "class_order-torsion": lambda k: class_order(catalogue_pc("K"), (1, -1), (k,)),
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
    and catalogue identification, read as words through nf_to_word and
    composed by substitution."""
    fwd, bwd = [], []
    if (base, signs) == ("T2", (-1, 1)):
        swap = [gen(1), gen(0), gen(2)]
        fwd, bwd, case, k = [swap], [swap], 6, -k
    else:
        kind = "klein" if base == "K" else "torus"
        case = next(c for c, data in CASE_DATA.items() if data == (kind, signs))
        if case in (4, 7):
            sw_fwd, sw_bwd = map(as_words, case_swap_maps(case))
            fwd, bwd, case = [sw_fwd], [sw_bwd], {4: 2, 7: 6}[case]
    if case in (1, 2, 6) and k % 2 != k:
        red_fwd, red_bwd = map(as_words, reduction_at(case, k, k % 2))
        fwd, bwd, k = fwd + [red_fwd], [red_bwd] + bwd, k % 2
    _, target, id_fwd, id_bwd = base_identification(case, k, case_extension(case, k))
    fwd, bwd = fwd + [as_words(id_fwd)], [as_words(id_bwd)] + bwd
    return target, reduce(compose_maps, fwd), reduce(compose_maps, bwd)


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


def test_warm_depth3_classification_builds_no_words(monkeypatch, fresh_families):
    # the witness maps are read off cached normal forms: once the families
    # are built, a depth-3 verdict calls no collect and builds no Word, so
    # its cost is the build and the specialisation
    import nilbott
    from nilbott import polycyclic
    from nilbott.words import Word

    ks = (2**64 + 1, -(2**64 + 1))
    specs = [TowerSpec.depth3(base, signs, k) for base, signs in PATTERNS for k in ks]
    calls = {"collect": 0, "Word": 0}
    original_collect, original_init = polycyclic.collect, Word.__init__

    def counted_collect(*args):
        calls["collect"] += 1
        return original_collect(*args)

    def counted_init(self, *args):
        calls["Word"] += 1
        original_init(self, *args)

    for module in vars(nilbott).values():
        if getattr(module, "collect", None) is original_collect:
            monkeypatch.setattr(module, "collect", counted_collect)
    monkeypatch.setattr(Word, "__init__", counted_init)
    # the counters see the cold path: collecting one identification
    fresh_families()
    classify_tower(TowerSpec.depth3("K", (1, 1), 1))
    assert calls["collect"] > 0 and calls["Word"] > 0
    for spec in specs:
        classify_tower(spec)
    calls.update(collect=0, Word=0)
    verdicts = [classify_tower(spec) for spec in specs]
    assert calls == {"collect": 0, "Word": 0}
    assert {v.label for v in verdicts} == {
        "B2", "B4", f"Gamma({ks[0]})", f"Gamma({ks[1]})",
        f"Delta({-ks[0]})", f"Delta({-ks[1]})",
    }


def test_warm_depth3_classification_assembles_no_group(monkeypatch, fresh_families):
    # a depth-3 verdict runs the stage checks over the shared base and
    # reads the rest off the cached families: once they are built, neither
    # a verdict nor its witness text assembles a presentation
    from nilbott.polycyclic import PcPresentation

    ks = (0, 1, -1, 2, -2, 2**64 + 1, -(2**64 + 1), 10**(MAX_LIFT_DIGITS - 1) + 7)
    specs = [TowerSpec.depth3(base, signs, k) for base, signs in PATTERNS for k in ks]
    deep = [parse_tower_spec(DEPTH4), _accepted_deep_tower(DEEP_LIFT_BITS)]
    calls = {"_extend": 0, "_blank": 0}

    def counted(name):
        original = getattr(PcPresentation, name).__func__

        def count(cls, *args):
            calls[name] += 1
            return original(cls, *args)

        monkeypatch.setattr(PcPresentation, name, classmethod(count))

    counted("_extend")
    counted("_blank")
    for spec in specs + deep:
        classify_tower(spec)
    calls.update(_extend=0, _blank=0)
    for spec in specs:
        classify_tower(spec).to_dict()
    assert calls == {"_extend": 0, "_blank": 0}
    # the counters see assembly: a deep tower still builds each stage above 2
    for spec in deep:
        calls.update(_extend=0, _blank=0)
        assert classify_tower(spec).label == "unclassified"
        assert calls == {"_extend": spec.depth - 2, "_blank": spec.depth - 2}


#: twisting integers of every length up to MAX_LIFT_DIGITS digits
_ANY_LIFT = st.integers(1, MAX_LIFT_DIGITS).flatmap(
    lambda d: st.integers(-(10**d - 1), 10**d - 1)
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pattern=st.sampled_from(PATTERNS), k=_ANY_LIFT)
def test_depth3_verdicts_match_the_assembled_tower(pattern, k):
    # the verdict, made with no presentation assembled, is the one read off
    # the built extension, with the witnesses printed by the groups
    spec = TowerSpec.depth3(*pattern, k)
    assert classify_tower(spec).to_dict() == assembled_verdict(spec)


_KLEIN_BELOW = (Stage(1), Stage(2, (-1,), (), "S1"))


@pytest.mark.parametrize("stages,message", [
    (_KLEIN_BELOW + (Stage(3, (2, 1), (1,), "K"),), "stage 3: need one sign per base generator"),
    (_KLEIN_BELOW + (Stage(3, (1,), (1,), "K"),), "stage 3: need one sign per base generator"),
    (_KLEIN_BELOW + (Stage(3, (1, 1), (1, 2), "K"),), "stage 3: need 1 lift integers, got 2"),
    (_KLEIN_BELOW + (Stage(3, (1, 1), (), "K"),), "stage 3: need 1 lift integers, got 0"),
    (_KLEIN_BELOW + (Stage(3, (1, 1), (True,), "K"),), "k must be an integer"),
    (_KLEIN_BELOW + (Stage(3, (1, 1), (1.0,), "K"),), "k must be an integer"),
    (
        (Stage(1), Stage(2, (-1,), (1,), "S1"), Stage(3, (1, 1), (1,), "K")),
        "stage 2: need 0 lift integers, got 1",
    ),
    (
        (Stage(1), Stage(2, (3,), (), "S1"), Stage(3, (1, 1), (1,), "K")),
        "stage 2: need one sign per base generator",
    ),
    (
        (Stage(1), Stage(2, (3,), (), "S1")),
        "stage 2: need one sign per base generator",
    ),
], ids=range(9))
def test_stage_errors_name_the_stage(stages, message):
    # depth-3 verdicts run the stage checks of build_tower_groups, with the
    # same messages; each names its stage unless it is about one integer
    spec = TowerSpec(stages)
    for run in (build_tower_groups, classify_tower):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(spec)
