"""Collection against the step-by-step oracle, group-law properties, and
the cost of large exponents."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import linear_collector as oracle
from conftest import CENTRAL4, DEPTH4, PATTERNS, collected, deep_specs
from pc_oracle import pc_presentation
from nilbott.catalogue import catalogue_pc
from nilbott.polycyclic import (
    consistency_check,
    nf_invert,
    nf_multiply,
    nf_power,
    nf_to_word,
    verify_isomorphism,
)
from nilbott.towers import (
    ExtensionError,
    TowerSpec,
    build_tower_groups,
    classify_tower,
    parse_tower_spec,
)
from nilbott.words import parse_word


DEPTH5 = """nilbott-tower v1
stage 1: S1
stage 2: phi={g:-1}
stage 3: phi={g:-1,h:-1} k=0
stage 4: phi={g:-1,h:+1,n:-1} k=0,1,2
stage 5: phi={g:-1,h:+1,n:-1,m:+1} k=2,2,2,2,0,0
"""


def _groups():
    groups = {
        f"{label}({k})" if k is not None else label: catalogue_pc(label, k)
        for label, k in [
            ("Delta", 3), ("Delta", -3), ("Gamma", 3), ("Gamma", -3),
            ("B2", None), ("B4", None), ("G2", None),
        ]
    }
    groups["depth4"] = build_tower_groups(parse_tower_spec(DEPTH4))[-1]
    groups["depth5"] = build_tower_groups(parse_tower_spec(DEPTH5))[-1]
    groups["central4"] = build_tower_groups(parse_tower_spec(CENTRAL4))[-1]
    return groups


GROUPS = _groups()
BOX = 200


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_collector_matches_linear_oracle(name):
    # the oracle's cost grows with the product of the exponents, so each
    # draw takes its bound log-uniformly in [1, BOX]; powers keep
    # |e| * bound <= BOX
    p = GROUPS[name]
    rng = random.Random(f"oracle:{name}")

    def draw(bound):
        return tuple(rng.randint(-bound, bound) for _ in range(p.ngens))

    for _ in range(4):
        a, b = draw(round(BOX ** rng.random())), draw(round(BOX ** rng.random()))
        assert nf_multiply(p, a, b) == oracle.mult(p, a, b), (a, b)
        assert nf_invert(p, a) == oracle.invert(p, a), a
        e = rng.randint(-BOX, BOX)
        c = draw(max(1, BOX // max(1, abs(e))))
        assert nf_power(p, c, e) == oracle.power(p, c, e), (c, e)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_consistency_check_cost(name):
    p = GROUPS[name]
    # a fresh copy, so that no cached conjugation is reused
    q = pc_presentation(p.names, {ij: nf_to_word(w) for ij, w in p.positive_rules()})
    start = time.perf_counter()
    assert consistency_check(q).ok
    # 0.3 ms on depth5 on a 2-vCPU Xeon at 2.1 GHz (both bracketings of all
    # signed generator triples took 21.7 ms)
    assert time.perf_counter() - start < 0.005


def _oracle_checks(p, rng, box):
    """nf_multiply, nf_invert and nf_power against the oracle on seeded
    draws with entries in [-box, box], exponents in [-2 box, 2 box]."""
    for _ in range(3):
        a, b = (tuple(rng.randint(-box, box) for _ in range(p.ngens)) for _ in range(2))
        assert nf_multiply(p, a, b) == oracle.mult(p, a, b), (p.names, a, b)
        assert nf_invert(p, a) == oracle.invert(p, a), (p.names, a)
        e = rng.randint(-2 * box, 2 * box)
        assert nf_power(p, a, e) == oracle.power(p, a, e), (p.names, a, e)


@pytest.mark.parametrize("base,signs", PATTERNS)
def test_depth3_collector_matches_linear_oracle(base, signs):
    rng = random.Random(f"depth3:{base}{signs}")
    for k in (-3, 0, 2, 5):
        _oracle_checks(build_tower_groups(TowerSpec.depth3(base, signs, k))[2], rng, 4)


def test_deep_collector_matches_linear_oracle():
    # every accepted tower of the seeded deep set, in its top group
    rng = random.Random("deep")
    accepted = 0
    for spec in deep_specs():
        try:
            p = build_tower_groups(spec)[-1]
        except (ExtensionError, ValueError):
            continue
        accepted += 1
        _oracle_checks(p, rng, 2)
    assert accepted > 100


@pytest.mark.parametrize("label,k", [("Delta", 3), ("Gamma", 3), ("B4", None)])
def test_power_with_a_1100_bit_exponent(label, k):
    # the power loop keeps no frame per bit of the exponent
    p = catalogue_pc(label, k)
    a, e = (1, 1, 1), 2**1100 + 1
    power = nf_power(p, a, e)
    assert power == nf_multiply(p, nf_power(p, a, e - 1), a)
    assert nf_power(p, a, -e) == nf_invert(p, power)


def _elements(ngens, bound=10**6):
    return st.tuples(*[st.integers(-bound, bound)] * ngens)


@pytest.mark.parametrize("name", sorted(GROUPS))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_group_law_properties(name, data):
    p = GROUPS[name]
    a, b, c = (data.draw(_elements(p.ngens)) for _ in range(3))
    ident = p.identity()
    assert nf_multiply(p, nf_multiply(p, a, b), c) == nf_multiply(
        p, a, nf_multiply(p, b, c)
    )
    assert nf_multiply(p, a, nf_invert(p, a)) == ident
    assert nf_multiply(p, nf_invert(p, a), a) == ident
    assert nf_invert(p, nf_multiply(p, a, b)) == nf_multiply(
        p, nf_invert(p, b), nf_invert(p, a)
    )


# -- large exponents -----------------------------------------------------------


def _expected(base, signs, k):
    """(label, type) of a depth-3 tower from the paper's realization tables."""
    case = {
        ("K", (1, 1)): 1, ("K", (1, -1)): 2, ("K", (-1, 1)): 3, ("K", (-1, -1)): 2,
        ("T2", (1, 1)): 5, ("T2", (1, -1)): 1, ("T2", (-1, 1)): 1, ("T2", (-1, -1)): 1,
    }[(base, signs)]
    if case == 1:
        return ("B1" if k % 2 == 0 else "B2"), "finite"
    if case == 2:
        return ("B3" if k % 2 == 0 else "B4"), "finite"
    if case == 3:
        return f"Gamma({k})", "infinite"
    return f"Delta({-k})", "infinite"


HUGE = 10**30


@pytest.mark.parametrize("base,signs", PATTERNS)
def test_classify_huge_twisting_integer(base, signs):
    for k in (HUGE, -HUGE, HUGE + 1, -(HUGE + 1)):
        spec = TowerSpec.depth3(base, signs, k)
        start = time.perf_counter()
        v = classify_tower(spec)
        # 5 to 12 ms on a 2-vCPU Xeon at 2.1 GHz; the step-by-step
        # collector does not finish
        assert time.perf_counter() - start < 2.0, (base, signs, k)
        assert (v.label, v.type) == _expected(base, signs, k)
        ext = build_tower_groups(spec)[2]
        twist = int(v.label[len(v.target) + 1:-1]) if "(" in v.label else None
        target = catalogue_pc(v.target, twist)
        fwd = [parse_word(v.witness_fwd[n], target.names) for n in ext.names]
        bwd = [parse_word(v.witness_bwd[n], ext.names) for n in target.names]
        # normal forms: at most one syllable per generator
        assert all(len(w.syllables) <= target.ngens for w in fwd)
        assert all(len(w.syllables) <= ext.ngens for w in bwd)
        assert verify_isomorphism(ext, target, collected(target, fwd), collected(ext, bwd))


@pytest.mark.parametrize("base,signs", PATTERNS)
def test_classify_4000_digit_twisting_integer(base, signs):
    # depth 3 takes no bit bound on k, only MAX_LIFT_DIGITS
    for k in (10**3999 + 1, -(10**3999)):
        start = time.perf_counter()
        v = classify_tower(TowerSpec.depth3(base, signs, k))
        # 1.2 to 2.6 ms on a 2-vCPU Xeon at 2.1 GHz
        assert time.perf_counter() - start < 0.5, (base, signs, k)
        assert (v.label, v.type) == _expected(base, signs, k)


@pytest.mark.parametrize("label,k", [("Delta", 3), ("Gamma", 3), ("B2", None), ("B4", None)])
def test_nf_multiply_million_exponents(label, k):
    p = catalogue_pc(label, k)
    e = 10**6
    a, b = (e, -e, e), (1 - e, e, e - 1)
    start = time.perf_counter()
    ab = nf_multiply(p, a, b)
    # 0.13 to 0.35 ms on a 2-vCPU Xeon at 2.1 GHz (the step-by-step
    # collector takes 22 s at exponent 10^3)
    assert time.perf_counter() - start < 0.5
    assert nf_multiply(p, ab, nf_invert(p, b)) == a


def test_klein_pp_witness_is_normal_form():
    v = classify_tower(TowerSpec.depth3("K", (1, 1), 11))
    assert v.label == "B2"
    assert v.witness_fwd == {"g": "e", "h": "u^11 v^5", "n": "u^2 v"}
    assert v.witness_bwd == {"e": "g", "u": "h n^-5", "v": "h^-2 n^11"}


def _count_products(p):
    """The list that collects the arguments of every later p._mult call."""
    mult, calls = p._mult, []

    def counted(*args):
        calls.append(args)
        return mult(*args)

    p._mult = counted
    return calls


def test_power_of_a_fiber_normal_form_makes_no_products():
    # x^e for x in the abelian top of the chain is one scaling, whatever
    # level the caller starts from; on an abelian level the action is an
    # integer combination and the inverse a negation
    p = catalogue_pc("Delta", 3)  # built per call, so the counter stays local
    calls = _count_products(p)
    assert nf_power(p, (0, 0, 1), 10**30) == (0, 0, 10**30)
    assert nf_power(p, (0, 1, 1), -(10**30)) == (0, -(10**30), -(10**30))
    images = p._squares[(0, 1)][0]  # conjugation by a on <b, c>
    assert p._act(images, (0, 5, -7), 1) == (0, 5, -22)
    assert p._invert((0, 5, -7), 1) == (0, -5, 7)
    assert p._power((0, 5, -7), 10**30, 1) == (0, 5 * 10**30, -7 * 10**30)
    assert len(calls) == 0
    # below an abelian top that x_l^a acts on by an involution, a power is
    # t and its image summed: (g^a h^b)^e with g h g^-1 = h^-1
    klein = pc_presentation(("g", "h"), {(0, 1): ((1, -1),)})
    calls = _count_products(klein)
    e = 10**30 + 1
    assert nf_power(klein, (1, 7), e) == (e, 7)
    assert nf_power(klein, (2, 7), e) == (2 * e, 7 * e)
    assert nf_power(klein, (3, 7), -e) == (-3 * e, 7)
    assert len(calls) == 0
