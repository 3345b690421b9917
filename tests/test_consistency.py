"""The per-level consistency check against the signed-triple oracle, and
the inherited assembly of extensions against the rule-text constructor."""

import random
import sys
from contextlib import contextmanager
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pc_oracle
import signed_triples as oracle
from conftest import PATTERNS
from nilbott import towers
from nilbott.polycyclic import PcPresentation, consistency_check, nf_to_word
from nilbott.towers import (
    ExtensionError,
    Stage,
    TowerSpec,
    build_extension,
    build_tower_groups,
)
from nilbott.words import Word, gen

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import make_pass  # noqa: E402


def _random_presentation(rng):
    """3-6 generators; each rule x_j^+-1 followed by a sparse random tail."""
    m = rng.randint(3, 6)
    conj = {}
    for i in range(m):
        for j in range(i + 1, m):
            sylls = [(j, rng.choice((1, -1)))]
            for t in range(j + 1, m):
                if rng.random() < 0.3:
                    sylls.append((t, rng.choice((1, -1, 2, -2))))
            conj[(i, j)] = Word(tuple(sylls))
    return pc_oracle.pc_presentation([f"x{t}" for t in range(m)], conj)


def test_verdicts_match_oracle_on_random_presentations():
    rng = random.Random("consistency")
    verdicts = []
    for _ in range(200):
        p = _random_presentation(rng)
        ok = pc_oracle.check(p).ok
        assert ok == oracle.check(p).ok, [p.rule_str(i, j) for (i, j), _ in p.positive_rules()]
        verdicts.append(ok)
    # both outcomes are common: 92 of these 200 are consistent
    assert 40 < sum(verdicts) < 160




def _deep_tower(rng, depth):
    """A random tower as the towers-small benchmark draws them: random
    signs, and lifts that are 0 with probability 0.7, else +-1."""
    base, signs = rng.choice(PATTERNS)
    stages = list(TowerSpec.depth3(base, signs, rng.randint(-16, 16)).stages)
    for dim in range(4, depth + 1):
        n = dim - 1
        phi = tuple(rng.choice((1, -1)) for _ in range(n))
        lifts = tuple(
            0 if rng.random() < 0.7 else rng.choice((1, -1))
            for _ in range(n * (n - 1) // 2)
        )
        stages.append(Stage(dim, phi, lifts))
    return TowerSpec(tuple(stages))


def test_verdicts_match_oracle_on_deep_towers(monkeypatch):
    verdicts = []

    def both(p):
        result = consistency_check(p)
        assert result.ok == oracle.check(p).ok, p
        verdicts.append(result.ok)
        return result

    monkeypatch.setattr("nilbott.polycyclic.consistency_check", both)
    rng = random.Random("towers-small")
    for depth in [4] * 12 + [5] * 12:
        try:
            build_tower_groups(_deep_tower(rng, depth))
        except (ValueError, ExtensionError):
            pass
    assert True in verdicts and False in verdicts


def test_assembly_defect_rejected_by_both():
    names = ("g", "n")
    p = pc_oracle.pc_presentation(names, {(0, 1): Word(((1, 2),))})
    new, old = pc_oracle.check(p), oracle.check(p)
    assert not new.ok and not old.ok
    assert new.detail == old.detail == "conjugation by g is not invertible at n"


def test_failure_names_the_rule():
    # g inverts n and fixes h and m, while h n h^-1 = n m
    p = pc_oracle.pc_presentation(
        ("g", "h", "n", "m"), {(0, 2): Word(((2, -1),)), (1, 2): Word(((2, 1), (3, 1)))}
    )
    assert p._defects == []
    result = consistency_check(p)
    assert not result.ok and not oracle.check(p).ok
    assert result.witness == (gen(0), gen(1), gen(2))
    assert result.detail == (
        "conjugation by g does not respect h n h^-1 = n m: n^-1 m^-1 vs n^-1 m"
    )


# -- inherited assembly of extensions ---------------------------------------


def _assembled(base, name, signs, lifts):
    """The extension of build_extension as the rule-text constructor
    assembles it: each base rule as the word z^k w, collected again, and
    every inverse rule solved triangularly."""
    fiber = base.ngens
    conj = {
        ij: gen(fiber, k) * nf_to_word(w)
        for (ij, w), k in zip(base.positive_rules(), lifts)
    }
    conj.update({(i, fiber): gen(fiber, s) for i, s in enumerate(signs)})
    return pc_oracle.pc_presentation(base.names + (name,), conj)


def _verdict(p):
    result = pc_oracle.check(p)
    return result.ok, result.detail, result.witness


def _same_extension(new, old):
    """Assert that the two routes agree and return the verdict: always the
    same names, positive rules and consistency verdict; on a consistent
    extension also the same inverse rules, flags and conjugation images."""
    verdict = _verdict(new)
    assert verdict == _verdict(old)
    assert new.names == old.names and old._defects == []
    assert dict(new.positive_rules()) == dict(old.positive_rules())
    if verdict[0]:
        pc_oracle.assert_same_group(new, old)
    return verdict[0]


@contextmanager
def _cross_checked():
    """Every extension built inside is checked against _assembled; yields
    the list of their consistency verdicts."""
    extend = PcPresentation._extend
    verdicts = []

    def checked(cls, base, name, signs, lifts):
        new = extend(base, name, signs, lifts)
        verdicts.append(_same_extension(new, _assembled(base, name, signs, lifts)))
        return new

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PcPresentation, "_extend", classmethod(checked))
        towers._low_stages.cache_clear()  # so that stage 2 is built here too
        yield verdicts


def _build(spec):
    try:
        build_tower_groups(spec)
    except (ValueError, ExtensionError):
        pass


@pytest.mark.parametrize("seed", [1, 7])
def test_extend_matches_assembly_on_benchmark_towers(seed):
    specs = dict.fromkeys(item.spec for item in make_pass("towers-small", seed))
    with _cross_checked() as verdicts:
        for spec in specs:
            _build(spec)
    # accepted and rejected extensions are both common
    assert verdicts.count(True) > 300 and verdicts.count(False) > 50


def _parity(v, signs):
    """The sign of the normal form v under x_t -> signs[t]."""
    return -1 if sum(e for e, s in zip(v, signs) if s == -1) % 2 else 1


#: mostly zero, as in the benchmark, so that depth 5 is often reached
_LIFTS = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -3))


@st.composite
def _deep_towers(draw):
    """Depth-4/5 towers; each deeper twist is the first of a drawn order
    of all sign tuples that is a homomorphism on the stage below, when
    that stage is consistent."""
    base, signs = draw(st.sampled_from(PATTERNS))
    stages = list(TowerSpec.depth3(base, signs, draw(st.integers(-40, 40))).stages)
    for dim in range(4, draw(st.integers(4, 5)) + 1):
        n = dim - 1
        phis = draw(st.permutations(list(product((1, -1), repeat=n))))
        try:
            below = build_tower_groups(TowerSpec(tuple(stages)))[-1]
        except ExtensionError:
            phi = phis[0]
        else:
            rules = list(below.positive_rules())
            phi = next(
                phi for phi in phis
                if all(phi[j] == _parity(w, phi) for (_, j), w in rules)
            )
        lifts = tuple(draw(_LIFTS) for _ in range(n * (n - 1) // 2))
        stages.append(Stage(dim, phi, lifts))
    return TowerSpec(tuple(stages))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=_deep_towers())
def test_extend_matches_assembly_on_random_towers(spec):
    with _cross_checked():
        _build(spec)


def test_extend_rejects_inconsistent_bases_like_assembly():
    rng = random.Random("inherited assembly")
    checked = 0
    while checked < 120:
        base = _random_presentation(rng)
        if base._defects or consistency_check(base).ok:
            continue
        signs = tuple(rng.choice((1, -1)) for _ in range(base.ngens))
        if any(signs[j] != _parity(w, signs) for (_, j), w in base.positive_rules()):
            signs = (1,) * base.ngens
        lifts = [rng.choice((-1, 0, 1)) for _ in base.positive_rules()]
        with pytest.raises(ExtensionError) as err:
            build_extension(base, signs, lifts, "z")
        ok, detail, witness = _verdict(_assembled(base, "z", signs, lifts))
        assert not ok
        assert str(err.value) == f"lift data is not a cocycle: {detail}"
        assert err.value.witness == witness
        checked += 1
