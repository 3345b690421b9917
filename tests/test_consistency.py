"""The per-level consistency check against the signed-triple oracle."""

import random

import signed_triples as oracle
from conftest import PATTERNS
from nilbott.polycyclic import PcPresentation, consistency_check
from nilbott.towers import ExtensionError, Stage, TowerSpec, build_tower_groups
from nilbott.words import Word, gen


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
    return PcPresentation([f"x{t}" for t in range(m)], conj)


def test_verdicts_match_oracle_on_random_presentations():
    rng = random.Random("consistency")
    verdicts = []
    for _ in range(200):
        p = _random_presentation(rng)
        ok = consistency_check(p).ok
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

    monkeypatch.setattr("nilbott.towers.consistency_check", both)
    rng = random.Random("towers-small")
    for depth in [4] * 12 + [5] * 12:
        try:
            build_tower_groups(_deep_tower(rng, depth))
        except (ValueError, ExtensionError):
            pass
    assert True in verdicts and False in verdicts


def test_assembly_defect_rejected_by_both():
    names = ("g", "n")
    p = PcPresentation(names, {(0, 1): Word(((1, 2),))})
    new, old = consistency_check(p), oracle.check(p)
    assert not new.ok and not old.ok
    assert new.detail == old.detail == "conjugation by g is not invertible at n"


def test_failure_names_the_rule():
    # g inverts n and fixes h and m, while h n h^-1 = n m
    p = PcPresentation(
        ("g", "h", "n", "m"), {(0, 2): Word(((2, -1),)), (1, 2): Word(((2, 1), (3, 1)))}
    )
    result = consistency_check(p)
    assert not result.ok and not oracle.check(p).ok
    assert result.witness == (gen(0), gen(1), gen(2))
    assert result.detail == (
        "conjugation by g does not respect h n h^-1 = n m: n^-1 m^-1 vs n^-1 m"
    )
