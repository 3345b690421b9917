"""Depth-3 verdicts read off witness families.

classify_tower proves each flat witness chain once per sign pattern and
lift parity, on the family tower E^ whose extra generator mu stands for
n^m, and checks once per nil case that the built extension under the
catalogue's names is Delta(-k) or Gamma(k).  These tests hold the
specialised maps to the per-k chain that classify_tower used to compose
and check for every verdict: the same normal forms, and a per-k
verify_isomorphism that passes.  Broken families must be refused, and
a warm verdict must run no per-k check."""

import hashlib
import json
import random
from copy import copy
from pathlib import Path

import pytest

from conftest import PATTERNS, reduction_at
from identification_oracle import specialise

from nilbott import polycyclic, towers
from nilbott.catalogue import base_identification, catalogue_pc, nil_family
from nilbott.polycyclic import verify_homomorphism, verify_isomorphism
from nilbott.towers import (
    TowerSpec,
    VerificationError,
    _family,
    _fold,
    _normalize_case,
    build_tower_groups,
    classify_tower,
)

_rng = random.Random("witness-families")
#: |k| <= 100, the 64-bit boundary and two 4000-digit integers
ORACLE_KS = list(range(-100, 101)) + [2**64 + 1, -(2**64 + 1), 10**3999 + 7, -(10**3999 + 8)]
#: the speed property's integers: the 64-bit boundary and 4000 digits
BIG_KS = (2**64 + 1, -(2**64 + 1), 10**3999 + 7, -(10**3999 + 8))


def _kind(base):
    return "klein" if base == "K" else "torus"


def per_k_chain(base, signs, k):
    """(target, fwd, bwd) as classify_tower composed and checked them for
    each verdict before the families: the case swap, the reduction to
    lift k mod 2 and the identification, composed by _fold; Delta(-k) and
    Gamma(k) are catalogue_pc's own build with identity maps."""
    ext = build_tower_groups(TowerSpec.depth3(base, signs, k))[2]
    case, sign, fwd, bwd = _normalize_case(_kind(base), signs)
    k = sign * k
    if k and case in (3, 5):
        label, _, lift, _ = nil_family(case)
        identity = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        return catalogue_pc(label, lift * k), identity, identity
    if case not in (3, 5) and k % 2 != k:
        red_fwd, red_bwd = reduction_at(case, k, k % 2)
        fwd, bwd, k = fwd + [red_fwd], [red_bwd] + bwd, k % 2
    _, target, id_fwd, id_bwd = base_identification(case, k)
    return target, _fold(target, fwd + [id_fwd]), _fold(ext, [id_bwd] + bwd)


@pytest.mark.parametrize("base,signs", PATTERNS)
def test_verdicts_are_the_per_k_chain(base, signs):
    for k in ORACLE_KS:
        spec = TowerSpec.depth3(base, signs, k)
        v = classify_tower(spec)
        ext = build_tower_groups(spec)[2]
        target, fwd, bwd = per_k_chain(base, signs, k)
        assert v.witness_fwd == {n: target.nf_str(x) for n, x in zip(ext.names, fwd)}, k
        assert v.witness_bwd == {n: ext.nf_str(x) for n, x in zip(target.names, bwd)}, k
        assert verify_isomorphism(ext, target, fwd, bwd), (base, signs, k)


#: the flat families: every flat pattern at both parities, and the nil
#: patterns at lift 0
FAMILIES = [
    (base, signs, r)
    for base, signs in PATTERNS
    for r in (0, 1)
    if r == 0 or (base, signs) not in (("K", (-1, 1)), ("T2", (1, 1)))
]


@pytest.mark.parametrize("base,signs,r", FAMILIES)
def test_specialisations_are_homomorphisms(base, signs, r):
    # sigma_m: E^ -> E_k fixes g, h, n and sends mu to n^m; tau_m: T^ ->
    # target fixes the target's generators and sends nu to c^m
    family = _family(_kind(base), signs, r)
    assert family.holds
    t = family.target
    c = family.fwd[2][:3]
    ms = [0, 1, -1, 2, -7, 2**64 + 1] + [_rng.randrange(-10**40, 10**40) for _ in range(6)]
    # the nil patterns' only flat lift is 0, so their family is read at m = 0
    for m in ms if family.case not in (3, 5) else [0]:
        k = family.sign * (r + 2 * m)
        ext = build_tower_groups(TowerSpec.depth3(base, signs, k))[2]
        sigma = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, m)]
        assert verify_homomorphism(family.source, ext, sigma), (m, k)
        tau = [t._unit(j) for j in range(3)] + [t._power(c, m)]
        assert verify_homomorphism(family.target_hat, t, tau), m


@pytest.mark.parametrize("base,signs,r", FAMILIES)
def test_one_step_specialisation_matches_collection(base, signs, r):
    # _specialise reads tau_m(F^(x)) as F^(x)[:3] + m e c, e the nu
    # exponent; the oracle collects c^(m e) and the product in the target,
    # on a seeded box of m, on |k| about 10^30 and on 4000-digit k
    family = _family(_kind(base), signs, r)
    rng = random.Random(f"one-step-{base}-{signs}-{r}")
    ms = list(range(-25, 26)) + [rng.randrange(-10**6, 10**6) for _ in range(50)]
    big = [10**30 + rng.randrange(10**6) for _ in range(20)]
    huge = [rng.randrange(10**3999, 10**4000 - 1) for _ in range(6)]
    ks = [family.sign * (r + 2 * m) for m in ms]
    ks += [sign * (x + (x - r) % 2) for x in big + huge for sign in (1, -1)]
    for k in ks:
        assert k % 2 == r
        assert towers._specialise(family, k) == specialise(family, k), k


@pytest.mark.parametrize("case", [3, 5])
def test_nil_family_specialises_to_the_catalogue_group(case):
    # nu -> c^k sends the catalogue's family tower onto label(k)
    label, _, _, family = nil_family(case)
    for k in [1, -1, 2, 17, -(2**64 + 1), 10**3999 + 7]:
        images = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, k)]
        assert verify_homomorphism(family, catalogue_pc(label, k), images), k
    assert towers._nil_family_holds(case)


def _shear_nu(monkeypatch):
    # the reduction sends the moved generator to x nu^2 instead of x nu
    original = towers.reduction_maps

    def sheared(case):
        fwd, bwd = original(case)
        return tuple(v[:3] + (2 * v[3],) if v[3] and i < 3 else v for i, v in enumerate(fwd)), bwd

    monkeypatch.setattr(towers, "reduction_maps", sheared)
    return [("K", (1, 1), 0), ("K", (1, -1), 1), ("T2", (-1, 1), 1)]


def _wrong_identification(monkeypatch):
    # n -> u v in place of the paper's u^2 v
    from nilbott import catalogue

    monkeypatch.setitem(catalogue._IDENTIFICATIONS, (1, 1), ("B2", ("e", "u", "u v"), ("g", "h", "h^-2 n")))
    return [("K", (1, 1), 1)]


def _swap_g_h(monkeypatch):
    # the case swap sends g to g h instead of g h^-1
    original = towers.case_swap_maps

    def swapped(case):
        fwd, bwd = original(case)
        return ((1, 1, 0),) + tuple(fwd[1:]), bwd

    monkeypatch.setattr(towers, "case_swap_maps", swapped)
    return [("K", (-1, -1), 0), ("T2", (-1, -1), 1)]


def _c_below_abelian_top(monkeypatch):
    # the target collects level by level, so c = F^(n) = (0, 2, 1) or
    # (0, 1, 0) lies below its abelian top and adding m e c is not tau_m
    original = towers.base_identification

    def lowered(case, r):
        label, target, fwd, bwd = original(case, r)
        target = copy(target)
        target._abelian = [False] * (target.ngens - 1) + [True]
        return label, target, fwd, bwd

    monkeypatch.setattr(towers, "base_identification", lowered)
    return [("K", (1, 1), 1), ("T2", (1, -1), 0), ("T2", (-1, 1), 0)]


def _mu_tail_one(monkeypatch):
    # E^ gets the tail mu in place of mu^2 on the rule of g and h
    original = towers.build_extension

    def halved(base, phi, lifts, name):
        if name == "mu":
            lifts = [lifts[0] // 2] + list(lifts[1:])
        return original(base, phi, lifts, name)

    monkeypatch.setattr(towers, "build_extension", halved)
    return [("K", (1, 1), 0), ("K", (-1, -1), 1), ("T2", (-1, 1), 0)]


@pytest.mark.parametrize(
    "mutate", [_shear_nu, _wrong_identification, _swap_g_h, _c_below_abelian_top, _mu_tail_one]
)
def test_broken_families_are_refused(mutate, monkeypatch, fresh_families):
    for base, signs, r in mutate(monkeypatch):
        assert not _family(_kind(base), signs, r).holds, (base, signs, r)
        for k in (r, r + 2, r - 10**30):
            with pytest.raises(VerificationError, match="failed verification$"):
                classify_tower(TowerSpec.depth3(base, signs, k))


def test_warm_depth3_verdict_runs_no_per_k_check(monkeypatch):
    # once the families are built, a verdict composes no chain (_fold),
    # checks no generator map between two groups (verify_isomorphism) and
    # evaluates no rule (_broken_rule): the von Dyck passes run once per
    # family, and the level check of the extension's own build has no base
    # rule above any level of a depth-3 tower, where the fiber rules
    # follow from the twist
    specs = [TowerSpec.depth3(base, signs, k) for base, signs in PATTERNS for k in BIG_KS]
    for spec in specs:
        classify_tower(spec)
    calls = {"verify_isomorphism": 0, "_broken_rule": 0, "_fold": 0}
    original_broken = polycyclic._broken_rule

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    def counted_broken(*args):
        calls["_broken_rule"] += 1
        return original_broken(*args)

    monkeypatch.setattr(towers, "verify_isomorphism", counted("verify_isomorphism", verify_isomorphism))
    monkeypatch.setattr(towers, "_fold", counted("_fold", towers._fold))
    monkeypatch.setattr(polycyclic, "_broken_rule", counted_broken)
    verdicts = [classify_tower(spec) for spec in specs]
    assert calls == {"verify_isomorphism": 0, "_broken_rule": 0, "_fold": 0}
    assert len({v.label for v in verdicts}) == 4 + 2 * len(BIG_KS)


GOLDEN_4000 = Path(__file__).parent / "golden" / "classify_4000_digit_sha256.json"


def test_4000_digit_witnesses_match_their_golden_hashes():
    # the classify --json witness of every pattern at k = 10^3999 and
    # 10^3999 + 1, hashed as the CI step hashes it
    golden = json.loads(GOLDEN_4000.read_text())["sha256"]
    assert len(golden) == 16
    for key, digest in golden.items():
        stage2, phi, parity = key.split()
        signs = tuple(int(item.split(":")[1]) for item in phi.split(","))
        base = "K" if stage2 == "-1" else "T2"
        verdict = classify_tower(TowerSpec.depth3(base, signs, 10**3999 + int(parity)))
        text = json.dumps(verdict.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, key
