"""The catalogue groups, each built as a tower by build_extension, against
the groups that the oracle constructor assembles from the paper's rule
text.  The identification checks of the classifier map built extensions
onto these groups, so they have content only if the towers are the
paper's groups.

The witness maps are normal forms; each must be the collected form of
the word map it stands for, in the group its images live in."""

import random

import pytest

from conftest import base_group, case_extension, collected, reduction_at
from identification_oracle import base_identification as identification
from pc_oracle import assert_same_group, from_rule_text

from nilbott.catalogue import (
    EXT,
    FLAT_LABELS,
    base_identification,
    case_swap_maps,
    catalogue_pc,
)
from nilbott.invariants import catalogue_report
from nilbott.polycyclic import build_extension
from nilbott.towers import _normalize_case
from nilbott.words import gen, parse_word

#: the groups that do not depend on k: label -> (generator names, rules
#: x_i x_j x_i^-1 = w; pairs not listed commute)
RULE_TEXTS = {
    "S1": (("t",), {}),
    "T2": (("a", "b"), {}),
    "K": (("g", "h"), {(0, 1): "h^-1"}),
    "T3": (("t1", "t2", "t3"), {}),
    "G2": (("a", "t2", "t3"), {(0, 1): "t2^-1", (0, 2): "t3^-1"}),
    "B1": (("e", "t2", "t3"), {(0, 1): "t2^-1", (0, 2): "t3"}),
    "B2": (("e", "u", "v"), {(0, 1): "u v", (0, 2): "v^-1"}),
    "B3": (("a", "e", "t"), {(0, 1): "e^-1", (0, 2): "t^-1", (1, 2): "t^-1"}),
    "B4": (("a", "e", "t"), {(0, 1): "e^-1 t", (0, 2): "t^-1", (1, 2): "t^-1"}),
}


def nil_rule_text(label, k):
    """Delta(k): [a, b] = c^-k with c central; Gamma(k): a inverts n and
    a b a^-1 = n^k b^-1."""
    if label == "Delta":
        return ("a", "b", "c"), {(0, 1): f"b c^{-k}", (0, 2): "c", (1, 2): "c"}
    return ("a", "b", "n"), {(0, 1): f"n^{k} b^-1", (0, 2): "n^-1", (1, 2): "n"}


NIL_KS = list(range(-60, 61)) + [10**30, -(10**30), 2**200 + 1]


def test_rule_texts_cover_the_catalogue():
    assert set(FLAT_LABELS) < set(RULE_TEXTS)


@pytest.mark.parametrize("label", sorted(RULE_TEXTS))
def test_fixed_group_is_the_rule_text_group(label):
    assert_same_group(catalogue_pc(label), from_rule_text(*RULE_TEXTS[label]))


@pytest.mark.parametrize("label", ["Delta", "Gamma"])
def test_nil_group_is_the_rule_text_group(label):
    for k in NIL_KS:
        if label == "Gamma" and k == 0:
            continue
        assert_same_group(catalogue_pc(label, k), from_rule_text(*nil_rule_text(label, k)))


@pytest.mark.parametrize(
    "label,k",
    [("Delta", None), ("Gamma", None), ("Gamma", 0), ("B5", None), ("B2", 9), ("T3", "junk"),
     ("B1", 0)],
)
def test_catalogue_refuses_missing_k_and_unknown_labels(label, k):
    for build in (catalogue_pc, catalogue_report):
        with pytest.raises(ValueError):
            build(label, k)


#: lift integers of the witness map checks: a seeded range, the 64-bit
#: boundary and 4000-digit integers
_rng = random.Random("witness-maps")
MAP_KS = (
    list(range(-6, 7))
    + [_rng.randrange(-10**12, 10**12) for _ in range(24)]
    + [2**64 + 1, -(2**64 + 1), 10**3999 + 7, -(10**3999 + 8)]
)


def _texts(p, texts, names=EXT):
    """The normal forms in p of words given as text over names."""
    return collected(p, [parse_word(t, names) for t in texts])


@pytest.mark.parametrize("case", [1, 2, 6])
def test_reduction_maps_are_the_collected_words(case):
    # h -> n^m h (case 1) or g -> n^m g (cases 2, 6), from the k-group into
    # the r-group, and n^-m back: the family maps with n^m for mu and nu
    for k in MAP_KS:
        r = k % 2
        m = (k - r) // 2
        fwd, bwd = reduction_at(case, k, r)
        moved = 1 if case == 1 else 0
        words = [gen(0), gen(1), gen(2)]
        words[moved] = gen(2, m) * gen(moved)
        assert list(fwd) == collected(case_extension(case, r), words), (case, k)
        words[moved] = gen(2, -m) * gen(moved)
        assert list(bwd) == collected(case_extension(case, k), words), (case, k)


@pytest.mark.parametrize("case,swapped", [(4, 2), (7, 6)])
def test_case_swap_maps_are_the_collected_words(case, swapped):
    fwd, bwd = case_swap_maps(case)
    for k in MAP_KS:
        assert list(fwd) == _texts(case_extension(swapped, k), ("g h^-1", "h", "n")), k
        assert list(bwd) == _texts(case_extension(case, k), ("g h", "h", "n")), k


def test_torus_swap_is_the_collected_words():
    # the torus pattern (-1, +1) becomes case 6 with the lift negated
    for k in MAP_KS:
        case, sign, (fwd,), (bwd,) = _normalize_case("torus", (-1, 1))
        k6 = sign * k
        assert (case, k6) == (6, -k)
        assert list(fwd) == _texts(case_extension(6, -k), ("h", "g", "n")), k
        ext = build_extension(base_group(5), (-1, 1), [k], "n")
        assert list(bwd) == _texts(ext, ("h", "g", "n")), k


#: the paper's identifications: (case, k) -> (label, images of g, h, n in
#: the target, images of the target's generators over g, h, n)
PAPER_IDENTIFICATIONS = {
    (1, 0): ("B1", ("e", "t2", "t3"), ("g", "h", "n")),
    (1, 1): ("B2", ("e", "u", "u^2 v"), ("g", "h", "h^-2 n")),
    (2, 0): ("B3", ("e a", "e^-1", "t"), ("h g", "h^-1", "n")),
    (2, 1): ("B4", ("t^-1 e a", "e^-1 t", "t^-1"), ("h g", "n^-1 h^-1", "n^-1")),
    (3, 0): ("G2", ("a", "t2", "t3"), ("g", "h", "n")),
    (5, 0): ("T3", ("t1", "t2", "t3"), ("g", "h", "n")),
    (6, 0): ("B1", ("t3", "e", "t2"), ("h", "n", "g")),
    (6, 1): ("B2", ("u^-1", "e", "v"), ("h", "g^-1", "n")),
}


@pytest.mark.parametrize("case,k", sorted(PAPER_IDENTIFICATIONS))
def test_flat_identifications_are_the_collected_paper_words(case, k):
    label, fwd_texts, bwd_texts = PAPER_IDENTIFICATIONS[case, k]
    got_label, target, fwd, bwd = base_identification(case, k)
    assert (got_label, target) == (label, catalogue_pc(label))
    assert list(fwd) == _texts(target, fwd_texts, target.names)
    assert list(bwd) == _texts(case_extension(case, k), bwd_texts)


@pytest.mark.parametrize("case,label", [(3, "Gamma"), (5, "Delta")])
def test_nil_identifications_are_the_identity(case, label):
    # Gamma(k) is the case-3 group and Delta(-k) the case-5 group, with
    # their generators renamed
    for k in MAP_KS:
        if k == 0:
            continue
        got_label, target, fwd, bwd = identification(case, k, case_extension(case, k))
        kt = k if case == 3 else -k
        assert got_label == f"{label}({kt})"
        assert list(target.positive_rules()) == list(catalogue_pc(label, kt).positive_rules())
        assert list(fwd) == _texts(target, target.names, target.names)
        assert list(bwd) == _texts(case_extension(case, k), EXT)


@pytest.mark.parametrize("case,k", [(1, 2), (2, -1), (4, 0), (6, 3), (7, 1)])
def test_no_direct_identification(case, k):
    with pytest.raises(ValueError, match="^no direct identification"):
        base_identification(case, k)
