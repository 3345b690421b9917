"""The catalogue groups, each built as a tower by build_extension, against
the groups that the oracle constructor assembles from the paper's rule
text.  The identification checks of the classifier map built extensions
onto these groups, so they have content only if the towers are the
paper's groups."""

import pytest

from pc_oracle import assert_same_group, from_rule_text

from nilbott.catalogue import FLAT_LABELS, catalogue_pc

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


@pytest.mark.parametrize("label,k", [("Delta", None), ("Gamma", None), ("Gamma", 0), ("B5", None)])
def test_catalogue_refuses_missing_k_and_unknown_labels(label, k):
    with pytest.raises(ValueError):
        catalogue_pc(label, k)
