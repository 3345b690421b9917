"""Holonomy, orientation, Betti numbers, torus rank, homological
injectivity and the binomial bounds for the 3-dimensional catalogue
manifolds.

Holonomy and orientation are read off the tower's twist signs, with no
model: in the triangular model (geometry.seifert_model) generator x_i acts
on each later fiber x_j with the sign s_ij of its rule on the diagonal, so
the diagonal sign matrices, which commute and square to the identity, are
the holonomy; for a finite-type tower they are the whole linear parts.
For Delta(k) and Gamma(k) the same count gives the order of the group of
diagonal signs of their models, 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, prod

from .catalogue import catalogue_pc, FLAT_LABELS
from .exact import IntMatrix, rank
from .polycyclic import PcPresentation, center, pc_abelianization, relation_rows


def _stage_signs(group: PcPresentation):
    """Per generator x_i, the signs s_ij of the later fibers x_j in its
    rules x_i x_j x_i^-1."""
    n = group.ngens
    return [[group.rule(i, j)[j] for j in range(i + 1, n)] for i in range(n)]


def holonomy_order(group: PcPresentation) -> int:
    """The order of the holonomy group, elementary abelian of order 2^r
    with r the F2 rank of the generators' sign vectors."""
    basis = []
    for signs in _stage_signs(group):
        # the sign vector as a bit mask of its -1 entries, last fiber lowest
        v = 0
        for s in signs:
            v = 2 * v + (s < 0)
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return 2 ** len(basis)


def orientable(group: PcPresentation) -> bool:
    """Every generator's stage signs multiply to +1."""
    return all(prod(signs) == 1 for signs in _stage_signs(group))


def betti_numbers(group: PcPresentation) -> tuple[int, int, int, int]:
    """Integral Betti numbers (b0..b3) of the closed 3-manifold quotient."""
    if group.ngens != 3:
        raise ValueError("betti numbers need a 3-dimensional group")
    b1, _ = pc_abelianization(group)
    b3 = 1 if orientable(group) else 0
    b2 = b1 + b3 - 1  # Euler characteristic zero pins the remaining number
    return (1, b1, b2, b3)


def homological_injectivity_check(group: PcPresentation, central: list) -> bool:
    """The centre, given by a basis of normal forms, injects into the free
    part of the first homology: the basis stays independent over Q modulo
    the relators of the abelianization (relation_rows), whose rank is
    ngens - b1, so appending it to them raises their rank by its size."""
    if not central:
        return True
    b1, _ = pc_abelianization(group)
    return rank(IntMatrix(relation_rows(group) + central)) == group.ngens - b1 + len(central)


def halperin_carlsson_check(betti, s: int):
    """Binomial bounds for an effective rank-s torus action: C(s, j) <= b_j
    for all j and 2^s <= sum(b_j).  Returns (pass, margins, sum_margin)."""
    margins = [betti[j] - comb(s, j) for j in range(len(betti))]
    sum_margin = sum(betti) - 2 ** s
    return all(x >= 0 for x in margins) and sum_margin >= 0, margins, sum_margin


@dataclass
class InvariantReport:
    label: str
    k: int | None
    type: str
    h1: tuple[int, tuple[int, ...]]
    holonomy_order: int
    holonomy_is_elementary_2: bool
    orientable: bool
    betti: tuple[int, int, int, int]
    center_rank: int
    hom_inj_pass: bool | None
    hc_pass: bool | None
    hc_margins: list = field(default_factory=list)

    def to_dict(self):
        return {
            "label": self.label,
            "k": self.k,
            "type": self.type,
            "h1_rank": self.h1[0],
            "h1_torsion": list(self.h1[1]),
            "holonomy_order": self.holonomy_order,
            "holonomy_is_elementary_2": self.holonomy_is_elementary_2,
            "orientable": self.orientable,
            "betti": list(self.betti),
            "center_rank": self.center_rank,
            "hom_inj_pass": self.hom_inj_pass,
            "hc_pass": self.hc_pass,
            "hc_margins": list(self.hc_margins),
        }


def catalogue_report(label: str, k: int | None = None) -> InvariantReport:
    """Full invariant bundle for a 3-dimensional catalogue entry."""
    group = catalogue_pc(label, k)
    if group.ngens != 3:
        raise ValueError("invariant reports cover the 3-dimensional entries")
    rank_h1, torsion = pc_abelianization(group)
    betti = betti_numbers(group)
    central = center(group)
    s = len(central)  # the rank of C(pi), the torus rank
    finite = label in FLAT_LABELS or (label == "Delta" and k == 0)
    hom_inj = None
    hc = None
    margins = []
    if finite:
        hom_inj = homological_injectivity_check(group, central)
        hc, margins, sum_margin = halperin_carlsson_check(betti, s)
        margins = margins + [sum_margin]
    return InvariantReport(
        label=label,
        k=k,
        type="finite" if finite else "infinite",
        h1=(rank_h1, tuple(torsion)),
        holonomy_order=holonomy_order(group),
        holonomy_is_elementary_2=True,  # diagonal signs, see the module docstring
        orientable=orientable(group),
        betti=betti,
        center_rank=s,
        hom_inj_pass=hom_inj,
        hc_pass=hc,
        hc_margins=margins,
    )
