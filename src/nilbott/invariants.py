"""Holonomy, Betti numbers, torus rank, homological injectivity and the
binomial bounds for the 3-dimensional catalogue manifolds."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import comb, prod

from .catalogue import catalogue_pc, central_words, FLAT_LABELS
from .exact import IntMatrix, smith_normal_form, solve_fixed_lattice, rank
from .geometry import FlatAffineMap, HeisAffineMap, catalogue_representation
from .polycyclic import (
    PcPresentation,
    collect,
    nf_multiply,
    pc_abelianization,
    relation_rows,
)


HOLONOMY_GUARD = 64


def holonomy(rep: list):
    """Closure of the linear (or rotation) parts of the generator maps.

    Returns (order, elementary-2 flag, elements).  The closure is finite
    for catalogue inputs; exceeding the guard bound signals garbage.
    """
    if all(isinstance(m, FlatAffineMap) for m in rep):
        gens = [m.lin for m in rep]
        ident = IntMatrix.identity(rep[0].dim)
    elif all(isinstance(m, HeisAffineMap) for m in rep):
        gens = [m.aut for m in rep]
        ident = rep[0].aut * rep[0].aut.inverse()
    else:
        raise ValueError("mixed or unknown representation kind")
    closure = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in closure:
                    closure.add(y)
                    nxt.append(y)
                    if len(closure) > HOLONOMY_GUARD:
                        raise ValueError("holonomy closure exceeded guard bound")
        frontier = nxt
    elementary = all(x * x == ident for x in closure)
    return len(closure), elementary, sorted(closure, key=repr)


def _orientable(rep: list) -> bool:
    if all(isinstance(m, HeisAffineMap) for m in rep):
        return True  # nil-type quotients in scope preserve orientation
    return all(_orientation(m) == 1 for m in rep)


def _orientation(m: FlatAffineMap) -> int:
    """The determinant of m's linear part, a signed permutation: the
    product of its signs times the sign of the permutation,
    (-1)^(inversions)."""
    perm = m.perm
    inversions = sum(p > q for i, p in enumerate(perm) for q in perm[i + 1:])
    return prod(m.signs) * (-1) ** inversions


def betti_numbers(group: PcPresentation, rep: list) -> tuple[int, int, int, int]:
    """Integral Betti numbers (b0..b3) of the closed 3-manifold quotient."""
    if not (
        all(isinstance(m, HeisAffineMap) for m in rep)
        or all(m.dim == 3 for m in rep)
    ):
        raise ValueError("betti numbers need a 3-dimensional representation")
    b1, _ = pc_abelianization(group)
    b3 = 1 if _orientable(rep) else 0
    b2 = b1 + b3 - 1  # Euler characteristic zero pins the remaining number
    return (1, b1, b2, b3)


def center_rank(p: PcPresentation, box: int = 2) -> int:
    """Rank of the center, by exact centralizer equations sampled on the
    normal-form box: a vector is central iff it commutes with every
    generator."""
    central = []
    units = [p._unit(i) for i in range(p.ngens)]
    for vec in product(range(-box, box + 1), repeat=p.ngens):
        if not any(vec):
            continue
        if all(nf_multiply(p, vec, u) == nf_multiply(p, u, vec) for u in units):
            central.append(list(vec))
    if not central:
        return 0
    return rank(IntMatrix(central))


def torus_rank(group: PcPresentation, rep: list) -> int:
    """Rank of the maximal torus action: the holonomy-fixed sublattice rank
    for the flat groups, the center rank for the nil-type ones."""
    if all(isinstance(m, FlatAffineMap) for m in rep):
        return solve_fixed_lattice([m.lin for m in rep])
    return center_rank(group)


def _h1_free_projection(p: PcPresentation):
    """Map from exponent vectors onto free coordinates of the
    abelianization: returns (project, free_rank)."""
    rows = relation_rows(p)
    m = p.ngens
    if not rows:
        return (lambda v: list(v)), m
    cols = IntMatrix(rows).transpose()  # columns span the relation lattice
    d, u, _ = smith_normal_form(cols)
    free_idx = [i for i in range(m) if i >= len(d) or d[i] == 0]

    def project(v):
        image = u.apply(tuple(v))
        return [image[i] for i in free_idx]

    return project, len(free_idx)


def homological_injectivity_check(group: PcPresentation, central: list) -> bool:
    """The central lattice must inject into the first homology with image of
    full rank; the saturated image is then a direct summand, certified by
    an all-units Smith form."""
    if not central:
        return True
    project, free_rank = _h1_free_projection(group)
    vectors = [project(collect(group, w)) for w in central]
    k = len(vectors)
    if free_rank < k:
        return False
    f = IntMatrix(vectors)
    if rank(f) != k:
        return False
    # saturate the image lattice and certify it is a summand
    _, _, v = smith_normal_form(f)
    vinv = _unimodular_inverse(v)
    saturated = [vinv.entries[i] for i in range(k)]
    ds, _, _ = smith_normal_form(IntMatrix(saturated))
    return ds == [1] * k


def _unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular matrix: u m v = I gives m^-1 = v u."""
    d, u, v = smith_normal_form(m)
    if any(x != 1 for x in d):
        raise ValueError("matrix is not unimodular")
    return v * u


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
    rep = catalogue_representation(label, k)
    if group.ngens != 3:
        raise ValueError("invariant reports cover the 3-dimensional entries")
    rank_h1, torsion = pc_abelianization(group)
    order, elem2, _ = holonomy(rep)
    betti = betti_numbers(group, rep)
    s = torus_rank(group, rep)
    finite = label in FLAT_LABELS or (label == "Delta" and k == 0)
    hom_inj = None
    hc = None
    margins = []
    if finite:
        hom_inj = homological_injectivity_check(group, central_words(label, k))
        hc, margins, sum_margin = halperin_carlsson_check(betti, s)
        margins = margins + [sum_margin]
    return InvariantReport(
        label=label,
        k=k,
        type="finite" if finite else "infinite",
        h1=(rank_h1, tuple(torsion)),
        holonomy_order=order,
        holonomy_is_elementary_2=elem2,
        orientable=_orientable(rep),
        betti=betti,
        center_rank=s,
        hom_inj_pass=hom_inj,
        hc_pass=hc,
        hc_margins=margins,
    )
