"""Catalogue of the 3-dimensional target groups and the witness maps that
identify built extensions with them.

Flat labels follow Wolf's naming (G1 = T3, G2, B1..B4); the nil labels are
the Heisenberg lattice Delta(k) and its index-2 extension Gamma(k).  Each
group is a tower over the circle, like every pc group of the engine: a
table gives its generator names and the twist signs and lifts of each
stage, and build_extension builds it.  The identification checks keep
their content because tests/test_catalogue.py compares every group with
the one assembled from the paper's rule text by an independent
constructor.

Every witness map is a list of normal forms, one per generator of its
source.  The case swaps are written as exponent vectors.  The
identifications with the flat groups keep the paper's witness words as
their source text; they are parsed and collected once per (case, k),
into the target and into the case's extension over the shared Klein or
torus base.

A depth-3 verdict is proved once per k-family, not once per k.  The
extensions of one case whose lifts are r + 2m for a fixed r are one more
circle stage: the family tower E^ is the lift-r extension extended by mu,
with the tail mu^2 on the rule of g and h, and mu = n^m turns it into
the lift-(r + 2m) extension (sigma_m: mu -> n^m is onto, with kernel
<mu n^-m>).  reduction_maps gives the k-reduction on the family, with
nu standing for n^m, and towers._family checks the whole chain once on
E^.  Delta(k) and Gamma(k) are the extension under the catalogue's
generator names (nil_family), so their maps are the identity; that this
naming is the catalogue group for every k is checked once per case, on
the family whose mu is n^k, against the catalogue's Delta or Gamma
family tower.
"""

from __future__ import annotations

from functools import cache, lru_cache

from .polycyclic import PcPresentation, build_extension, collect, cyclic_pc, require_integer_k
from .words import parse_word


FLAT_LABELS = ("T3", "G2", "B1", "B2", "B3", "B4")
NIL_LABELS = ("Delta", "Gamma")

#: label -> (generator names, then the (twist signs, lifts) of each stage
#: above the circle).  The stage-3 lifts of Delta and Gamma are those of
#: k = 1; catalogue_pc scales them by k.
_TOWERS = {
    "S1": ("t",),
    "T2": ("a b", ((1,), ())),
    "K": ("g h", ((-1,), ())),
    "T3": ("t1 t2 t3", ((1,), ()), ((1, 1), (0,))),
    # half turn: a t a^-1 = t^-1 on both lattice directions, a^2 central
    "G2": ("a t2 t3", ((-1,), ()), ((-1, 1), (0,))),
    # Klein bottle times circle
    "B1": ("e t2 t3", ((-1,), ()), ((1, 1), (0,))),
    # the other flat Klein-type manifold: the holonomy action on the
    # lattice is a shear-by-involution, not diagonalizable over Z
    "B2": ("e u v", ((1,), ()), ((-1, 1), (1,))),
    "B3": ("a e t", ((-1,), ()), ((-1, -1), (0,))),
    "B4": ("a e t", ((-1,), ()), ((-1, -1), (-1,))),
    # [a, b] = c^-k with c central
    "Delta": ("a b c", ((1,), ()), ((1, 1), (-1,))),
    "Gamma": ("a b n", ((-1,), ()), ((-1, 1), (1,))),
}


def catalogue_pc(label: str, k: int | None = None) -> PcPresentation:
    """Canonical polycyclic presentation of a catalogue group.

    The groups that do not depend on k are built on first use and shared,
    and take no k; Delta(k) and Gamma(k) are built over a shared base on
    first use and shared per (label, k), the most recent 1024 of them.
    """
    if label == "Delta":
        if k is None:
            raise ValueError("Delta needs the twisting integer k")
        require_integer_k(k)  # before the cache, which would take 2.0 for 2
        return _nil_pc(label, k)
    if label == "Gamma":
        if k is not None:
            require_integer_k(k)
        if not k:
            raise ValueError("Gamma needs a nonzero twisting integer k")
        return _nil_pc(label, k)
    p = _fixed_pc(label)
    if k is not None:
        raise ValueError(f"{label} takes no twisting integer k")
    return p


@lru_cache(maxsize=1024)
def _nil_pc(label: str, k: int) -> PcPresentation:
    return _tower(label, k)


@cache
def _fixed_pc(label: str) -> PcPresentation:
    if label not in _TOWERS or label in NIL_LABELS:
        raise ValueError(f"unknown catalogue label {label!r}")
    return _tower(label)


def _tower(label: str, k: int = 1) -> PcPresentation:
    """label's group, with the lifts of its top stage scaled by k."""
    names, *stages = _TOWERS[label]
    names = tuple(names.split())
    if not stages:
        return cyclic_pc(names[0])
    signs, lifts = stages[-1]
    base = _prefix(names[:-1], tuple(stages[:-1]))
    return build_extension(base, signs, [k * x for x in lifts], names[-1])


@cache
def _prefix(names, stages) -> PcPresentation:
    """The tower below a catalogue group's top stage, built once."""
    p = cyclic_pc(names[0])
    for name, (signs, lifts) in zip(names[1:], stages):
        p = build_extension(p, signs, lifts, name)
    return p


#: extension generator names used by every built depth-3 group
EXT = ("g", "h", "n")

#: the seven tabulated depth-3 cases: number -> (base kind, twist signs);
#: the torus twist (-1, +1) is case 6 after swapping the base generators
CASES = {
    1: ("klein", (1, 1)),
    2: ("klein", (1, -1)),
    3: ("klein", (-1, 1)),
    4: ("klein", (-1, -1)),
    5: ("torus", (1, 1)),
    6: ("torus", (1, -1)),
    7: ("torus", (-1, -1)),
}

def reduction_maps(case: int):
    """Witness the isomorphism between the case-`case` extensions with lift
    integers k = r + 2m and r, for every m at once, where the torsion of
    the twisted H^2 is Z_2 (cases 1, 2 over the Klein base; 6 over the
    torus; cases 4 and 7 reach 2 and 6 through case_swap_maps).

    The maps are between families, as normal forms: fwd sends (g, h, n,
    mu) of the lift-r extension extended by mu, with mu^2 on the tail of
    the rule of g and h, to the lift-r extension extended by nu, twisted
    like n; bwd sends (g, h, n, nu) back.  mu and nu stand for n^m, so
    putting n^m for them gives the maps for one k: h -> n^m h in case 1,
    g -> n^m g in cases 2 and 6.
    """
    if case == 1:
        # h -> n^m h = h nu, since h fixes n
        fwd = ((1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1))
        bwd = ((1, 0, 0, 0), (0, 1, 0, -1), (0, 0, 1, 0), (0, 0, 0, 1))
        return fwd, bwd
    if case in (2, 6):
        # g -> n^m g = g nu, since g fixes n
        fwd = ((1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        bwd = ((1, 0, 0, -1), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        return fwd, bwd
    raise ValueError(f"no reduction maps for case {case}")


def case_swap_maps(case: int):
    """Maps between a case-4 (resp. 7) extension and the case-2 (resp. 6)
    extension with the same lift integer, as normal forms."""
    if case not in (4, 7):
        raise ValueError(f"no swap maps for case {case}")
    # fwd: g h^-1, h, n inside the case-2 (6) group; bwd: g h, h, n back
    return ((1, -1, 0), (0, 1, 0), (0, 0, 1)), ((1, 1, 0), (0, 1, 0), (0, 0, 1))


#: (case, k) -> (flat label, images of g, h, n in it, images of its
#: generators over g, h, n): the paper's witness words
_IDENTIFICATIONS = {
    (1, 0): ("B1", ("e", "t2", "t3"), ("g", "h", "n")),
    (1, 1): ("B2", ("e", "u", "u^2 v"), ("g", "h", "h^-2 n")),
    (2, 0): ("B3", ("e a", "e^-1", "t"), ("h g", "h^-1", "n")),
    (2, 1): ("B4", ("t^-1 e a", "e^-1 t", "t^-1"), ("h g", "n^-1 h^-1", "n^-1")),
    (3, 0): ("G2", ("a", "t2", "t3"), ("g", "h", "n")),
    (5, 0): ("T3", ("t1", "t2", "t3"), ("g", "h", "n")),
    (6, 0): ("B1", ("t3", "e", "t2"), ("h", "n", "g")),
    (6, 1): ("B2", ("u^-1", "e", "v"), ("h", "g^-1", "n")),
}


@cache
def base_identification(case: int, r: int):
    """Identify the case-`case` extension with lift r with its flat
    catalogue group, for the values of r the catalogue realizes directly;
    Delta(-k) and Gamma(k) are the extension under nil_family's names.

    Returns (label, target_pc, fwd, bwd): fwd sends (g, h, n) to normal
    forms of the target, bwd sends the target's generators to normal forms
    of the extension, the paper's witness words parsed and collected once,
    over the shared Klein or torus base.
    """
    if (case, r) not in _IDENTIFICATIONS:
        raise ValueError(f"no direct identification for case {case}, k={r}")
    label, fwd, bwd = _IDENTIFICATIONS[case, r]
    kind, signs = CASES[case]
    target = _fixed_pc(label)
    source = build_extension(_fixed_pc("K" if kind == "klein" else "T2"), signs, [r], EXT[2])
    return (
        label,
        target,
        tuple(collect(target, parse_word(t, target.names)) for t in fwd),
        tuple(collect(source, parse_word(t, EXT)) for t in bwd),
    )


@cache
def nil_family(case: int):
    """(label, names, sign, family) for the nil case 3 or 5: the extension
    with lift k != 0 is the catalogue group label(sign k), whose generator
    names are names.  family is the catalogue's family tower of label: the
    group with top lift 0 extended by nu, twisted like the top generator
    c, with the table's top lift as its tail, so that nu = c^k gives
    label(k).  The extensions' own family, whose mu = n^k gives lift k,
    has the tail 1 on mu, so mu -> nu^sign matches the two.
    """
    label = "Gamma" if case == 3 else "Delta"
    names, *stages = _TOWERS[label]
    signs, lifts = stages[-1]
    family = build_extension(_tower(label, 0), signs + (1,), list(lifts) + [0, 0], "nu")
    return label, tuple(names.split()), lifts[0], family
