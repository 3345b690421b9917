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
"""

from __future__ import annotations

from functools import cache

from .polycyclic import PcPresentation, build_extension, cyclic_pc, require_integer_k
from .words import Word, gen, parse_word


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

    The groups that do not depend on k are built on first use and shared;
    Delta(k) and Gamma(k) are built on every call, over a shared base.
    """
    if label == "Delta":
        if k is None:
            raise ValueError("Delta needs the twisting integer k")
        require_integer_k(k)
        return _tower(label, k)
    if label == "Gamma":
        if k is not None:
            require_integer_k(k)
        if not k:
            raise ValueError("Gamma needs a nonzero twisting integer k")
        return _tower(label, k)
    return _fixed_pc(label)


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


def _w(names, *texts):
    return list(_parsed(tuple(names), texts))


@cache
def _parsed(names, texts):
    """Witness words, parsed once: every caller passes literal texts."""
    return tuple(parse_word(t, names) for t in texts)


#: extension generator names used by every built depth-3 group
EXT = ("g", "h", "n")


def reduction_maps(case: int, k: int, r: int):
    """Witness the isomorphism between the case-`case` extensions with lift
    integers k and r, where k = r modulo the torsion of the twisted H^2.

    Returns (fwd, bwd): images of (g, h, n) of the k-group inside the
    r-group and back.  Valid for cases with 2-torsion (1, 2, 4 over the
    Klein base; 6, 7 over the torus).
    """
    if (k - r) % 2:
        raise ValueError("lift integers differ by an odd number")
    m = (k - r) // 2
    if case == 1:
        # h -> n^m h
        return [gen(0), gen(2, m) * gen(1), gen(2)], [gen(0), gen(2, -m) * gen(1), gen(2)]
    if case in (2, 6):
        # g -> n^m g
        return [gen(2, m) * gen(0), gen(1), gen(2)], [gen(2, -m) * gen(0), gen(1), gen(2)]
    raise ValueError(f"no reduction maps for case {case}")


def case_swap_maps(case: int):
    """Maps between a case-4 (resp. 7) extension and the case-2 (resp. 6)
    extension with the same lift integer."""
    if case not in (4, 7):
        raise ValueError(f"no swap maps for case {case}")
    # fwd: case-4 (7) generators inside the case-2 (6) group; bwd the reverse
    return _w(EXT, "g h^-1", "h", "n"), _w(EXT, "g h", "h", "n")


def base_identification(case: int, k: int):
    """Identify the case-`case` extension with lift k with its catalogue
    group, for the values of k the catalogue realizes directly.

    Returns (label, target_pc, fwd, bwd): fwd sends (g, h, n) to words over
    the target's generators, bwd sends the target's generators back.
    """
    if case == 1:
        if k == 0:
            t = catalogue_pc("B1")
            return "B1", t, _w(t.names, "e", "t2", "t3"), _w(EXT, "g", "h", "n")
        if k == 1:
            t = catalogue_pc("B2")
            return "B2", t, _w(t.names, "e", "u", "u^2 v"), _w(EXT, "g", "h", "h^-2 n")
    if case == 2:
        if k == 0:
            t = catalogue_pc("B3")
            return "B3", t, _w(t.names, "e a", "e^-1", "t"), _w(EXT, "h g", "h^-1", "n")
        if k == 1:
            t = catalogue_pc("B4")
            return (
                "B4",
                t,
                _w(t.names, "t^-1 e a", "e^-1 t", "t^-1"),
                _w(EXT, "h g", "n^-1 h^-1", "n^-1"),
            )
    if case == 3:
        if k == 0:
            t = catalogue_pc("G2")
            return "G2", t, _w(t.names, "a", "t2", "t3"), _w(EXT, "g", "h", "n")
        t = catalogue_pc("Gamma", k)
        return f"Gamma({k})", t, _w(t.names, "a", "b", "n"), _w(EXT, "g", "h", "n")
    if case == 5:
        if k == 0:
            t = catalogue_pc("T3")
            return "T3", t, _w(t.names, "t1", "t2", "t3"), _w(EXT, "g", "h", "n")
        t = catalogue_pc("Delta", -k)
        return f"Delta({-k})", t, _w(t.names, "a", "b", "c"), _w(EXT, "g", "h", "n")
    if case == 6:
        if k == 0:
            t = catalogue_pc("B1")
            return "B1", t, _w(t.names, "t3", "e", "t2"), _w(EXT, "h", "n", "g")
        if k == 1:
            t = catalogue_pc("B2")
            return "B2", t, _w(t.names, "u^-1", "e", "v"), _w(EXT, "h", "g^-1", "n")
    raise ValueError(f"no direct identification for case {case}, k={k}")


def central_words(label: str, k: int | None = None) -> list[Word]:
    """Generators of the center, as words over the catalogue presentation."""
    p = catalogue_pc(label, k)
    texts = {
        "S1": ("t",),
        "T2": ("a", "b"),
        "K": ("g^2",),
        "T3": ("t1", "t2", "t3"),
        "G2": ("a^2",),
        "B1": ("e^2", "t3"),
        "B2": ("e^2", "u^2 v"),
        "B3": ("a^2",),
        "B4": ("a^2",),
        "Delta": ("a", "b", "c") if (k == 0) else ("c",),
        "Gamma": (),
    }[label]
    return [parse_word(t, p.names) for t in texts]
