"""Twisted second cohomology of the torus and Klein bottle groups, read
off the twisted Fox row of their pc presentation's one rule; class
orders, the relator pairing that reads a built extension's class back,
and the restriction and transfer criteria, products of normal forms in
the extension, that decide finite versus infinite type.  A base twist is
a tuple of signs, checked by polycyclic.twist_signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .exact import smith_normal_form, IntMatrix
from .polycyclic import (
    PcPresentation,
    build_extension,
    collect,
    relation_rows,
    require_integer_k,
    twist_signs,
)
from .words import Word


@dataclass(frozen=True)
class CohomologyResult:
    """Cokernel description of the twisted H^2 plus where the distinguished
    relator-lift class lands (always the element '1' of the presentation)."""

    free_rank: int
    torsion: tuple[int, ...]
    generator_image: int = 1

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z_{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return self.describe()


def base_kind(base: PcPresentation) -> str:
    """'klein' or 'torus' for the two 2-generator bases in scope, read off
    the one rule g h g^-1 = h^-1 or h."""
    if base.ngens == 2:
        if base.rule(0, 1) == (0, 1):
            return "torus"
        if base.rule(0, 1) == (0, -1):
            return "klein"
    raise ValueError(f"{base!r} is not the torus or Klein bottle group")


def h2_one_relator(base: PcPresentation, signs) -> CohomologyResult:
    """H^2 with sign-twisted integer coefficients of the torus or Klein
    bottle group, read off its pc presentation by tails (Eick & Nickel,
    J. Algebra 320, 2008).  The one rule g h g^-1 = w gives the one
    relator g h g^-1 w^-1 and no rule triples, so the tail coboundary is
    its twisted Fox row, read off the normal form w (relation_rows), and
    H^2 is its cokernel.
    """
    base_kind(base)
    signs = twist_signs(base, signs)
    d, _, _ = smith_normal_form(IntMatrix(relation_rows(base, signs)))
    nonzero = [x for x in d if x != 0]
    free_rank = 1 - len(nonzero)
    torsion = tuple(x for x in nonzero if x > 1)
    return CohomologyResult(free_rank, torsion)


@dataclass(frozen=True)
class ClassOrder:
    kind: str  # "finite" | "infinite"
    order: int | None = None

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def __str__(self):
        return f"finite({self.order})" if self.is_finite else "infinite"


#: h2_one_relator by (the base's one rule, signs), all it reads
_H2: dict[tuple, CohomologyResult] = {}


def class_order(base: PcPresentation, signs, k: int) -> ClassOrder:
    """Order of k times the distinguished class in the twisted H^2."""
    require_integer_k(k)
    key = (base.rule(0, 1) if base.ngens == 2 else None, tuple(signs))
    h2 = _H2.get(key) or _H2.setdefault(key, h2_one_relator(base, signs))
    if h2.free_rank > 0:
        return ClassOrder("finite", 1) if k == 0 else ClassOrder("infinite")
    if not h2.torsion:
        return ClassOrder("finite", 1)
    d = h2.torsion[0]
    return ClassOrder("finite", d // gcd(k, d))


# -- reading a built extension's class ----------------------------------------


def relator_pairing(ext: PcPresentation, relator: Word) -> int:
    """Fiber exponent of a base relator lifted into the built extension ext
    through the zero section: the relator is collected in ext, where it
    must land in the fiber, the last generator.  For the defining relator
    of a depth-3 extension this recovers the lift integer k.  ValueError
    names the word if a letter is not a base generator or the word is not
    a relator of the base.
    """
    fiber = ext.ngens - 1
    if relator.max_gen() >= fiber:
        raise ValueError(f"{relator!r} has a letter that is not a base generator")
    lifted = collect(ext, relator)
    if any(lifted[:fiber]):
        raise ValueError(f"{relator!r} is not a relator of the base")
    return lifted[fiber]


# -- type criteria -----------------------------------------------------------


def restriction_nonzero(ext: PcPresentation) -> bool:
    """True iff the restriction of the extension class to the translation
    lattice of the base is nonzero, i.e. the commutator of some pair of
    lattice generators is a nonzero fiber power.  The lattice is generated
    by the squares of the holonomy-carrying base generators (those that are
    not central: they twist the fiber or act on a later base generator)
    and the others unsquared.  For i < j the commutator
    [x_i^a, x_j^b] = (x_i^a x_j^b x_i^-a) x_j^-b is one conjugation, read
    off the cached squares of the level-i rules, and one product collected
    at level i + 1; ValueError if one does not land in the fiber.  Decides
    infinite type."""
    fiber = ext.ngens - 1
    powers = [1 if ext._central[i] else 2 for i in range(fiber)]
    # every pair is paired before any() reads them, so a lattice that does
    # not commute in the base is refused rather than passed over
    pairings = []
    for i, a in enumerate(powers):
        for j in range(i + 1, fiber):
            b = powers[j]
            comm = ext._mult(ext._conj(ext._unit(j, b), i, a), ext._unit(j, -b), i + 1)
            if any(comm[:fiber]):
                raise ValueError(
                    f"lattice generators {ext.nf_str(ext._unit(i, a))} and "
                    f"{ext.nf_str(ext._unit(j, b))} do not commute in the base"
                )
            pairings.append(comm[fiber])
    return any(pairings)


#: generators of the index-2 subgroup on which each nontrivial twist is
#: trivial, as normal forms of either base
_UNTWISTED = {
    (1, -1): ((1, 0), (0, 2)),
    (-1, 1): ((2, 0), (0, 1)),
    (-1, -1): ((1, 1), (0, 2)),
}


def untwisted_subgroup(base: PcPresentation, signs):
    """Generators, as normal forms of base, and kind of the index-2
    subgroup on which the twist is trivial."""
    kind = base_kind(base)
    signs = twist_signs(base, signs)
    if signs not in _UNTWISTED:
        raise ValueError("twist map is trivial; no index-2 untwisted subgroup")
    # the Klein bottle's subgroup <g^2, h> is a torus; the others keep
    # their base's kind
    sub_kind = "torus" if signs == (-1, 1) else kind
    return _UNTWISTED[signs], sub_kind


def transfer_identity_check(base: PcPresentation, signs, k: int) -> bool:
    """Verify the transfer constraint: if the class restricts to zero on the
    index-2 untwisted subgroup, then twice the class must vanish upstairs.
    The restriction is the fiber exponent of the subgroup's relator
    u v u^-1 v^(-1 on a torus, +1 on a Klein bottle), multiplied out in
    the extension on the lifts of u and v with fiber exponent 0.
    """
    (u, v), sub_kind = untwisted_subgroup(base, signs)
    ext = build_extension(base, signs, [k], "n")
    u, v = u + (0,), v + (0,)
    last = v if sub_kind == "klein" else ext._invert(v)
    relator = ext._mult(ext._mult(ext._mult(u, v), ext._invert(u)), last)
    k_restricted = relator[-1]
    if sub_kind == "torus":
        vanishes = k_restricted == 0
    else:
        vanishes = k_restricted % 2 == 0
    if not vanishes:
        return True  # restriction nonzero: the identity imposes nothing
    doubled = class_order(base, signs, 2 * k)
    return doubled.is_finite and doubled.order == 1
