"""Twisted second cohomology of the torus and Klein bottle groups, read
off their polycyclic presentations; class orders, the relator pairing
that reads a built extension's class back, and the restriction and
transfer criteria that decide finite versus infinite type.  A base twist
is a tuple of signs, checked by polycyclic.twist_signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .exact import smith_normal_form, IntMatrix
from .polycyclic import (
    PcPresentation,
    build_extension,
    collect,
    nf_to_word,
    require_integer_k,
    twist_signs,
)
from .words import Word, fox_augmented, gen


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
    relator r = g h g^-1 w^-1 and no rule triples, so the tail coboundary
    is the row of twisted free derivatives of r and H^2 is its cokernel.
    """
    base_kind(base)
    signs = twist_signs(base, signs)
    r = gen(0) * gen(1) * gen(0, -1) * nf_to_word(base.rule(0, 1)).inverse()
    row = [fox_augmented(r, g, signs) for g in range(2)]
    d, _, _ = smith_normal_form(IntMatrix([row]))
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


def _carries_holonomy(ext: PcPresentation, i: int) -> bool:
    """True if base generator i twists the fiber or acts nontrivially on
    later base generators."""
    fiber = ext.ngens - 1
    if ext.rule(i, fiber) != ext._unit(fiber):
        return True
    return any(ext.rule(i, j) != ext._unit(j) for j in range(i + 1, fiber))


def restriction_nonzero(ext: PcPresentation) -> bool:
    """True iff the restriction of the extension class to the translation
    lattice of the base is nonzero, i.e. the commutator of some pair of
    lattice generators pairs to a nonzero fiber power.  The lattice is
    generated by the squares of the holonomy-carrying base generators and
    the others unsquared.  Decides infinite type."""
    gens = [
        gen(i, 2 if _carries_holonomy(ext, i) else 1) for i in range(ext.ngens - 1)
    ]
    # every pair is paired before any() reads them, so a lattice that does
    # not commute in the base is refused rather than passed over
    pairings = [
        relator_pairing(ext, a * b * a.inverse() * b.inverse())
        for s, a in enumerate(gens)
        for b in gens[s + 1:]
    ]
    return any(pairings)


#: generator words of the index-2 subgroup on which each nontrivial twist
#: is trivial, the same on either base
_UNTWISTED_WORDS = {
    (1, -1): (gen(0), gen(1, 2)),
    (-1, 1): (gen(0, 2), gen(1)),
    (-1, -1): (gen(0) * gen(1), gen(1, 2)),
}


def untwisted_subgroup(base: PcPresentation, signs):
    """Generator words and kind of the index-2 subgroup on which the twist
    is trivial."""
    kind = base_kind(base)
    signs = twist_signs(base, signs)
    if signs not in _UNTWISTED_WORDS:
        raise ValueError("twist map is trivial; no index-2 untwisted subgroup")
    # the Klein bottle's subgroup <g^2, h> is a torus; the others keep
    # their base's kind
    sub_kind = "torus" if signs == (-1, 1) else kind
    return _UNTWISTED_WORDS[signs], sub_kind


def _subgroup_relator(u: Word, v: Word, kind: str) -> Word:
    if kind == "klein":
        return u * v * u.inverse() * v
    return u * v * u.inverse() * v.inverse()


def transfer_identity_check(base: PcPresentation, signs, k: int) -> bool:
    """Verify the transfer constraint: if the class restricts to zero on the
    index-2 untwisted subgroup, then twice the class must vanish upstairs.
    """
    (u, v), sub_kind = untwisted_subgroup(base, signs)
    ext = build_extension(base, signs, [k])
    k_restricted = relator_pairing(ext, _subgroup_relator(u, v, sub_kind))
    if sub_kind == "torus":
        vanishes = k_restricted == 0
    else:
        vanishes = k_restricted % 2 == 0
    if not vanishes:
        return True  # restriction nonzero: the identity imposes nothing
    doubled = class_order(base, signs, 2 * k)
    return doubled.is_finite and doubled.order == 1
