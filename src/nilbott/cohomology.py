"""Twisted second cohomology of the torus and Klein bottle groups, and
the order of the extension class of any stage of a tower, both read off
the Smith form of the base's twisted Fox rows, the tail coboundary; the
restriction and transfer criteria, products of normal forms in the
extension, that the paper suite checks against the class order.  A base
twist is a tuple of signs, checked by polycyclic.twist_signs.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .polycyclic import (
    PcPresentation,
    _coboundary,
    build_extension,
    lift_count,
    require_integer_k,
    twist_signs,
)
from .records import FrozenRecord


class CohomologyResult(FrozenRecord):
    """Cokernel description of the twisted H^2 plus where the distinguished
    relator-lift class lands (always the element '1' of the presentation)."""

    __slots__ = ("free_rank", "torsion", "generator_image")

    def __init__(self, free_rank: int, torsion: tuple[int, ...], generator_image: int = 1):
        set_field = object.__setattr__
        set_field(self, "free_rank", free_rank)
        set_field(self, "torsion", torsion)
        set_field(self, "generator_image", generator_image)

    def __str__(self):
        parts = ["Z"] * self.free_rank + [f"Z_{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


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
    bottle group by tails (Eick & Nickel, J. Algebra 320, 2008): its one
    rule has no rule triples, so every tail is a cocycle and H^2 is the
    cokernel of the tail coboundary, read off _coboundary."""
    base_kind(base)
    smith = _coboundary(base, signs)
    return CohomologyResult(sum(1 for _, d in smith if not d), tuple(d for _, d in smith if d))


class ClassOrder(FrozenRecord):
    __slots__ = ("kind", "order")

    def __init__(self, kind: str, order: int | None = None):
        set_field = object.__setattr__
        set_field(self, "kind", kind)  # "finite" | "infinite"
        set_field(self, "order", order)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def __str__(self):
        return f"finite({self.order})" if self.is_finite else "infinite"


#: one shared value per order: ClassOrder is frozen and compares by value,
#: and a finite order divides the last nonzero diagonal entry of the
#: Smith form of a base's tail coboundary
_INFINITE = ClassOrder("infinite")
_FINITE = {1: ClassOrder("finite", 1)}


def class_order(base: PcPresentation, signs, lifts) -> ClassOrder:
    """Order of the extension class of the stage over base with the twist
    signs and lifts, one per rule in positive_rules order as
    build_extension takes them: any stage of any depth, its lifts taken
    to be a cocycle.  By tails (Nickel, DIMACS Ser. 25, 1996; Eick &
    Nickel 2008): _extend writes each rule as x_i x_j x_i^-1 = z^k w, so
    the lifts t are the tails of the relators x_i x_j x_i^-1 w^-1, and a
    change of section x_s -> x_s z^(c_s) moves them by R c.  So the order
    is that of t in Z^rules / im R: with y = U t, infinite if y_i != 0
    for some d_i = 0, else lcm(d_i / gcd(d_i, y_i)).
    """
    try:
        smith = base._coboundaries[signs]
    except (KeyError, TypeError):
        smith = _coboundary(base, signs)
    lifts = lift_count(base, lifts)
    for x in lifts:
        require_integer_k(x)
    order = 1
    for row, d in smith:
        y = sum(map(mul, row, lifts))
        if d:
            order = lcm(order, d // gcd(d, y))
        elif y:
            return _INFINITE
    return _FINITE.get(order) or _FINITE.setdefault(order, ClassOrder("finite", order))


# -- type criteria -----------------------------------------------------------


def restriction_nonzero(ext: PcPresentation) -> bool:
    """True iff the restriction of the extension class to the translation
    lattice of the base is nonzero: the paper suite's independent check of
    class_order, which classification does not call.  The lattice is
    generated by the squares of the base generators that are not central
    and the others unsquared.  For i < j the commutator
    [x_i^a, x_j^b] = (x_i^a x_j^b x_i^-a) x_j^-b is one conjugation, off
    the cached squares of the level-i rules, and one product at level
    i + 1; ValueError if one leaves the fiber, as above an infinite stage."""
    fiber = ext.ngens - 1
    powers = [1 if ext._central[i] else 2 for i in range(fiber)]
    nonzero = False
    for i, a in enumerate(powers):
        for j in range(i + 1, fiber):
            b = powers[j]
            comm = ext._mult(ext._conj(ext._unit(j, b), i, a), ext._unit(j, -b), i + 1)
            if any(comm[:fiber]):
                raise ValueError(
                    f"lattice generators {ext.nf_str(ext._unit(i, a))} and "
                    f"{ext.nf_str(ext._unit(j, b))} do not commute in the base"
                )
            nonzero = nonzero or comm[fiber] != 0
    return nonzero


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
    # the restriction lies in Z on a torus and in Z/2 on a Klein bottle
    restricted = relator[-1] % 2 if sub_kind == "klein" else relator[-1]
    if restricted:
        return True  # restriction nonzero: the identity imposes nothing
    return class_order(base, signs, (2 * k,)).order == 1
