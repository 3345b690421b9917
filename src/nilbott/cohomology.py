"""Twisted second cohomology of the torus and Klein bottle groups, read
off their polycyclic presentations; the 2-cocycles of built extensions,
class orders, and the restriction and transfer criteria that decide
finite versus infinite type.  A base twist is a tuple of signs, checked
by polycyclic.twist_signs.

A cocycle is read off its extension on demand: f(a, b) is the fiber
exponent of s(a) s(b) s(ab)^-1, collected in the polycyclic presentation.
There is no separate group law on (fiber, base) pairs; the pair (n, x)
stands for z^n s(x) and multiplies as that element of the extension does.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .exact import smith_normal_form, IntMatrix
from .polycyclic import (
    PcPresentation,
    collect,
    evaluate,
    nf_multiply,
    nf_invert,
    nf_to_word,
    twist_signs,
)
from .words import Word, _word_sign, fox_augmented, gen


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
    key = (base.rule(0, 1) if base.ngens == 2 else None, tuple(signs))
    h2 = _H2.get(key) or _H2.setdefault(key, h2_one_relator(base, signs))
    if h2.free_rank > 0:
        return ClassOrder("finite", 1) if k == 0 else ClassOrder("infinite")
    if not h2.torsion:
        return ClassOrder("finite", 1)
    d = h2.torsion[0]
    return ClassOrder("finite", d // gcd(k, d))


# -- cocycles from built extensions ----------------------------------------


def fiber_signs(ext: PcPresentation) -> tuple[int, ...]:
    """Conjugation sign of the fiber (last generator) per base generator."""
    fiber = ext.ngens - 1
    signs = []
    for i in range(fiber):
        rule = ext.rule(i, fiber)
        if rule == ext._unit(fiber):
            signs.append(1)
        elif rule == ext._unit(fiber, -1):
            signs.append(-1)
        else:
            raise ValueError("last generator is not a sign-twisted fiber")
    return tuple(signs)


def base_of_extension(ext: PcPresentation) -> PcPresentation:
    """The quotient by the fiber: drop the last generator coordinate."""
    fiber = ext.ngens - 1
    if fiber == 0:
        raise ValueError("extension has no base")
    conj = {}
    for (i, j), w in ext.positive_rules():
        if j < fiber:
            conj[(i, j)] = nf_to_word(w[:fiber])
    return PcPresentation(ext.names[:fiber], conj)


class Cocycle:
    """The 2-cocycle f(a, b) = fiber exponent of s(a) s(b) s(ab)^-1 of an
    extension, for a section s of the quotient map onto the base.

    The section sends a base normal form to the extension normal form with
    fiber exponent zero (optionally shifted by a bounded function, which is
    how the section-independence properties are exercised).  Values are
    computed by collection in the extension when first asked for and
    cached.
    """

    def __init__(self, ext: PcPresentation, section_shift=None):
        ext.require_consistent()
        self.ext = ext
        self.fiber = ext.ngens - 1
        self.base = base_of_extension(ext)
        self.signs = fiber_signs(ext)
        self._shift = section_shift if section_shift is not None else (lambda a: 0)
        self._cache: dict[tuple, int] = {}

    def section(self, a) -> tuple:
        return tuple(a) + (self._shift(tuple(a)),)

    def phi(self, a) -> int:
        return _word_sign(enumerate(a), self.signs)

    def value(self, a, b) -> int:
        a, b = tuple(a), tuple(b)
        key = (a, b)
        if key not in self._cache:
            ab = nf_multiply(self.base, a, b)
            lift = nf_multiply(
                self.ext,
                nf_multiply(self.ext, self.section(a), self.section(b)),
                nf_invert(self.ext, self.section(ab)),
            )
            if any(lift[:self.fiber]):
                raise ValueError("section lift did not land in the fiber")
            self._cache[key] = lift[self.fiber]
        return self._cache[key]

    def identity_defect(self, a, b, c) -> int:
        """phi(a) f(b,c) - f(ab,c) + f(a,bc) - f(a,b); zero iff the cocycle
        identity holds on the triple."""
        ab = nf_multiply(self.base, a, b)
        bc = nf_multiply(self.base, b, c)
        return (
            self.phi(a) * self.value(b, c)
            - self.value(ab, c)
            + self.value(a, bc)
            - self.value(a, b)
        )


def relator_pairing(f: Cocycle, relator: Word) -> int:
    """Fiber exponent of the relator lifted through the section: each base
    generator g is replaced by s(g) and the word is evaluated in the
    extension.  For the defining relator of a built extension this
    recovers the lift integer k.
    """
    if relator.max_gen() >= f.fiber:
        raise ValueError("relator references a non-base generator")
    images = [f.section(f.base._unit(g)) for g in range(f.fiber)]
    lifted = evaluate(f.ext, relator, images)
    if any(lifted[:f.fiber]):
        raise ValueError("word is not a relator of the base")
    return lifted[f.fiber]


# -- type criteria -----------------------------------------------------------


def _carries_holonomy(ext: PcPresentation, i: int) -> bool:
    """True if base generator i twists the fiber or acts nontrivially on
    later base generators."""
    fiber = ext.ngens - 1
    if ext.rule(i, fiber) != ext._unit(fiber):
        return True
    return any(ext.rule(i, j) != ext._unit(j) for j in range(i + 1, fiber))


def lattice_generators(ext: PcPresentation) -> list[tuple]:
    """Generators of the finite-index free abelian subgroup of the base on
    which the extension restricts to a central one: squares of
    holonomy-carrying generators, the others unsquared."""
    fiber = ext.ngens - 1
    gens = []
    for i in range(fiber):
        e = 2 if _carries_holonomy(ext, i) else 1
        gens.append(ext._unit(i, e))
    return gens


def restriction_nonzero(ext: PcPresentation) -> bool:
    """True iff the restriction of the extension class to the translation
    lattice of the base is nonzero, i.e. some pair of commuting lattice
    generators picks up a fiber power in the extension.  Decides infinite
    type."""
    ext.require_consistent()
    fiber = ext.ngens - 1
    gens = lattice_generators(ext)
    nonzero = False
    for s, a in enumerate(gens):
        for b in gens[s + 1:]:
            comm = nf_multiply(
                ext,
                nf_multiply(ext, a, b),
                nf_invert(ext, nf_multiply(ext, b, a)),
            )
            if any(comm[:fiber]):
                raise ValueError(
                    "lattice generators do not commute in the base; "
                    "not a depth-supported extension"
                )
            if comm[fiber] != 0:
                nonzero = True
    return nonzero


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
    from .towers import build_extension  # local to avoid a cycle

    (u, v), sub_kind = untwisted_subgroup(base, signs)
    ext = build_extension(base, signs, [k])
    lifted = collect(ext, _subgroup_relator(u, v, sub_kind))
    if any(lifted[:-1]):
        raise ValueError("subgroup relator did not lift to a fiber power")
    k_restricted = lifted[-1]
    if sub_kind == "torus":
        vanishes = k_restricted == 0
    else:
        vanishes = k_restricted % 2 == 0
    if not vanishes:
        return True  # restriction nonzero: the identity imposes nothing
    doubled = class_order(base, signs, 2 * k)
    return doubled.is_finite and doubled.order == 1
