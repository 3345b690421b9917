"""The 2-cocycle of a built extension through a section of its quotient
map, and the type criteria in product form: an oracle for the engine,
which reads a built extension's class by collecting lifted relators
(cohomology.relator_pairing) instead.

A Cocycle's value f(a, b) is the fiber exponent of s(a) s(b) s(ab)^-1,
collected in the extension.  There is no separate group law on (fiber,
base) pairs; the pair (n, x) stands for z^n s(x) and multiplies as that
element of the extension does.
"""

from nilbott.polycyclic import (
    PcPresentation,
    evaluate,
    nf_invert,
    nf_multiply,
    nf_to_word,
)
from nilbott.words import Word, _word_sign
from pc_oracle import pc_presentation


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
    return pc_presentation(ext.names[:fiber], conj)


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


def lattice_generators(ext: PcPresentation) -> list[tuple]:
    """Normal forms generating the translation lattice of the base: the
    square of a base generator that twists the fiber or acts on a later
    base generator, the others unsquared."""
    fiber = ext.ngens - 1
    gens = []
    for i in range(fiber):
        acts = any(ext.rule(i, j) != ext._unit(j) for j in range(i + 1, fiber + 1))
        gens.append(ext._unit(i, 2 if acts else 1))
    return gens


def restriction_nonzero(ext: PcPresentation) -> bool:
    """The restriction criterion in product form: (ab)(ba)^-1 for every
    pair of lattice generators, by normal-form products, must land in the
    fiber, and the class restricts to zero iff every such power is 0."""
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
                raise ValueError("lattice generators do not commute in the base")
            if comm[fiber] != 0:
                nonzero = True
    return nonzero
