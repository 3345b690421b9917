"""Relator presentations of the torus and Klein bottle groups, and their
twisted H^2 by Fox calculus on relator words: an oracle for the engine,
which reads both off the polycyclic presentation instead, its Fox rows
off the rules' normal forms (polycyclic.relation_rows).

A Presentation is generator names plus relator words; a TwistMap is a
sign per generator that every relator keeps, checked against the
relators rather than the pc rules.

relator_pairing reads a built extension's class back from a relator
word, collected letter by letter in the extension; the engine reads the
class off the lifts it was built with.
"""

from math import gcd

from nilbott.cohomology import ClassOrder, CohomologyResult
from nilbott.exact import IntMatrix, smith_normal_form
from nilbott.polycyclic import PcPresentation, collect
from pc_oracle import pc_presentation
from nilbott.words import Word, _word_sign, gen, word_str


def fox_augmented(r: Word, target: int, signs) -> int:
    """Free derivative of r with respect to the target generator, pushed
    through the twist signs.

    Satisfies the product rule fox(uv) = fox(u) + phi(u) * fox(v), phi(u)
    the sign of u.
    """
    if not 0 <= target < len(signs):
        raise ValueError("generator index out of range")
    total = 0
    prefix_sign = 1
    for g, e in r:
        s = signs[g]
        if g == target:
            # d(x^e)/dx is 1 + x + ... + x^(e-1) for e > 0 and
            # -(x^-1 + ... + x^e) for e < 0; under x -> s that sums to e
            # when s = 1 and to e mod 2 when s = -1
            total += prefix_sign * (e if s == 1 else e % 2)
        if s == -1 and e % 2:
            prefix_sign = -prefix_sign
    return total


class Presentation:
    """Finite presentation: generator names plus relator words."""

    def __init__(self, names, relators):
        self.names = tuple(names)
        self.relators = tuple(Word(r.syllables) for r in relators)
        for r in self.relators:
            if r.max_gen() >= len(self.names):
                raise ValueError("relator references undeclared generator")

    @property
    def ngens(self) -> int:
        return len(self.names)

    def __repr__(self):
        rels = "; ".join(word_str(r, self.names) for r in self.relators)
        return f"Presentation(<{' '.join(self.names)} | {rels}>)"


def klein_presentation() -> Presentation:
    # g h g^-1 h, i.e. g h g^-1 = h^-1
    return Presentation(("g", "h"), [Word(((0, 1), (1, 1), (0, -1), (1, 1)))])


def torus_presentation() -> Presentation:
    return Presentation(("a", "b"), [Word(((0, 1), (1, 1), (0, -1), (1, -1)))])


class TwistMap:
    """Sign assignment on generators extending to a homomorphism to {+1,-1}."""

    def __init__(self, p: Presentation, signs):
        signs = tuple(int(s) for s in signs)
        if len(signs) != p.ngens or any(s not in (1, -1) for s in signs):
            raise ValueError("need one sign +1/-1 per generator")
        for r in p.relators:
            if _word_sign(r, signs) != 1:
                raise ValueError(
                    "sign assignment is not a homomorphism: relator "
                    f"{word_str(r, p.names)} maps to -1"
                )
        self.signs = signs

    def __call__(self, w: Word) -> int:
        return _word_sign(w, self.signs)


def relator_matrix(p: Presentation) -> IntMatrix:
    """Exponent-sum matrix, one row per relator."""
    rows = []
    for r in p.relators:
        row = [0] * p.ngens
        for g, e in r:
            row[g] += e
        rows.append(row)
    if not rows:
        rows = [[0] * p.ngens]
    return IntMatrix(rows)


def abelianization(p: Presentation) -> tuple[int, list[int]]:
    """(free rank, invariant factors > 1) of the abelianized group."""
    d, _, _ = smith_normal_form(relator_matrix(p))
    nonzero = [x for x in d if x != 0]
    rank = p.ngens - len(nonzero)
    torsion = [x for x in nonzero if x > 1]
    return rank, torsion


def base_kind(p: Presentation) -> str:
    """'klein' or 'torus' for a 2-generator one-relator surface
    presentation, by the exponent sums of its relator."""
    if len(p.relators) != 1 or p.ngens != 2:
        raise ValueError("expected a 2-generator one-relator presentation")
    row = list(relator_matrix(p).entries[0])
    if row == [0, 0]:
        return "torus"
    if sorted(abs(x) for x in row) == [0, 2]:
        return "klein"
    raise ValueError("presentation is not a torus or Klein bottle group")


def h2_one_relator(p: Presentation, phi: TwistMap) -> CohomologyResult:
    """H^2 with sign-twisted integer coefficients for a one-relator
    aspherical surface presentation: the cokernel of the map whose entries
    are the twisted free derivatives of the relator."""
    if len(p.relators) != 1:
        raise ValueError("h2_one_relator needs exactly one relator")
    base_kind(p)
    r = p.relators[0]
    row = [fox_augmented(r, g, phi.signs) for g in range(p.ngens)]
    d, _, _ = smith_normal_form(IntMatrix([row]))
    nonzero = [x for x in d if x != 0]
    free_rank = 1 - len(nonzero)
    torsion = tuple(x for x in nonzero if x > 1)
    return CohomologyResult(free_rank, torsion)


def class_order(p: Presentation, phi: TwistMap, k: int) -> ClassOrder:
    """Order of k times the distinguished class in the twisted H^2."""
    h2 = h2_one_relator(p, phi)
    if h2.free_rank > 0:
        return ClassOrder("finite", 1) if k == 0 else ClassOrder("infinite")
    if not h2.torsion:
        return ClassOrder("finite", 1)
    d = h2.torsion[0]
    return ClassOrder("finite", d // gcd(k, d))


def base_pc(p: Presentation) -> PcPresentation:
    """Polycyclic form of a torus or Klein bottle presentation."""
    if base_kind(p) == "klein":
        return pc_presentation(p.names, {(0, 1): gen(1, -1)})
    return pc_presentation(p.names)


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
