"""The rule-text constructor of polycyclic presentations, kept only as a
test oracle.

The engine makes every pc group as a tower: the circle, extended one
fiber at a time by build_extension.  This constructor assembles a group
from its positive conjugation rules instead: each rule x_i x_j x_i^-1 is
collected, and the inverse rules x_i^-1 x_j x_i are found by a triangular
solve, since the conjugation action preserves the chain and so its
leading coefficients must be units (Sims, *Computation with Finitely
Presented Groups*, 1994, ch. 9).  A rule that does not solve is recorded
as a defect, which check reports before its per-level check.
"""

from dataclasses import dataclass

from nilbott.polycyclic import PcPresentation
from nilbott.words import Word, gen, parse_word


@dataclass
class ConsistencyResult:
    ok: bool
    # generator indices (i, j, k): conjugation by x_i breaks the rule of
    # (j, k); a defect, an unsolved inverse rule (i, j), reports (i, j, i)
    witness: tuple | None = None
    detail: str = ""

    def __bool__(self):
        return self.ok


def pc_presentation(names, conj=None) -> PcPresentation:
    """The presentation on names with x_i x_j x_i^-1 = conj[(i, j)] for
    i < j (a Word or syllable pairs over generators of index >= j), and
    x_j for pairs not listed.  Its _defects list the unsolved inverse
    rules as (i, j, message)."""
    p = PcPresentation._blank(names)
    m = p.ngens
    given = {}
    for (i, j), w in (conj or {}).items():
        if not (0 <= i < j < m):
            raise ValueError(f"bad rule pair ({i}, {j})")
        if not isinstance(w, Word):
            w = Word(w)
        if any(g < j or g >= m for g, _ in w):
            raise ValueError(
                f"rule x_{i} x_{j} x_{i}^-1 output must use generators of index >= {j}"
            )
        given[(i, j)] = w
    p._defects = []
    for i in range(m - 2, -1, -1):
        row = []
        for j in range(i + 1, m):
            nf = p.identity()
            for g, e in given.get((i, j), gen(j)):
                nf = p._mult(nf, p._unit(g, e), j)
            row.append(nf)
        p._squares[(i, 1)] = [row]
        inverse = []
        for j in range(i + 1, m):
            try:
                inverse.append(_solve_inverse(p, i, j))
            except ValueError as exc:
                p._defects.append((i, j, str(exc)))
                inverse.append(p._unit(j))
        p._squares[(i, -1)] = [inverse]
        p._central[i] = row == [p._unit(j) for j in range(i + 1, m)]
        p._abelian[i] = p._central[i] and p._abelian[i + 1]
    return p


def nf_to_word(v) -> Word:
    """The normal form v as the word x_0^v_0 ... x_{n-1}^v_{n-1}."""
    return Word(tuple((i, e) for i, e in enumerate(v) if e))


def from_rule_text(names, rules) -> PcPresentation:
    """pc_presentation with each rule given as text, e.g.
    from_rule_text(("g", "h"), {(0, 1): "h^-1"})."""
    names = tuple(names)
    return pc_presentation(names, {ij: parse_word(t, names) for ij, t in rules.items()})


def _solve_inverse(p, i, j):
    """Find z with x_i z x_i^-1 = x_j, i.e. the rule x_i^-1 x_j x_i."""
    target = p._unit(j)
    z = [0] * p.ngens
    for l in range(j, p.ngens):
        rl = p.rule(i, l)
        lead = rl[l]
        if lead == 0 or target[l] % lead:
            raise ValueError(
                f"conjugation by {p.names[i]} is not invertible at {p.names[l]}"
            )
        s = target[l] // lead
        z[l] = s
        target = p._mult(p._invert(p._power(rl, s, l), l), target, l)
    if any(target):
        raise ValueError(
            f"conjugation by {p.names[i]} is not surjective at {p.names[j]}"
        )
    return tuple(z)


def check(p) -> ConsistencyResult:
    """The first assembly defect of p, if any; else the first level, from
    the top, whose conjugation breaks a rule above it, reported as the
    engine reports it.  A presentation the engine built has no defects."""
    defects = getattr(p, "_defects", ())
    if defects:
        i, j, msg = defects[0]
        return ConsistencyResult(False, (i, j, i), msg)
    for i in range(p.ngens - 2, -1, -1):
        broken = _level_break(p, i, p._squares[(i, 1)][0])
        if broken is not None:
            return ConsistencyResult(False, *broken)
    return ConsistencyResult(True)


def _level_break(p, i, images):
    """The per-level check with every rule of <x_{i+1}, ...>, the fiber
    rules x_j z x_j^-1 included: None if conjugation by x_i, the map
    x_j -> images[j - i - 1], respects each rule x_j x_k x_j^-1 = w
    (a_j a_k = W a_j, W the product of the a_g^(w_g)), else (witness,
    detail) for the first one it breaks, in the engine's words.  It makes
    no use of twist signs, so it also judges presentations whose twist is
    not a homomorphism."""
    lvl = i + 1
    for j in range(lvl, p.ngens):
        a = images[j - lvl]
        for k in range(j + 1, p.ngens):
            lhs = p._mult(a, images[k - lvl], lvl)
            rhs = p._act(images, p.rule(j, k), lvl)
            if lhs == p._mult(rhs, a, lvl):
                continue
            lhs = p._mult(lhs, p._invert(a, lvl), lvl)
            return (i, j, k), (
                f"conjugation by {p.names[i]} does not respect "
                f"{p.rule_str(j, k)}: {p.nf_str(lhs)} vs {p.nf_str(rhs)}"
            )
    return None


def assert_same_group(new, old):
    """new, built by the engine, has the names, rules (both signs), flags
    and first conjugation images of old, made by pc_presentation."""
    assert old._defects == []
    assert new.names == old.names
    assert new._central == old._central and new._abelian == old._abelian
    for i in range(new.ngens):
        for sign in (1, -1):
            assert new._squares[i, sign][0] == old._squares[i, sign][0]
