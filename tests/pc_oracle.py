"""The rule-text constructor of polycyclic presentations, kept only as a
test oracle.

The engine makes every pc group as a tower: the circle, extended one
fiber at a time by build_extension.  This constructor assembles a group
from its positive conjugation rules instead: each rule x_i x_j x_i^-1 is
collected, and the inverse rules x_i^-1 x_j x_i are found by a triangular
solve, since the conjugation action preserves the chain and so its
leading coefficients must be units (Sims, *Computation with Finitely
Presented Groups*, 1994, ch. 9).  A rule that does not solve is recorded
as a defect, which check reports before the engine's consistency check.
"""

from nilbott.polycyclic import ConsistencyResult, PcPresentation, consistency_check
from nilbott.words import Word, gen, parse_word


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
        for j in range(i + 1, m):
            nf = p.identity()
            for g, e in given.get((i, j), gen(j)):
                nf = p._mult(nf, p._unit(g, e), j)
            p._rules[(i, j, 1)] = nf
        for j in range(i + 1, m):
            try:
                p._rules[(i, j, -1)] = _solve_inverse(p, i, j)
            except ValueError as exc:
                p._defects.append((i, j, str(exc)))
                p._rules[(i, j, -1)] = p._unit(j)
        p._close_level(i)
    return p


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
    """The first assembly defect of p, if any; else consistency_check.
    A presentation the engine built has no defects."""
    defects = getattr(p, "_defects", ())
    if defects:
        i, j, msg = defects[0]
        return ConsistencyResult(False, (gen(i), gen(j), gen(i, -1)), msg)
    return consistency_check(p)


def assert_same_group(new, old):
    """new, built by the engine, has the names, rules (both signs), flags
    and first conjugation images of old, made by pc_presentation."""
    assert old._defects == []
    assert new.names == old.names
    assert new._rules == old._rules
    assert new._central == old._central and new._abelian == old._abelian
    for i in range(new.ngens - 1):
        for sign in (1, -1):
            assert new._squares[i, sign][0] == old._squares[i, sign][0]
