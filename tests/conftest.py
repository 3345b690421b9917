import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nilbott.towers import base_pc, build_extension
from nilbott.words import Presentation, klein_presentation, parse_word, torus_presentation

CASE_DATA = {
    1: ("klein", (1, 1)),
    2: ("klein", (1, -1)),
    3: ("klein", (-1, 1)),
    4: ("klein", (-1, -1)),
    5: ("torus", (1, 1)),
    6: ("torus", (1, -1)),
    7: ("torus", (-1, -1)),
}


def base_presentation(case):
    kind, _ = CASE_DATA[case]
    return klein_presentation() if kind == "klein" else torus_presentation()


def case_extension(case, k):
    """The depth-3 extension group for the given twist case and lift."""
    kind, signs = CASE_DATA[case]
    pres = klein_presentation() if kind == "klein" else torus_presentation()
    return build_extension(base_pc(pres), signs, [k])


def parse_presentation(text):
    """First line 'gens: a b ...', then one line per relator."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("gens:"):
        raise ValueError("presentation text must start with a 'gens:' line")
    names = lines[0][len("gens:"):].split()
    relators = [parse_word(ln, names) for ln in lines[1:]]
    return Presentation(names, relators)


def abstract_b1_presentation():
    """Four-generator form of the B1 group: ep^2 = t1 central, ep inverts t2,
    fixes t3, lattice abelian."""
    return parse_presentation(
        """gens: ep t1 t2 t3
        ep^2 t1^-1
        ep t1 ep^-1 t1^-1
        ep t2 ep^-1 t2
        ep t3 ep^-1 t3^-1
        t1 t2 t1^-1 t2^-1
        t1 t3 t1^-1 t3^-1
        t2 t3 t2^-1 t3^-1"""
    )


def commutator_fiber_index(p):
    """'trivial' if the last generator is centralized by every generator,
    'index-2' if some generator inverts it."""
    fiber = p.ngens - 1
    for i in range(fiber):
        if p.rule(i, fiber) != p._unit(fiber):
            return "index-2"
    return "trivial"
