import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nilbott import catalogue, towers
from nilbott.catalogue import catalogue_pc, reduction_maps
from nilbott.exact import IntMatrix, rank
from nilbott.polycyclic import (
    PcPresentation,
    collect,
    nf_multiply,
    nf_power,
)
from nilbott.towers import (
    ExtensionError,
    Stage,
    TowerSpec,
    build_extension,
    classify_tower,
    format_tower_spec,
    parse_tower_spec,
)
from nilbott.words import Word, gen, parse_word
from pc_oracle import nf_to_word
from relator_oracle import Presentation, base_pc, klein_presentation, torus_presentation

CASE_DATA = {
    1: ("klein", (1, 1)),
    2: ("klein", (1, -1)),
    3: ("klein", (-1, 1)),
    4: ("klein", (-1, -1)),
    5: ("torus", (1, 1)),
    6: ("torus", (1, -1)),
    7: ("torus", (-1, -1)),
}


def diagonal(diag, rows=None, cols=None) -> IntMatrix:
    """The rows x cols integer matrix (square by default) with diag on its
    main diagonal and zeros elsewhere."""
    rows = len(diag) if rows is None else rows
    cols = len(diag) if cols is None else cols
    return IntMatrix(
        [[diag[i] if i == j and i < len(diag) else 0 for j in range(cols)] for i in range(rows)]
    )


#: the eight (base, signs) patterns of a depth-3 tower
PATTERNS = [(base, (s, t)) for base in ("K", "T2") for s in (1, -1) for t in (1, -1)]

DEPTH4 = """nilbott-tower v1
stage 1: S1
stage 2: phi={g:-1}
stage 3: phi={g:-1,h:-1} k=3
stage 4: phi={g:-1,h:-1,n:+1} k=1,0,0
"""

# g is central and <h, n, m> is a Heisenberg group
CENTRAL4 = """nilbott-tower v1
stage 1: S1
stage 2: phi={g:+1}
stage 3: phi={g:+1,h:+1} k=0
stage 4: phi={g:+1,h:+1,n:+1} k=0,0,1
"""

#: twisting integers of the pinned classify certificates
GOLDEN_KS = (0, 1, -1, 11, -11, 2**64 + 1, -(2**64 + 1), 10**30, -(10**30))

#: deep towers whose lifts are not a cocycle, rejected at different levels
REJECTED_SPECS = (
    """nilbott-tower v1
stage 1: S1
stage 2: phi={g:+1}
stage 3: phi={g:+1,h:-1} k=-1
stage 4: phi={g:+1,h:+1,n:+1} k=-1,-1,-1
""",
    """nilbott-tower v1
stage 1: S1
stage 2: phi={g:-1}
stage 3: phi={g:+1,h:+1} k=0
stage 4: phi={g:+1,h:-1,n:-1} k=1,2,100000000000000000001
""",
    """nilbott-tower v1
stage 1: S1
stage 2: phi={g:-1}
stage 3: phi={g:+1,h:-1} k=-1
stage 4: phi={g:+1,h:+1,n:+1} k=0,1,-1
stage 5: phi={g:-1,h:+1,n:+1,m:+1} k=3,-1,1,0,-1,1
""",
    """nilbott-tower v1
stage 1: S1
stage 2: phi={g:-1}
stage 3: phi={g:-1,h:+1} k=3
stage 4: phi={g:+1,h:+1,n:+1} k=3,-2,2
stage 5: phi={g:+1,h:+1,n:-1,m:-1} k=3,0,-1,1,0,0
""",
    """nilbott-tower v1
stage 1: S1
stage 2: phi={g:-1}
stage 3: phi={g:-1,h:-1} k=100000000000000000001
stage 4: phi={g:-1,h:-1,n:+1} k=100000000000000000001,1,0
stage 5: phi={g:+1,h:-1,n:+1,m:+1} k=2,2,1,100000000000000000001,100000000000000000001,-2
""",
)


def classify_witnesses_text():
    """The JSON text pinned in golden/classify_witnesses.json: the
    classify_tower certificate of every sign pattern at each of GOLDEN_KS,
    and the ExtensionError message of each of REJECTED_SPECS."""
    verdicts = [
        {
            "base": base,
            "signs": list(signs),
            "k": k,
            "verdict": classify_tower(TowerSpec.depth3(base, signs, k)).to_dict(),
        }
        for base, signs in PATTERNS
        for k in GOLDEN_KS
    ]
    rejected = []
    for text in REJECTED_SPECS:
        try:
            classify_tower(parse_tower_spec(text))
        except ExtensionError as exc:
            rejected.append({"spec": text, "error": str(exc)})
        else:
            raise AssertionError(f"not rejected:\n{text}")
    return json.dumps({"classify": verdicts, "rejected": rejected}, indent=1) + "\n"


def deep_specs(count=400, seed="classify-deep"):
    """Seeded depth-4 and depth-5 towers (one in four of depth 5): a random
    sign pattern with k in [-3, 3] below, then random stage signs and lifts
    that are 0 with probability 0.7, else +-1.  Many are rejected; most
    accepted ones have a finite depth-3 prefix, so that the deeper stages'
    class orders decide the type."""
    rng = random.Random(seed)
    specs = []
    for n in range(count):
        base, signs = rng.choice(PATTERNS)
        stages = list(TowerSpec.depth3(base, signs, rng.randint(-3, 3)).stages)
        for dim in range(4, (5 if n % 4 == 3 else 4) + 1):
            phi = tuple(rng.choice((1, -1)) for _ in range(dim - 1))
            lifts = tuple(
                0 if rng.random() < 0.7 else rng.choice((1, -1))
                for _ in range((dim - 1) * (dim - 2) // 2)
            )
            stages.append(Stage(dim, phi, lifts))
        specs.append(TowerSpec(tuple(stages)))
    return specs


def wide_lift_specs(count=400, seed=5):
    """Seeded depth-4 and depth-5 towers that build, with every lift in
    [-3, 3] and the depth-3 k in [-4, 4]: count of them, drawn until
    that many are accepted.  Unlike deep_specs, whose lifts are 0 and
    +-1, they tell a lift from the lift times the fiber sign of its
    rule."""
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        base, signs = rng.choice(PATTERNS)
        stages = list(TowerSpec.depth3(base, signs, rng.randint(-4, 4)).stages)
        for dim in range(4, rng.choice((4, 5)) + 1):
            phi = tuple(rng.choice((1, -1)) for _ in range(dim - 1))
            lifts = tuple(rng.randint(-3, 3) for _ in range((dim - 1) * (dim - 2) // 2))
            stages.append(Stage(dim, phi, lifts))
        spec = TowerSpec(tuple(stages))
        try:
            towers.build_tower_groups(spec)
        except (ExtensionError, ValueError):
            continue
        specs.append(spec)
    return specs


def classify_deep_text():
    """The JSON text pinned in golden/classify_deep.json: for each of
    deep_specs, its spec text and either classify_tower's type or the
    class and message of the exception it raises."""
    towers = []
    for spec in deep_specs():
        entry = {"spec": format_tower_spec(spec)}
        try:
            entry["type"] = classify_tower(spec).type
        except (ExtensionError, ValueError) as exc:
            entry["error"] = type(exc).__name__
            entry["message"] = str(exc)
        towers.append(entry)
    return json.dumps({"towers": towers}, indent=1) + "\n"


def base_presentation(case):
    kind, _ = CASE_DATA[case]
    return klein_presentation() if kind == "klein" else torus_presentation()


def base_group(case):
    """The engine's pc base of the given twist case: catalogue K or T2."""
    return catalogue_pc("K" if CASE_DATA[case][0] == "klein" else "T2")


def case_extension(case, k):
    """The depth-3 extension group for the given twist case and lift."""
    kind, signs = CASE_DATA[case]
    pres = klein_presentation() if kind == "klein" else torus_presentation()
    return build_extension(base_pc(pres), signs, [k], "n")


def reduction_at(case, k, r):
    """reduction_maps(case) read at one lift: the maps between the case
    extensions with lifts k and r = k mod 2, with n^m, m = (k - r) / 2, in
    place of mu and nu."""
    m = (k - r) // 2
    return tuple([v[:2] + (v[2] + m * v[3],) for v in maps[:3]] for maps in reduction_maps(case))


@pytest.fixture
def fresh_families():
    """The cached witness families and identifications are built, and
    checked, inside the test and forgotten after it, so that a test that
    breaks a map or the check leaves no failed family behind."""
    caches = (towers._family, towers._nil_family_holds, catalogue.base_identification, catalogue.nil_family)

    def clear():
        for cached in caches:
            cached.cache_clear()

    clear()
    yield clear
    clear()


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


def relators(p):
    """Defining relators x_i x_j x_i^-1 w^-1 of a pc presentation, one per
    positive rule."""
    rels = []
    for (i, j), w in p.positive_rules():
        lhs = gen(i) * gen(j) * gen(i, -1)
        rels.append(lhs * nf_to_word(w).inverse())
    return rels


def as_words(nfs):
    """A generator map given as normal forms, read as words."""
    return [nf_to_word(v) for v in nfs]


def collected(p, words):
    """The normal forms in p of a list of words: a generator map's images
    as verify_homomorphism and verify_isomorphism take them."""
    return [collect(p, w) for w in words]


def evaluate(p, w, images):
    """Normal form in p of the image of the word w under g -> images[g],
    where the images are normal forms of p: one collected power per
    syllable."""
    out = p.identity()
    for g, e in w:
        out = p._mult(out, images[g] if e == 1 else p._power(images[g], e))
    return out


def relator_images_if_homomorphism(src, dst, images):
    """The relator-word homomorphism check: collected images, or None if
    some relator of src does not map to the identity of dst."""
    rels = relators(src) if isinstance(src, PcPresentation) else src.relators
    nfs = [collect(dst, w) for w in images]
    for r in rels:
        if evaluate(dst, r, nfs) != dst.identity():
            return None
    return nfs


def relator_verify_isomorphism(a, b, fwd, bwd):
    """Both maps homomorphisms by relator words, and both round trips the
    identity on generators, through nf_to_word."""
    fwd_nf = relator_images_if_homomorphism(a, b, fwd)
    bwd_nf = relator_images_if_homomorphism(b, a, bwd)
    if fwd_nf is None or bwd_nf is None:
        return False
    for p, there, back in ((a, fwd_nf, bwd_nf), (b, bwd_nf, fwd_nf)):
        for i, v in enumerate(there):
            if evaluate(p, nf_to_word(v), back) != p._unit(i):
                return False
    return True


def substitute(w, images):
    """Apply the generator substitution g_i -> images[i] to the word w.  A
    syllable whose image is one syllable scales that syllable's exponent;
    any other image is repeated, and the whole word is reduced once."""
    out = []
    for g, e in w:
        if g >= len(images):
            raise ValueError(f"no image for generator index {g}")
        img = images[g].syllables
        if len(img) == 1:
            out.append((img[0][0], img[0][1] * e))
        else:
            out.extend((img if e > 0 else images[g].inverse().syllables) * abs(e))
    return Word(out)


def compose_maps(first, then):
    """Generator images of the composite map, as words: apply `first`, then
    `then`, by word substitution."""
    return [substitute(w, then) for w in first]


def central_words(label, k=None):
    """Generators of the centre of a catalogue group, typed by hand as words
    over its presentation: the oracle for polycyclic.center."""
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


def solve_fixed_lattice(mats):
    """Rank of the common fixed sublattice of Z^n under the given matrices:
    n minus the rank of the stacked blocks (A - I).  On the linear parts of
    a flat model it is the torus rank read off the model, the oracle for
    the rank of polycyclic.center."""
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].rows
    for a in mats:
        if a.rows != a.cols or a.rows != n:
            raise ValueError("dimension mismatch")
    stacked = []
    for a in mats:
        for i in range(n):
            stacked.append([a.entries[i][j] - (1 if i == j else 0) for j in range(n)])
    return n - rank(IntMatrix(stacked))


def _leading(v):
    return next(i for i, x in enumerate(v) if x)


def echelon(p, elements):
    """An echelon basis of the subgroup of p generated by commuting normal
    forms: level -> the one element whose first nonzero exponent is at that
    level, reduced by Euclid steps in the group law (the leading exponent
    is additive on <x_l, x_(l+1), ...>).  Its size is the rank of the
    subgroup."""
    rows = {}
    for g in elements:
        while any(g):
            lvl = _leading(g)
            if lvl not in rows:
                rows[lvl] = g
                break
            r = rows[lvl]
            g = nf_multiply(p, g, nf_power(p, r, -(g[lvl] // r[lvl])))
            if g[lvl]:  # a remainder smaller than r's leading exponent
                rows[lvl], g = g, r
    return rows


def in_span(p, rows, v):
    """Whether the normal form v lies in the subgroup with echelon basis
    rows, by sifting v down the levels."""
    while any(v):
        lvl = _leading(v)
        r = rows.get(lvl)
        if r is None or v[lvl] % r[lvl]:
            return False
        v = nf_multiply(p, v, nf_power(p, r, -(v[lvl] // r[lvl])))
    return True
