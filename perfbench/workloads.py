"""Seeded inputs, the item runner and the independent output oracle for the
three benchmark workloads.

A pass of a workload is a fixed number of rounds; a round is a list of
items with a fixed composition.  Inputs depend only on (workload, seed);
the generator never calls the engine.
The oracle is written from the paper's realization tables and does not
use the classifier or the CLI tables; which stage of a deeper tower must
be rejected is decided in advance by extension_oracle.py.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from extension_oracle import rejection
from nilbott import catalogue, geometry, towers
from nilbott.towers import ExtensionError, Stage, TowerSpec

#: the eight (base, phi) sign patterns of a depth-3 tower: the seven table
#: cases plus the torus (-1,+1) pattern, which the engine swaps into case 6
PATTERNS = (
    ("K", (1, 1)),
    ("K", (1, -1)),
    ("K", (-1, 1)),
    ("K", (-1, -1)),
    ("T2", (1, 1)),
    ("T2", (1, -1)),
    ("T2", (-1, 1)),
    ("T2", (-1, -1)),
)

_CASE = {
    ("K", (1, 1)): 1,
    ("K", (1, -1)): 2,
    ("K", (-1, 1)): 3,
    ("K", (-1, -1)): 4,
    ("T2", (1, 1)): 5,
    ("T2", (1, -1)): 6,
    ("T2", (-1, 1)): 6,
    ("T2", (-1, -1)): 7,
}

#: catalogue entries of `nilbott verify --suite freeness`, with the number
#: of generators of each group
FREENESS_ENTRIES = (
    ("B1", 3), ("B2", 3), ("B3", 3), ("B4", 3), ("Delta", 3),
    ("G2", 3), ("Gamma", 3), ("K", 2), ("T2", 2), ("T3", 3),
)

BIGK_BITS = (6, 7, 8, 9, 10)
MAXLENS = (4, 5, 6)

#: rounds in one pass; a timed run repeats the pass, the traced run makes it
#: once untraced and twice traced
PASS_ROUNDS = {"towers-small": 12, "towers-bigk": 12, "freeness": 3}


@dataclass(frozen=True)
class Item:
    kind: str  # "tower" | "freeness"
    spec: TowerSpec | None = None
    pattern: tuple | None = None  # (base, phi) of the depth-3 prefix
    k: int = 0  # lift of the depth-3 prefix, or the Delta/Gamma twist
    bits: int = 0  # bit length of |k| on towers-bigk, else 0
    label: str = ""  # freeness catalogue label
    ngens: int = 0
    maxlen: int = 0
    reject: str = ""  # depth >= 4: "" (accepted), "phi" or "cocycle"

    @property
    def depth(self) -> int:
        return self.spec.depth if self.spec else 0


# -- oracle ------------------------------------------------------------------


def expected_depth3(pattern, k: int) -> tuple[str, str]:
    """(label, type) of a depth-3 tower from the realization tables."""
    case = _CASE[pattern]
    if case in (1, 6, 7):
        label = "B1" if k % 2 == 0 else "B2"
    elif case in (2, 4):
        label = "B3" if k % 2 == 0 else "B4"
    elif case == 3:
        label = "G2" if k == 0 else f"Gamma({k})"
    else:
        label = "T3" if k == 0 else f"Delta({-k})"
    infinite = case in (3, 5) and k != 0
    return label, "infinite" if infinite else "finite"


def l1_ball_points(ngens: int, radius: int) -> int:
    """Nonzero integer vectors of length ngens with |v|_1 <= radius."""
    return sum(2**i * comb(ngens, i) * comb(radius, i) for i in range(1, ngens + 1))


def run_item(item: Item):
    # calls go through the modules so that the traced run sees them
    if item.kind == "tower":
        return towers.classify_tower(item.spec)
    group = catalogue.catalogue_pc(item.label, item.k or None)
    rep = geometry.catalogue_representation(item.label, item.k or None)
    return geometry.freeness_sample(group, rep, item.maxlen)


def check(item: Item, out) -> tuple[bool, bool]:
    """(correct, rejected) for one outcome; out is a result or the
    exception the item raised."""
    if item.kind == "freeness":
        ok = (
            not isinstance(out, BaseException)
            and out.is_free_sample
            and out.words_checked == l1_ball_points(item.ngens, item.maxlen)
        )
        return ok, False
    if item.depth == 3:
        if isinstance(out, BaseException):
            return False, False
        return (out.label, out.type) == expected_depth3(item.pattern, item.k), False
    if item.reject == "cocycle":
        return isinstance(out, ExtensionError), True
    if item.reject == "phi":
        return isinstance(out, ValueError), True
    if isinstance(out, BaseException):
        return False, False
    prefix_infinite = expected_depth3(item.pattern, item.k)[1] == "infinite"
    ok = out.label == "unclassified" and out.type in ("finite", "infinite")
    if prefix_infinite:
        ok = ok and out.type == "infinite"
    return ok, False


# -- generators ----------------------------------------------------------------


def _depth3(pattern, k: int, bits: int = 0) -> Item:
    base, signs = pattern
    return Item("tower", TowerSpec.depth3(base, signs, k), pattern, k, bits)


def _lift(rng: random.Random) -> int:
    return 0 if rng.random() < 0.7 else rng.choice((1, -1))


def _deep(rng: random.Random, depth: int) -> Item:
    pattern = rng.choice(PATTERNS)
    k = rng.randint(-16, 16)
    stages = list(TowerSpec.depth3(pattern[0], pattern[1], k).stages)
    for dim in range(4, depth + 1):
        ngens = dim - 1
        phi = tuple(rng.choice((1, -1)) for _ in range(ngens))
        lifts = tuple(_lift(rng) for _ in range(ngens * (ngens - 1) // 2))
        stages.append(Stage(dim, phi, lifts))
    reject = rejection([(s.phi, s.lifts) for s in stages[1:]])
    return Item("tower", TowerSpec(tuple(stages)), pattern, k, reject=reject)


def _towers_small(rng: random.Random, nrounds: int):
    """Rounds of 80: each pattern 7 times at depth 3 with k uniform in
    [-16, 16], then 12 depth-4 and 12 depth-5 towers with random signs
    and lifts that are 0 with probability 0.7, else +-1."""
    rounds = []
    for _ in range(nrounds):
        items = [_depth3(p, rng.randint(-16, 16)) for p in PATTERNS for _ in range(7)]
        items += [_deep(rng, 4) for _ in range(12)]
        items += [_deep(rng, 5) for _ in range(12)]
        rng.shuffle(items)
        rounds.append(items)
    return rounds


def _towers_bigk(rng: random.Random, nrounds: int):
    """One depth-3 tower per (pattern, bit length) cell and round.

    Within a cell, half the rounds get an even k and half an odd one (the
    split and the non-split torsion class).  For each parity, |k| takes
    one value per equal-width stratum of the bit range, jittered by the
    seed, and the rounds take the values in seeded order.  The sign of k
    is random.
    """
    half = nrounds // 2
    cells = []
    for pattern in PATTERNS:
        for bits in BIGK_BITS:
            lo, hi = 2 ** (bits - 1), 2**bits - 1
            ks = []
            for parity in (0, 1):
                for j in range(half):
                    u = (j + 0.5 + rng.uniform(-0.1, 0.1)) / half
                    mag = lo + int(u * (hi - lo + 1))
                    if mag % 2 != parity:
                        mag = mag + 1 if mag < hi else mag - 1
                    ks.append(rng.choice((1, -1)) * mag)
            rng.shuffle(ks)
            cells.append((pattern, bits, ks))
    rounds = []
    for r in range(2 * half):
        items = [_depth3(pattern, ks[r], bits) for pattern, bits, ks in cells]
        rng.shuffle(items)
        rounds.append(items)
    return rounds


def _freeness(rng: random.Random, nrounds: int):
    """One freeness sample per (catalogue entry, max word length) cell and
    round; Delta and Gamma take k = +-[1, 64]."""
    rounds = []
    for _ in range(nrounds):
        items = []
        for label, ngens in FREENESS_ENTRIES:
            for maxlen in MAXLENS:
                k = 0
                if label in ("Delta", "Gamma"):
                    k = rng.choice((1, -1)) * rng.randint(1, 64)
                items.append(Item("freeness", k=k, label=label, ngens=ngens, maxlen=maxlen))
        rng.shuffle(items)
        rounds.append(items)
    return rounds


_MAKERS = {
    "towers-small": _towers_small,
    "towers-bigk": _towers_bigk,
    "freeness": _freeness,
}


def make_pass(workload: str, seed: int) -> list[Item]:
    """The items of one pass, in order; a pass is whole rounds."""
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    rounds = _MAKERS[workload](rng, PASS_ROUNDS[workload])
    return [item for items in rounds for item in items]


def describe(item: Item) -> str:
    if item.kind == "freeness":
        return f"freeness {item.label} k={item.k} maxlen={item.maxlen}"
    stages = " ".join(f"{s.dim}:{s.phi}/{s.lifts}" for s in item.spec.stages[1:])
    return f"tower {stages}"
