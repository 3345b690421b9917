"""The rule-wise homomorphism check against the relator-word oracle.

verify_homomorphism checks each positive rule x_i x_j x_i^-1 = w of its
pc source as a_i a_j = W a_i on the normal forms a_g of the images.  The
oracle in conftest collects the image words and evaluates the relator
words x_i x_j x_i^-1 w^-1 instead, and its isomorphism check tests both
maps and both round trips through nf_to_word, while verify_isomorphism
tests fwd and one round trip.  Both must give the same
verdict on the witness maps of classify_tower, on near misses of them (one
exponent of one image moved by 1), at |k| = 2^64 + 1 too, on maps between
built depth-3/4 groups and on seeded random image tuples.
"""

import random
from collections import Counter

from conftest import (
    CENTRAL4,
    DEPTH4,
    PATTERNS,
    collected,
    relator_images_if_homomorphism,
    relator_verify_isomorphism,
)
from nilbott.catalogue import FLAT_LABELS, catalogue_pc
from nilbott.polycyclic import collect, verify_homomorphism, verify_isomorphism
from nilbott.towers import TowerSpec, build_tower_groups, classify_tower, parse_tower_spec
from nilbott.words import gen, parse_word
from pc_oracle import nf_to_word


def _witnesses(ks):
    """(ext, target, fwd, bwd) of classify_tower on every sign pattern, at
    each twisting integer of ks."""
    for base, signs in PATTERNS:
        for k in ks:
            spec = TowerSpec.depth3(base, signs, k)
            v = classify_tower(spec)
            ext = build_tower_groups(spec)[2]
            twist = int(v.label[len(v.target) + 1:-1]) if "(" in v.label else None
            target = catalogue_pc(v.target, twist)
            fwd = [parse_word(v.witness_fwd[n], target.names) for n in ext.names]
            bwd = [parse_word(v.witness_bwd[n], ext.names) for n in target.names]
            yield ext, target, fwd, bwd


def _near_miss(dst, images, rng):
    """images with one exponent of one image's normal form moved by +-1."""
    i = rng.randrange(len(images))
    v = list(collect(dst, images[i]))
    v[rng.randrange(dst.ngens)] += rng.choice((1, -1))
    return images[:i] + [nf_to_word(tuple(v))] + images[i + 1:]


def _random_images(src, dst, rng):
    return [
        nf_to_word(tuple(rng.randint(-2, 2) for _ in range(dst.ngens)))
        for _ in range(src.ngens)
    ]


def _cases():
    """Homomorphism cases (src, dst, images) and isomorphism cases
    (a, b, fwd, bwd)."""
    rng = random.Random(20110)
    homs, isos = [], []

    def add_iso(a, b, fwd, bwd):
        isos.append((a, b, fwd, bwd))
        homs.append((a, b, fwd))
        homs.append((b, a, bwd))

    for ext, target, fwd, bwd in _witnesses((0, 1, -3, 11)):
        add_iso(ext, target, fwd, bwd)
        for _ in range(3):
            add_iso(ext, target, _near_miss(target, fwd, rng), bwd)
            add_iso(ext, target, fwd, _near_miss(ext, bwd, rng))

    deep = []
    for text in (DEPTH4, CENTRAL4):
        groups = build_tower_groups(parse_tower_spec(text))
        top, below = groups[3], groups[2]
        deep += [top, below]
        ident = [gen(i) for i in range(4)]
        add_iso(top, top, ident, ident)
        # the quotient by the fiber m is a homomorphism onto the stage below
        quotient = [gen(0), gen(1), gen(2), gen(0, 0)]
        homs.append((top, below, quotient))
        for _ in range(6):
            add_iso(top, top, _near_miss(top, ident, rng), ident)
            homs.append((top, below, _near_miss(below, quotient, rng)))

    pool = [catalogue_pc(label) for label in ("S1", "T2", "K") + FLAT_LABELS]
    pool += [catalogue_pc("Delta", 2), catalogue_pc("Gamma", -3)] + deep
    pool += [build_tower_groups(TowerSpec.depth3(b, s, 5))[2] for b, s in PATTERNS]
    circle = catalogue_pc("S1")
    for p in pool[1:]:
        # t -> x_0 and the projection onto x_0 are homomorphisms whose
        # composite is the identity on S1 only: one round trip fails
        onto = [gen(0)] + [gen(0, 0)] * (p.ngens - 1)
        add_iso(circle, p, [gen(0)], onto)
        add_iso(p, circle, onto, [gen(0)])
    for _ in range(60):
        a, b = rng.choice(pool), rng.choice(pool)
        add_iso(a, b, _random_images(a, b, rng), _random_images(b, a, rng))
    # at |k| = 2^64 + 1 only bwd is moved: fwd stays a homomorphism, and
    # only the round trip can reject
    big = 2**64 + 1
    for ext, target, fwd, bwd in _witnesses((big, -big)):
        add_iso(ext, target, fwd, bwd)
        for _ in range(3):
            add_iso(ext, target, fwd, _near_miss(ext, bwd, rng))
    return homs, isos


def test_rule_wise_check_matches_relator_oracle():
    homs, isos = _cases()
    seen = Counter()
    for src, dst, images in homs:
        verdict = verify_homomorphism(src, dst, collected(dst, images))
        oracle = relator_images_if_homomorphism(src, dst, images) is not None
        assert verdict == oracle, (src, dst, images)
        seen["hom", verdict] += 1
    for a, b, fwd, bwd in isos:
        fwd_nf, bwd_nf = collected(b, fwd), collected(a, bwd)
        verdict = verify_isomorphism(a, b, fwd_nf, bwd_nf)
        assert verdict == relator_verify_isomorphism(a, b, fwd, bwd), (a, b, fwd, bwd)
        seen["iso", verdict] += 1
        if not verdict and verify_homomorphism(a, b, fwd_nf):
            # only the ngens test or the round trip fwd(bwd(y)) = y rejects
            seen["fwd hom, not iso"] += 1
            if verify_homomorphism(b, a, bwd_nf):
                seen["round trip fails"] += 1
    for key in (
        ("hom", True), ("hom", False), ("iso", True), ("iso", False),
        "fwd hom, not iso", "round trip fails",
    ):
        assert seen[key] >= 20, (key, seen)
