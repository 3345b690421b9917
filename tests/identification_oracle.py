"""The catalogue identification of every depth-3 case, the nil cases
included, and the depth-3 verdict as the classifier made it when each
verdict assembled its extension: Delta(-k) and Gamma(k) are the built
extension ext itself, renamed to the catalogue's generator names, with
the identity as both maps, and every witness is printed by the groups
themselves (nf_str).  The flat cases are catalogue.base_identification,
and a flat verdict's maps are specialised from its family with tau_m as
a power of c and a product collected in the target (specialise).
"""

from copy import copy

from nilbott import catalogue, towers
from nilbott.catalogue import CASES, nil_family
from nilbott.cohomology import class_order
from nilbott.towers import build_tower_groups

IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def renamed(p, names):
    """The pc group p with its generators renamed; the copy shares the
    rules and the cached conjugation powers, so nothing is rebuilt."""
    q = copy(p)
    q.names = tuple(names)
    return q


def base_identification(case, k, ext=None):
    """(label, target, fwd, bwd) of the case-`case` extension ext with lift
    k: for k != 0 in the nil cases 3 and 5, ext under nil_family's names
    with identity maps; otherwise catalogue.base_identification."""
    if k and case in (3, 5):
        label, names, sign, _ = nil_family(case)
        return f"{label}({sign * k})", renamed(ext, names), IDENTITY, IDENTITY
    return catalogue.base_identification(case, k)


def specialise(family, k):
    """The witness maps (fwd, bwd) of the lift k from its family, as
    towers._specialise gives them: tau_m of F^ multiplies the target part
    of each image by c^(m e), e its nu exponent, here collected in the
    target (t._power and t._mult); sigma_m of B^ adds m times the mu
    exponent to the n exponent; m = (sign * k - r) / 2."""
    m = (family.sign * k - k % 2) // 2
    t, c = family.target, family.fwd[2][:3]
    fwd = [v[:3] if not v[3] else t._mult(v[:3], t._power(c, m * v[3])) for v in family.fwd[:3]]
    bwd = [v[:2] + (v[2] + m * v[3],) for v in family.bwd[:3]]
    return fwd, bwd


def assembled_verdict(spec):
    """classify_tower(spec).to_dict() for a depth-3 spec, read off the
    assembled tower: the extension from build_tower_groups, the flat maps
    specialised from the cached family of the pattern, and the witnesses
    formatted by the extension and the target group with nf_str."""
    _, base, ext = build_tower_groups(spec)
    kind = "klein" if spec.stages[1].phi == (-1,) else "torus"
    signs, (k,) = spec.stages[2].phi, spec.stages[2].lifts
    finite = class_order(base, signs, (k,)).is_finite
    if finite:
        family = towers._family(kind, signs, k % 2)
        case, label, target = family.case, family.label, family.target
        fwd, bwd = specialise(family, k)
    else:
        case = next(c for c, pattern in CASES.items() if pattern == (kind, signs))
        label, target, fwd, bwd = base_identification(case, k, ext)
    return {
        "label": label,
        "type": "finite" if finite else "infinite",
        "case": case,
        "k": k,
        "witness_fwd": {n: target.nf_str(v) for n, v in sorted(zip(ext.names, fwd))},
        "witness_bwd": {n: ext.nf_str(v) for n, v in sorted(zip(target.names, bwd))},
        "target": label.split("(")[0],
    }
