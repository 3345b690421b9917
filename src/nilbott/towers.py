"""Building iterated circle-bundle groups as polycyclic extensions, tower
specifications and their classification against the catalogue.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache

from .catalogue import base_identification, case_swap_maps, reduction_maps
from .cohomology import class_order, restriction_nonzero
from .polycyclic import (  # noqa: F401  (ExtensionError is re-exported)
    ExtensionError,
    PcPresentation,
    build_extension,
    collect,
    cyclic_pc,
    evaluate,
    require_integer_k,
    verify_isomorphism,
)
from .words import gen


class VerificationError(Exception):
    """The witness maps of a classification failed to verify."""


# -- tower specifications ----------------------------------------------------


@dataclass(frozen=True)
class Stage:
    dim: int
    phi: tuple[int, ...] = ()
    lifts: tuple[int, ...] = ()
    base_tag: str | None = None


@dataclass(frozen=True)
class TowerSpec:
    stages: tuple[Stage, ...]

    @property
    def depth(self) -> int:
        return self.stages[-1].dim

    @staticmethod
    def depth3(base: str, signs, k: int) -> "TowerSpec":
        if base not in ("K", "T2"):
            raise ValueError("depth-3 towers are built over K or T2")
        _check_lift(3, k)
        phi2 = (-1,) if base == "K" else (1,)
        return TowerSpec(
            (
                Stage(1),
                Stage(2, phi2, (), "S1"),
                Stage(3, tuple(signs), (k,), base),
            )
        )


HEADER = "nilbott-tower v1"


def parse_signs(items, names, where: str = "") -> tuple[int, ...]:
    """Twist signs from (name, sign) text pairs, resolved by name against
    names and returned in that order.  An unknown, repeated or missing
    name, or a sign other than 1, +1 or -1, raises ValueError; where
    prefixes the message."""
    signs = {}
    for name, sign in items:
        if name not in names:
            raise ValueError(
                f"{where}unknown generator {name!r} in phi "
                f"(expected {', '.join(names)})"
            )
        if name in signs:
            raise ValueError(f"{where}generator {name!r} appears twice in phi")
        if sign not in ("1", "+1", "-1"):
            raise ValueError(
                f"{where}sign of {name!r} must be +1 or -1, got {sign!r}"
            )
        signs[name] = int(sign)
    missing = [n for n in names if n not in signs]
    if missing:
        raise ValueError(f"{where}phi has no sign for {', '.join(missing)}")
    return tuple(signs[n] for n in names)


#: an integer as the spec format writes it: ASCII digits with an optional sign
_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _check_base_tag(dim: int, tag: str, stages):
    """A base= tag must name the group the stage is built over: S1 at
    stage 2, and at stage 3 the Klein bottle or torus that stage 2's
    twist gives.  Deeper stages take no tag."""
    if dim == 2:
        expected = "S1"
    elif dim == 3:
        expected = "K" if stages[1].phi == (-1,) else "T2"
    else:
        raise ValueError(f"stage {dim}: takes no base= (only stages 2 and 3 do)")
    if tag != expected:
        raise ValueError(f"stage {dim}: base= must be {expected}, got {tag!r}")


def parse_tower_spec(text: str) -> TowerSpec:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != HEADER:
        raise ValueError(f"tower spec must start with {HEADER!r}")
    stages = []
    for ln in lines[1:]:
        if not ln.startswith("stage "):
            raise ValueError(f"bad stage line {ln!r}")
        head, _, rest = ln[len("stage "):].partition(":")
        if not _DECIMAL.fullmatch(head.strip()):
            raise ValueError(f"stage number must be an integer, got {head!r}")
        dim = int(head)
        if dim != len(stages) + 1:
            raise ValueError("stages must have dimensions 1, 2, ... in order")
        rest = rest.strip()
        if dim == 1:
            if rest != "S1":
                raise ValueError("stage 1 must be S1")
            stages.append(Stage(1))
            continue
        phi = None
        lifts = ()
        base_tag = None
        seen = set()
        for token in rest.split():
            key, _, val = token.partition("=")
            if key in seen:
                raise ValueError(f"stage {dim}: field {key!r} given twice")
            seen.add(key)
            if key == "base":
                base_tag = val
            elif key == "phi":
                if not (val.startswith("{") and val.endswith("}")):
                    raise ValueError(f"stage {dim}: bad phi value {val!r}")
                items = [item.partition(":")[::2] for item in val[1:-1].split(",")]
                phi = parse_signs(items, tower_names(dim - 1), f"stage {dim}: ")
            elif key == "k":
                texts = val.split(",")
                if not all(_DECIMAL.fullmatch(x) for x in texts):
                    raise ValueError(f"stage {dim}: k= must be integers, got {val!r}")
                if any(len(x.lstrip("+-")) > MAX_LIFT_DIGITS for x in texts):
                    raise ValueError(_too_many_digits(dim))
                lifts = tuple(int(x) for x in texts)
            else:
                raise ValueError(f"stage {dim}: unknown field {key!r}")
        if base_tag is not None:
            _check_base_tag(dim, base_tag, stages)
        if phi is None:
            raise ValueError(f"stage {dim} needs phi=")
        need = (dim - 1) * (dim - 2) // 2  # one lift per conjugation rule
        if need == 0 and lifts:
            raise ValueError(f"stage {dim}: takes no k= (the stage below has no relators)")
        if len(lifts) != need:
            raise ValueError(
                f"stage {dim}: k= must list {need} lift integers, got {len(lifts)}"
            )
        stages.append(Stage(dim, phi, lifts, base_tag))
    spec = TowerSpec(tuple(stages))
    _validate_dims(spec)
    return spec


def format_tower_spec(spec: TowerSpec) -> str:
    _validate_dims(spec)
    lines = [HEADER, "stage 1: S1"]
    for stage in spec.stages[1:]:
        phi_text = ",".join(
            f"{name}:{'+' if sg > 0 else '-'}1"
            for name, sg in zip(tower_names(stage.dim - 1), stage.phi)
        )
        fields = []
        if stage.base_tag:
            fields.append(f"base={stage.base_tag}")
        fields.append(f"phi={{{phi_text}}}")
        if stage.lifts:
            fields.append("k=" + ",".join(str(x) for x in stage.lifts))
        lines.append(f"stage {stage.dim}: " + " ".join(fields))
    return "\n".join(lines) + "\n"


def _validate_dims(spec: TowerSpec):
    dims = [s.dim for s in spec.stages]
    if dims != list(range(1, len(dims) + 1)):
        raise ValueError("stages must have dimensions 1, 2, ... in order")
    if not dims:
        raise ValueError("empty tower")


_TOWER_NAMES = ("g", "h", "n", "m", "f", "q")


def tower_names(dim: int) -> tuple[str, ...]:
    """Generator names of the stage-dim group, bottom up: g, h, n, m, f, q,
    then z6, z7, ..."""
    return tuple(
        _TOWER_NAMES[i] if i < len(_TOWER_NAMES) else f"z{i}" for i in range(dim)
    )


#: the most decimal digits of a twisting integer in any tower.  Labels
#: and witnesses print their integers, and Python refuses to print an int
#: of more than 4300 digits (sys.int_info.default_max_str_digits).
MAX_LIFT_DIGITS = 4000
_LIFT_LIMIT = 10**MAX_LIFT_DIGITS

#: the largest bit length of a twisting integer in a tower of depth 4 or
#: more.  Collection there costs a power of the bit length that grows with
#: the depth; the slowest depth-5 tower found with every integer at this
#: bound classifies in about 0.5 s on a 2-vCPU Xeon at 2.1 GHz.  Depth 3
#: is bounded by MAX_LIFT_DIGITS only.
DEEP_LIFT_BITS = 128


def _too_many_digits(dim: int) -> str:
    return (
        f"stage {dim}: a twisting integer has more than {MAX_LIFT_DIGITS} "
        f"decimal digits"
    )


def _check_lift(dim: int, x, deep: bool = False):
    """ValueError naming stage dim unless x is an int of at most
    MAX_LIFT_DIGITS digits and, in a tower of depth 4 or more (deep), of
    at most DEEP_LIFT_BITS bits."""
    require_integer_k(x)
    if abs(x) >= _LIFT_LIMIT:
        raise ValueError(_too_many_digits(dim))
    if deep and x.bit_length() > DEEP_LIFT_BITS:
        raise ValueError(
            f"stage {dim}: a twisting integer of {x.bit_length()} bits "
            f"is above the bound of {DEEP_LIFT_BITS} bits for towers of "
            f"depth 4 or more"
        )


def build_tower_groups(spec: TowerSpec) -> list[PcPresentation]:
    """Fundamental group of every stage, bottom up, with generators named
    by tower_names.  A twisting integer of more than MAX_LIFT_DIGITS
    digits, or in a deep tower of more than DEEP_LIFT_BITS bits, raises
    ValueError before anything is built."""
    _validate_dims(spec)
    for stage in spec.stages:
        for x in stage.lifts:
            _check_lift(stage.dim, x, spec.depth >= 4)
    stages = spec.stages[1:]
    if stages and not stages[0].lifts:
        groups = list(_low_stages(tuple(stages[0].phi)))
        stages = stages[1:]
    else:
        groups = [cyclic_pc("g")]
    for stage in stages:
        groups.append(
            build_extension(
                groups[-1], stage.phi, stage.lifts, tower_names(stage.dim)[-1]
            )
        )
    return groups


@cache
def _low_stages(phi) -> tuple[PcPresentation, PcPresentation]:
    """The stage-1 and stage-2 groups, built once per stage-2 twist (the
    Klein bottle or the torus) and shared."""
    circle = cyclic_pc("g")
    return circle, build_extension(circle, phi, (), tower_names(2)[-1])


# -- classification ----------------------------------------------------------


#: the seven tabulated depth-3 cases: number -> (base kind, twist signs);
#: the torus twist (-1, +1) is case 6 after swapping the base generators
CASES = {
    1: ("klein", (1, 1)),
    2: ("klein", (1, -1)),
    3: ("klein", (-1, 1)),
    4: ("klein", (-1, -1)),
    5: ("torus", (1, 1)),
    6: ("torus", (1, -1)),
    7: ("torus", (-1, -1)),
}
_CASE_OF = {pattern: case for case, pattern in CASES.items()}
#: case_swap_maps carry cases 4 and 7 onto these cases
_SWAPPED_CASE = {4: 2, 7: 6}


@dataclass
class ClassificationVerdict:
    label: str
    type: str  # "finite" | "infinite"
    case: int | None = None
    k: int | None = None
    witness_fwd: dict = field(default_factory=dict)
    witness_bwd: dict = field(default_factory=dict)
    target: str = ""

    def to_dict(self):
        return {
            "label": self.label,
            "type": self.type,
            "case": self.case,
            "k": self.k,
            "witness_fwd": dict(sorted(self.witness_fwd.items())),
            "witness_bwd": dict(sorted(self.witness_bwd.items())),
            "target": self.target,
        }


def classify_tower(spec: TowerSpec) -> ClassificationVerdict:
    """Resolve a tower to its catalogue label and finite/infinite type.

    Depth 3 labels are backed by generator maps that are mechanically
    verified in both directions before being returned; deeper towers get
    the type decision only (restriction criterion) with label
    'unclassified'.
    """
    groups = build_tower_groups(spec)
    depth = spec.depth
    if depth == 1:
        return ClassificationVerdict("S1", "finite")
    base_kind_ = "klein" if spec.stages[1].phi == (-1,) else "torus"
    if depth == 2:
        return ClassificationVerdict("K" if base_kind_ == "klein" else "T2", "finite")

    signs = spec.stages[2].phi
    k = spec.stages[2].lifts[0]
    order3 = class_order(groups[1], signs, k)
    finite = order3.is_finite
    if depth > 3:
        for g in groups[3:]:
            if not finite:
                break
            finite = finite and not restriction_nonzero(g)
        return ClassificationVerdict(
            "unclassified", "finite" if finite else "infinite"
        )

    ext = groups[2]
    case, k_eff, chain_fwd, chain_bwd = _normalize_case(base_kind_, signs, k)
    # a finite-order class with k_eff outside {0, 1} lies in a Z_2 of the
    # H^2, where only k_eff mod 2 matters
    if order3.is_finite and k_eff % 2 != k_eff:
        red_fwd, red_bwd = reduction_maps(case, k_eff, k_eff % 2)
        chain_fwd, chain_bwd = chain_fwd + [red_fwd], [red_bwd] + chain_bwd
        k_eff %= 2
    label, target, id_fwd, id_bwd = base_identification(case, k_eff)
    fwd = _fold(target, chain_fwd + [id_fwd])
    bwd = _fold(ext, [id_bwd] + chain_bwd)
    if not verify_isomorphism(ext, target, fwd, bwd):
        raise VerificationError(f"witness maps for {label} failed verification")
    return ClassificationVerdict(
        label=label,
        type="finite" if finite else "infinite",
        case=case,
        k=k,
        witness_fwd={name: target.nf_str(v) for name, v in zip(ext.names, fwd)},
        witness_bwd={name: ext.nf_str(v) for name, v in zip(target.names, bwd)},
        target=label.split("(")[0],
    )


def _fold(p: PcPresentation, maps):
    """Normal forms in p of the generator images of the composite of maps,
    applied first to last; each map is a list of words, one per generator,
    and the last map's words are over p's generators."""
    *earlier, last = maps
    images = [collect(p, w) for w in last]
    for step in reversed(earlier):
        images = [evaluate(p, w, images) for w in step]
    return images


def _normalize_case(kind: str, signs, k: int):
    """Map the built extension into one of the five cases that
    base_identification and reduction_maps cover.

    Returns (case, k, fwd, bwd) where fwd and bwd are the chains of
    generator maps that carry the generators into the normalized extension
    and back: one map, or none when no renaming applies.
    """
    if (kind, signs) == ("torus", (-1, 1)):
        # generator swap turns this into case 6 with the lift negated
        swap = [gen(1), gen(0), gen(2)]
        return 6, -k, [swap], [swap]
    case = _CASE_OF[kind, signs]
    if case in _SWAPPED_CASE:
        fwd, bwd = case_swap_maps(case)
        return _SWAPPED_CASE[case], k, [fwd], [bwd]
    return case, k, [], []
