"""Building iterated circle-bundle groups as polycyclic extensions, tower
specifications and their classification against the catalogue.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache, cached_property

from .catalogue import (
    BASES, CASES, EXT, base_identification, case_swap_maps, nil_family, reduction_maps
)
from .cohomology import class_order
from .polycyclic import (  # noqa: F401  (ExtensionError is re-exported)
    ExtensionError,
    PcPresentation,
    build_extension,
    cyclic_pc,
    lift_count,
    nf_str,
    require_integer_k,
    twist_signs,
    verify_isomorphism,
)
from .words import _word_sign


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
    for dim, stage in enumerate(spec.stages, 1):
        if stage.dim != dim:
            raise ValueError("stages must have dimensions 1, 2, ... in order")
    if not spec.stages:
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
#: the depth.  In a seeded search of 600 depth-4 and 600 depth-5 towers
#: with every integer at this bound (2^128 minus a few, or 0), the slowest
#: accepted tower classifies in 2.5 ms and the slowest rejected one raises
#: in 3 ms, on a 2-vCPU Xeon at 2.1 GHz.  Reading a rejection's message,
#: as the classify command does, collects both sides of the broken rule at
#: the size of the lifts: up to 0.23 s at depth 5.  Depth 3 is bounded by
#: MAX_LIFT_DIGITS only.
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
    ValueError before anything is built; a stage whose signs are not a
    twist of the stage below raises ValueError naming the stage."""
    groups = _low_groups(spec)
    for stage in spec.stages[2:]:
        signs, lifts = _stage_args(stage, groups[-1])
        groups.append(PcPresentation._extend(groups[-1], tower_names(stage.dim)[-1], signs, lifts))
    return groups


def _stage_args(stage: Stage, base: PcPresentation):
    """The twist signs and lifts of stage over base, the group of the stage
    below, with a ValueError naming the stage: the twist checked by
    twist_signs and the number of lifts by lift_count.  The type of every
    lift was checked by _low_groups (_check_lift) before any stage."""
    try:
        return twist_signs(base, stage.phi), lift_count(base, stage.lifts)
    except ValueError as exc:
        raise ValueError(f"stage {stage.dim}: {exc}") from None


def _low_groups(spec: TowerSpec) -> list[PcPresentation]:
    """The stage-1 and stage-2 groups of spec (the circle alone at depth
    1), after the checks that come before any stage above: the dims, the
    bound of every twisting integer and stage 2's twist of the circle."""
    _validate_dims(spec)
    depth = len(spec.stages)
    for stage in spec.stages:
        for x in stage.lifts:
            _check_lift(stage.dim, x, depth >= 4)
    if depth == 1:
        return [_CIRCLE]
    signs, _ = _stage_args(spec.stages[1], _CIRCLE)
    return list(_low_stages(signs))


#: the stage-1 group of every tower
_CIRCLE = cyclic_pc("g")


@cache
def _low_stages(phi) -> tuple[PcPresentation, PcPresentation]:
    """The stage-1 and stage-2 groups, built once per stage-2 twist (the
    Klein bottle or the torus) and shared."""
    return _CIRCLE, build_extension(_CIRCLE, phi, (), tower_names(2)[-1])


# -- classification ----------------------------------------------------------


#: (base kind, twist signs) -> case, from CASES, the seven tabulated cases,
#: which live in catalogue with the witness maps keyed by them
_CASE_OF = {pattern: case for case, pattern in CASES.items()}
#: case_swap_maps carry cases 4 and 7 onto these cases
_SWAPPED_CASE = {4: 2, 7: 6}
#: the identity map of a depth-3 group, as normal forms
_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@dataclass
class ClassificationVerdict:
    """A tower's label and type; at depth 3 also its case, lift and witness
    maps.  maps holds the maps as normal forms, (source names, target
    names, fwd, bwd); witness_fwd and witness_bwd are them as text,
    formatted on first read and kept, since printing an exponent of
    thousands of digits costs more than the rest of a verdict."""

    label: str
    type: str  # "finite" | "infinite"
    case: int | None = None
    k: int | None = None
    target: str = ""
    maps: tuple | None = field(default=None, repr=False, compare=False)

    @cached_property
    def witness_fwd(self) -> dict:
        if self.maps is None:
            return {}
        source, target, fwd, _ = self.maps
        return {name: nf_str(v, target) for name, v in zip(source, fwd)}

    @cached_property
    def witness_bwd(self) -> dict:
        if self.maps is None:
            return {}
        source, target, _, bwd = self.maps
        return {name: nf_str(v, source) for name, v in zip(target, bwd)}

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

    Depth 3 labels are backed by generator maps in both directions, as
    normal forms proved once per family of lifts; the verdict runs the
    stage checks of build_tower_groups and assembles no group.  A flat
    verdict reads its maps off the family of its sign pattern and lift
    parity (_family): the witness chain lifted to the family tower E^,
    whose extra generator mu stands for n^m, and checked there once by
    verify_isomorphism; sigma_m (mu -> n^m) and tau_m (nu -> c^m)
    specialise it to the lift k (_specialise).  Delta(-k) and Gamma(k)
    are the extension under the names of nil_family, with identity maps,
    checked once per case (_nil_family_holds).  A failed family check
    raises VerificationError on every verdict of the family.  Deeper
    towers get the type decision only, with label 'unclassified'.  At
    every depth the type is read off class_order of each stage from 3
    up: infinite iff some stage's class has infinite order.
    """
    depth = len(spec.stages)  # spec.depth, once either call has checked the dims
    groups = _low_groups(spec) if depth == 3 else build_tower_groups(spec)
    if depth == 1:
        return ClassificationVerdict("S1", "finite")
    kind = "klein" if spec.stages[1].phi[0] == -1 else "torus"
    if depth == 2:
        return ClassificationVerdict(BASES[kind], "finite")

    if depth == 3:
        signs, (k,) = _stage_args(spec.stages[2], groups[1])
    finite = True
    for g, st in zip(groups[1:], spec.stages[2:]):
        finite = finite and class_order(g, st.phi, st.lifts).is_finite
    if depth > 3:
        return ClassificationVerdict("unclassified", "finite" if finite else "infinite")
    if finite:
        family = _family(kind, signs, k % 2)
        case, label, names, holds = family.case, family.label, family.target.names, family.holds
        fwd, bwd = _specialise(family, k)
    else:
        case = _CASE_OF[kind, signs]
        label, names, sign, _ = nil_family(case)
        label, fwd, bwd = f"{label}({sign * k})", _IDENTITY, _IDENTITY
        holds = _nil_family_holds(case)
    if not holds:
        raise VerificationError(f"witness maps for {label} failed verification")
    return ClassificationVerdict(
        label=label,
        type="finite" if finite else "infinite",
        case=case,
        k=k,
        target=label.split("(")[0],
        maps=(EXT, names, fwd, bwd),
    )


class _Family:
    """The witness maps of one flat sign pattern for every lift k of one
    parity r, on the family towers: source is E^, the lift sign * r
    extension extended by mu, and target_hat is T^, the catalogue target
    extended by nu.  fwd (F^) sends g, h, n, mu to normal forms of T^,
    with F^(n) = c and F^(mu) = nu; bwd (B^) sends the target's
    generators and nu to normal forms of E^.  holds is the outcome of
    the family check, and the normalized extension has the lift sign * k.
    A plain class: a NamedTuple would cost a quarter of a millisecond at
    import."""

    __slots__ = ("holds", "label", "case", "sign", "target", "source", "target_hat", "fwd", "bwd")

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            setattr(self, name, value)


@cache
def _family(kind: str, signs, r: int) -> _Family:
    """The witness chain of the flat pattern (kind, signs) for every lift
    k = r mod 2, built and checked on first use.

    _normalize_case carries the pattern to a case whose lift is k' =
    sign * k = r + 2m.  E^ = build_extension(E, signs + (1,),
    [2 sign, 0, 0], "mu"), E the extension with lift sign * r, is E_k once
    mu = n^m: the map sigma_m fixing g, h, n with mu -> n^m is onto, with
    kernel <mu n^-m>.  T^ = build_extension(target, nu_signs, [0, 0, 0],
    "nu"), with nu twisted as the target conjugates c = fwd(n), maps onto
    the target by tau_m fixing its generators with nu -> c^m.  The chain
    (swap, reduction_maps, identification) is lifted to E^ -> T^ with
    each swap and identification fixing mu -> nu, composed by _fold, and
    checked once (holds): verify_isomorphism(E^, T^, F^, B^), F^(mu) = nu
    and F^(n) = c.  Then tau_m F^ is a homomorphism that sends mu n^-m to
    c^m c^-m = 1, so it passes to fwd_k: E_k -> target with fwd_k(x) =
    tau_m(F^(x)); likewise bwd_k(y) = sigma_m(B^(y)), and fwd_k, bwd_k
    are inverse to each other because F^ and B^ are.  The cases 3 and 5
    have no reduction: their only flat lift is 0, and their family has a
    split mu (tail 0) and is read at m = 0 only.
    """
    case, sign, swap_fwd, swap_bwd = _normalize_case(kind, signs)
    label, target, id_fwd, id_bwd = base_identification(case, r)
    # nu is twisted as the target conjugates c, like n under the images id_bwd
    n_signs = CASES[case][1] + (1,)
    nu_signs = [_word_sign(enumerate(v), n_signs) for v in id_bwd]
    target_hat = build_extension(target, nu_signs, [0, 0, 0], "nu")
    fwd, bwd = [_with_mu(id_fwd)], [_with_mu(id_bwd)]
    tail = 0
    if case not in (3, 5):
        red_fwd, red_bwd = reduction_maps(case)
        fwd, bwd, tail = [red_fwd] + fwd, bwd + [red_bwd], 2
    fwd = [_with_mu(step) for step in swap_fwd] + fwd
    bwd = bwd + [_with_mu(step) for step in swap_bwd]
    ext = build_tower_groups(TowerSpec.depth3(BASES[kind], signs, sign * r))[2]
    source = build_extension(ext, signs + (1,), [sign * tail, 0, 0], "mu")
    fwd, bwd = tuple(_fold(target_hat, fwd)), tuple(_fold(source, bwd))
    # _specialise adds m e c to an image for tau_m, which is c^(m e) only
    # while c = fwd[2] lies in the abelian top of the target
    top = target._abelian.index(True)
    holds = (
        verify_isomorphism(source, target_hat, fwd, bwd)
        and fwd[3] == (0, 0, 0, 1)
        and fwd[2][3] == 0
        and not any(fwd[2][:top])
    )
    return _Family(holds, label, case, sign, target, source, target_hat, fwd, bwd)


@cache
def _nil_family_holds(case: int) -> bool:
    """Whether, for every k != 0, the case-`case` extension with lift k is
    the catalogue group that base_identification names, under the
    identity on generators; checked once.

    The extensions are E^ (lift 0, extended by mu with the tail 1) with
    mu = n^k, and label(sign k) is nil_family's tower T^ with nu =
    c^(sign k).  If g, h, n -> a, b, c with mu -> nu^sign is an
    isomorphism E^ -> T^, it sends mu n^-k to 1 at these values, so it
    passes to the identity on generators between the two, and back.
    """
    _, _, sign, target = nil_family(case)
    kind, signs = CASES[case]
    ext = build_tower_groups(TowerSpec.depth3(BASES[kind], signs, 0))[2]
    source = build_extension(ext, signs + (1,), [1, 0, 0], "mu")
    maps = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, sign))
    return verify_isomorphism(source, target, maps, maps)


def _with_mu(images):
    """A generator map of depth-3 groups as one of their families: each
    image gets a mu (or nu) exponent of 0, and mu goes to nu."""
    return [v + (0,) for v in images] + [(0, 0, 0, 1)]


def _specialise(family: _Family, k: int):
    """The witness maps (fwd, bwd) of the lift k from its family: tau_m of
    F^ on g, h, n, and sigma_m of B^ on the target's generators, with
    m = (sign * k - r) / 2.  sigma_m adds m times the mu exponent to the
    n exponent; tau_m multiplies the target part by c^(m e), e the nu
    exponent, which is adding m e c, since the family check (holds) puts c
    in the target's abelian top.  No map is composed or checked."""
    m = (family.sign * k - k % 2) // 2
    c0, c1, c2, _ = family.fwd[2]
    fwd = []
    for x0, x1, x2, e in family.fwd[:3]:
        e *= m
        fwd.append((x0 + e * c0, x1 + e * c1, x2 + e * c2) if e else (x0, x1, x2))
    bwd = [(y0, y1, y2 + m * e) for y0, y1, y2, e in family.bwd[:3]]
    return fwd, bwd


def _fold(p: PcPresentation, maps):
    """Normal forms in p of the generator images of the composite of maps,
    applied first to last.  Each map is a list of normal forms, one per
    generator: the last map's are normal forms of p, and each earlier
    map's are normal forms of the next map's source, so each step is one
    p._act per generator, with no word."""
    *earlier, images = maps
    for step in reversed(earlier):
        images = [p._act(images, v, 0) for v in step]
    return images


def _normalize_case(kind: str, signs):
    """Map the built extension into one of the five cases that
    base_identification and reduction_maps cover.

    Returns (case, sign, fwd, bwd): the normalized extension has the lift
    sign * k, and fwd and bwd are the chains of generator maps, as normal
    forms, that carry the generators into the normalized extension and
    back: one map, or none when no renaming applies.
    """
    if (kind, signs) == ("torus", (-1, 1)):
        # generator swap turns this into case 6 with the lift negated
        swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
        return 6, -1, [swap], [swap]
    case = _CASE_OF[kind, signs]
    if case in _SWAPPED_CASE:
        fwd, bwd = case_swap_maps(case)
        return _SWAPPED_CASE[case], 1, [fwd], [bwd]
    return case, 1, [], []
