"""Consistent polycyclic presentations with collection-based normal forms.

A presentation has ordered generators x_0 < x_1 < ... < x_{m-1}, all of
infinite relative order, with the subnormal chain
<x_{m-1}>  <|  <x_{m-2}, x_{m-1}>  <|  ...  <|  G.
For i < j the conjugates x_i x_j x_i^-1 and x_i^-1 x_j x_i are words in
generators of index >= j.  Power relations are not supported: every group
here is torsion-free.

Normal forms are exponent vectors (e_0, ..., e_{m-1}) meaning
x_0^{e_0} ... x_{m-1}^{e_{m-1}}.  The collector is one loop over the
levels, with no recursion.  A product collects from the left: at each
level l it adds the two exponents and conjugates the rest of the left
factor past x_l^(b_l), and from the first level whose subgroup
<x_l, ...> is abelian on it adds the rest coordinate-wise.  An inverse
negates the abelian top of the chain and then walks down the lower
levels; a power is binary exponentiation, high bits first.  Conjugation
by x_i^t is applied as the automorphisms x_i^(+-2^b) for the set bits b
of |t|, whose generator images are computed by squaring when first
needed and kept on the presentation, so the cost grows with the bit
length of the exponents.

On an abelian level every generator map is linear: the image of a normal
form is the integer combination of the generator images, with no
products.  So a power of x_l^a t from the level just below the abelian
top, where conjugation by x_l is an involution (as every sign twist of a
single fiber is), is a sum of t and its image, in closed form.  The
degree of the cost in the bit length still grows with the number of
non-abelian levels; towers of depth 4 and more bound their twisting
integers (towers.DEEP_LIFT_BITS).

Every presentation is a tower: the circle (cyclic_pc), extended one
fiber at a time by build_extension.  An extension inherits its base's
rules, each with one fiber tail, with no collection (_extend), and
consistency_check then checks level by level that conjugation by x_i
respects the rules of <x_{i+1}, ...>.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .exact import smith_normal_form, IntMatrix
from .words import Word, _word_sign, gen, word_str


NormalForm = tuple  # exponent vector, one int per generator


class ExtensionError(Exception):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass
class ConsistencyResult:
    ok: bool
    witness: tuple | None = None
    detail: str = ""

    def __bool__(self):
        return self.ok


class PcPresentation:
    """Polycyclic presentation; immutable once built.  Made only as the
    circle (cyclic_pc) and by extending one (build_extension)."""

    @property
    def ngens(self) -> int:
        return self._m

    def __repr__(self):
        return f"PcPresentation(<{' '.join(self.names)}>)"

    # -- assembly ---------------------------------------------------------

    @classmethod
    def _blank(cls, names):
        """A presentation on names with no rules set yet."""
        p = cls.__new__(cls)
        p.names = tuple(names)
        m = len(p.names)
        if m == 0:
            raise ValueError("need at least one generator")
        if len(set(p.names)) != m:
            raise ValueError("duplicate generator names")
        p._m = m
        p._rules: dict[tuple[int, int, int], NormalForm] = {}
        # (i, sign) -> images of x_{i+1..m-1} under x_i^(sign 2^b), b = 0, 1, ...
        p._squares: dict[tuple[int, int], list] = {}
        p._involutions: dict[int, bool] = {}  # see _involution
        p._central = [True] * m  # x_i commutes with every later generator
        p._abelian = [True] * m  # <x_i, ..., x_{m-1}> is abelian
        return p

    def _close_level(self, i):
        """The level-i squares and flags, once the level-i rules are set."""
        later = range(i + 1, self._m)
        for sign in (1, -1):
            self._squares[(i, sign)] = [[self._rules[(i, j, sign)] for j in later]]
        self._central[i] = all(self._rules[(i, j, 1)] == self._unit(j) for j in later)
        self._abelian[i] = self._central[i] and self._abelian[i + 1]

    @classmethod
    def _extend(cls, base, name, signs, lifts):
        """base (consistent) extended by a fiber z = x_m, m = base.ngens:
        x_i z x_i^-1 = z^(signs[i]), and x_i x_j x_i^-1 = z^k w for each
        positive base rule w, with k from lifts in positive_rules order.

        Each rule is the base's plus one fiber tail (Sims 1994, ch. 9):
        z^k w = w z^(phi(w) k), phi(w) the sign of w under signs, and the
        base's inverse rule v gives x_i^-1 x_j x_i = v z^(-signs[i] c) from
        one conjugation x_i v x_i^-1 = x_j z^c.  Nothing is collected or
        solved; consistency is left to consistency_check.
        """
        p = cls._blank(base.names + (name,))
        m = base.ngens
        for ((i, j), w), k in zip(base.positive_rules(), lifts):
            p._rules[(i, j, 1)] = w + (_word_sign(enumerate(w), signs) * k,)
        for i in range(m - 1, -1, -1):
            p._rules[(i, m, 1)] = p._rules[(i, m, -1)] = p._unit(m, signs[i])
            images = [p._rules[(i, j, 1)] for j in range(i + 1, m + 1)]
            for j in range(i + 1, m):
                v = base._rules[(i, j, -1)] + (0,)
                c = p._act(images, v, i + 1)[m]
                p._rules[(i, j, -1)] = v[:m] + (-signs[i] * c,)
            p._close_level(i)
        return p

    # -- vector arithmetic --------------------------------------------------

    def _unit(self, j, e=1) -> NormalForm:
        return (0,) * j + (e,) + (0,) * (self._m - j - 1)

    def identity(self) -> NormalForm:
        return (0,) * self._m

    def _mult(self, a, b, lvl=0) -> NormalForm:
        """a b for a, b supported on indices >= lvl, one level at a time:
        x_l^(a_l) t x_l^(b_l) = x_l^(a_l + b_l) (x_l^(-b_l) t x_l^(b_l))
        moves the left tail t past x_l^(b_l), and from the first abelian
        level on (the top level is one) the rest is added coordinate-wise."""
        if not any(a):
            return b
        out = b[:lvl]
        for l in range(lvl, self._m):
            if self._abelian[l]:
                return out + tuple(map(add, a[l:], b[l:]))
            bl = b[l]
            out += (a[l] + bl,)
            if bl and not self._central[l] and any(a[l + 1:]):
                a = self._conj(a, l, -bl)

    def _conj(self, v, i, t) -> NormalForm:
        """x_i^t v x_i^-t for v supported on indices > i.

        Conjugation by x_i is an automorphism of <x_{i+1}, ...>; its
        2^b-th powers are applied for the set bits b of |t|.
        """
        if not t or self._central[i]:
            return v
        squares = self._squares[(i, 1 if t > 0 else -1)]
        t, b = abs(t), 0
        while t:
            if b == len(squares):
                squares.append([self._act(squares[-1], w, i + 1) for w in squares[-1]])
            if t & 1:
                v = self._act(squares[b], v, i + 1)
            t >>= 1
            b += 1
        return v

    def _act(self, images, v, lvl) -> NormalForm:
        """The product of the images[j - lvl]^(v_j), j = lvl, lvl + 1, ...,
        collected at level lvl: the image of v under the map sending x_j to
        images[j - lvl].  v may be a normal form of another group.  On an
        abelian level it is the integer combination of the images."""
        if self._abelian[lvl]:
            out = [0] * self._m
            for j in range(lvl, len(v)):
                e = v[j]
                if e:
                    out = [x + e * y for x, y in zip(out, images[j - lvl])]
            return tuple(out)
        out = None
        for j in range(lvl, len(v)):
            e = v[j]
            if e:
                w = images[j - lvl]
                if e != 1:
                    w = self._power(w, e, lvl)
                out = w if out is None else self._mult(out, w, lvl)
        return (0,) * self._m if out is None else out

    def _power(self, v, e, lvl=0) -> NormalForm:
        """v^e for v supported on indices >= lvl, collected from the first
        nonzero entry of v, at level l, by squaring, high bits of |e|
        first.  If conjugation by x_l is an involution phi of the abelian
        <x_{l+1}, ...>, then v = x_l^a t gives, with no products,
        v^e = x_l^(a e) ((e - e // 2) t + (e // 2) phi^a(t))."""
        if e == 1:
            return v
        while lvl < self._m and not v[lvl]:
            lvl += 1
        if e == 0 or lvl == self._m:
            return (0,) * self._m
        if self._abelian[lvl] or not any(v[lvl + 1:]):
            return tuple(x * e for x in v)
        if e < 0:
            v, e = self._invert(v, lvl), -e
            if e == 1:
                return v
        if self._involution(lvl):
            a, q = v[lvl], e // 2
            t = self._act(self._squares[(lvl, 1)][0], v, lvl + 1) if a % 2 else v
            out = [(e - q) * x + q * y for x, y in zip(v, t)]
            out[lvl] = a * e
            return tuple(out)
        out = v
        for bit in bin(e)[3:]:
            out = self._mult(out, out, lvl)
            if bit == "1":
                out = self._mult(out, v, lvl)
        return out

    def _involution(self, i) -> bool:
        """Whether <x_{i+1}, ...> is abelian and conjugation by x_i is an
        involution of it; decided on first use and kept."""
        flag = self._involutions.get(i)
        if flag is None:
            images = self._squares[(i, 1)][0]
            flag = self._abelian[i + 1] and [
                self._act(images, w, i + 1) for w in images
            ] == [self._unit(j) for j in range(i + 1, self._m)]
            self._involutions[i] = flag
        return flag

    def _invert(self, v, lvl=0) -> NormalForm:
        """v^-1 for v supported on indices >= lvl: the abelian top of the
        chain is negated, then each lower level l takes
        (x_l^(v_l) t)^-1 = x_l^(-v_l) (x_l^(v_l) t^-1 x_l^(-v_l))."""
        top = lvl
        while not self._abelian[top]:
            top += 1
        out = (0,) * top + tuple(-x for x in v[top:])
        for l in range(top - 1, lvl - 1, -1):
            vl = v[l]
            if vl and any(out[l + 1:]):
                out = self._conj(out, l, vl)
            out = out[:l] + (-vl,) + out[l + 1:]
        return out

    # -- printing and rules -------------------------------------------------

    def nf_str(self, v: NormalForm) -> str:
        return word_str(((i, e) for i, e in enumerate(v) if e), self.names)

    def rule(self, i, j, sign=1) -> NormalForm:
        return self._rules[(i, j, sign)]

    def rule_str(self, i, j) -> str:
        """The positive rule for (i, j) as 'x_i x_j x_i^-1 = w'."""
        a, b = self.names[i], self.names[j]
        return f"{a} {b} {a}^-1 = {self.nf_str(self._rules[(i, j, 1)])}"

    def positive_rules(self):
        for i in range(self._m):
            for j in range(i + 1, self._m):
                yield (i, j), self._rules[(i, j, 1)]


def nf_to_word(v: NormalForm) -> Word:
    return Word(tuple((i, e) for i, e in enumerate(v) if e))


def collect(p: PcPresentation, w: Word) -> NormalForm:
    """The normal form in p of the word w, one syllable at a time."""
    out = p.identity()
    for g, e in w:
        if not 0 <= g < p.ngens:
            raise ValueError(f"generator index {g} out of range")
        out = p._mult(out, p._unit(g, e))
    return out


def _normal_form(p: PcPresentation, v) -> NormalForm:
    """v as a normal form of p: ValueError unless it is p.ngens ints."""
    if len(v) != p.ngens or not all(type(x) is int for x in v):
        raise ValueError(f"a normal form of {p!r} is {p.ngens} integers, got {v!r}")
    return tuple(v)


def require_integer_k(k) -> None:
    """Raise ValueError unless k is an int (and not a bool)."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError("k must be an integer")


def nf_multiply(p: PcPresentation, a: NormalForm, b: NormalForm) -> NormalForm:
    return p._mult(_normal_form(p, a), _normal_form(p, b))


def nf_invert(p: PcPresentation, a: NormalForm) -> NormalForm:
    return p._invert(_normal_form(p, a))


def nf_power(p: PcPresentation, a: NormalForm, e: int) -> NormalForm:
    if type(e) is not int:
        raise ValueError(f"exponent must be an integer, got {e!r}")
    return p._power(_normal_form(p, a), e)


def twist_signs(p: PcPresentation, signs) -> tuple[int, ...]:
    """signs as a twist of p, a homomorphism onto {+1, -1}: one sign +1/-1
    per generator, kept by every rule x_i x_j x_i^-1 = w (x_j and w have
    the same sign).  ValueError otherwise."""
    signs = tuple(signs)
    if len(signs) != p.ngens or any(s not in (1, -1) for s in signs):
        raise ValueError("need one sign per base generator")
    signs = tuple(int(s) for s in signs)
    for (_, j), w in p.positive_rules():
        if signs[j] != _word_sign(enumerate(w), signs):
            raise ValueError("phi is not a homomorphism on the base")
    return signs


def consistency_check(p: PcPresentation) -> ConsistencyResult:
    """Per-level automorphism test (Sims, *Computation with Finitely
    Presented Groups*, 1994, ch. 9).

    The group is the iterated semidirect product <x_0> x| (<x_1> x| ...),
    so the rules are consistent iff each phi_i: x_j -> x_i x_j x_i^-1
    extends to an automorphism of H_i = <x_{i+1}, ...>.  The inherited
    inverse rules (the base's action is onto and the fiber goes to
    z^(+-1)) show phi_i onto, so it suffices that phi_i respects each rule
    x_j x_k x_j^-1 = w_jk of H_i (an onto endomorphism of a polycyclic
    group is an automorphism);
    the inverse rules are then its inverse and need no check.
    Levels are checked from the top, each in arithmetic already sound, by
    the rule loop that also checks generator maps; a broken rule is
    reported as phi_i(x_j x_k x_j^-1) vs phi_i(w_jk).
    """
    for i in range(p.ngens - 2, -1, -1):
        if p._central[i]:
            continue
        images = p._squares[(i, 1)][0]
        broken = _broken_rule(p, p, images, i + 1)
        if broken is not None:
            j, k = broken
            a = images[j - i - 1]
            lhs = p._mult(p._mult(a, images[k - i - 1], i + 1), p._invert(a, i + 1), i + 1)
            rhs = p._act(images, p.rule(j, k), i + 1)
            return ConsistencyResult(
                False,
                (gen(i), gen(j), gen(k)),
                f"conjugation by {p.names[i]} does not respect "
                f"{p.rule_str(j, k)}: {p.nf_str(lhs)} vs {p.nf_str(rhs)}",
            )
    return ConsistencyResult(True)


_FIBER_NAMES = ("n", "m", "f", "q")


def _fresh_fiber_name(names) -> str:
    for cand in _FIBER_NAMES:
        if cand not in names:
            return cand
    return f"z{len(names)}"


def build_extension(base: PcPresentation, phi, lifts, fiber_name=None) -> PcPresentation:
    """Extend base by an infinite cyclic fiber, appended as last generator.

    phi gives the conjugation sign of the fiber per base generator; lifts
    gives one fiber exponent per base conjugation rule, in positive_rules
    order, so that each base relator r becomes r = fiber^{k_r}.  The rules,
    the base's plus fiber tails, come from PcPresentation._extend and are
    consistency-checked; invalid cocycle data raises ExtensionError naming
    a generator whose conjugation does not respect a rule above it.
    """
    signs = twist_signs(base, phi)
    need = base.ngens * (base.ngens - 1) // 2
    lifts = list(lifts)
    for x in lifts:
        require_integer_k(x)
    if len(lifts) != need:
        raise ValueError(f"need {need} lift integers, got {len(lifts)}")
    ext = PcPresentation._extend(base, fiber_name or _fresh_fiber_name(base.names), signs, lifts)
    result = consistency_check(ext)
    if not result:
        raise ExtensionError(
            f"lift data is not a cocycle: {result.detail}", result.witness
        )
    return ext


def _broken_rule(src: PcPresentation, dst: PcPresentation, images, lvl):
    """The first rule x_j x_k x_j^-1 = w of src with lvl <= j < k that the
    generator map x_j -> a_j = images[j - lvl] into dst does not respect,
    as (j, k), or None (von Dyck).  The rule holds iff a_j a_k = W a_j,
    where W is the product of the a_g^(w_g) in generator order; every
    product is collected at level lvl of dst.
    """
    for j in range(lvl, src.ngens):
        a = images[j - lvl]
        for k in range(j + 1, src.ngens):
            lhs = dst._mult(a, images[k - lvl], lvl)
            if lhs != dst._mult(dst._act(images, src.rule(j, k), lvl), a, lvl):
                return j, k
    return None


def evaluate(p: PcPresentation, w: Word, images) -> NormalForm:
    """Normal form in p of the image of the word w under g -> images[g],
    where the images are normal forms of p: one collected power per
    syllable."""
    out = p.identity()
    for g, e in w:
        out = p._mult(out, images[g] if e == 1 else p._power(images[g], e))
    return out


def _pc_map(src, dst: PcPresentation, images) -> list[NormalForm]:
    """The images of a generator map src -> dst, checked to be one normal
    form of dst per generator of the pc group src."""
    if not isinstance(src, PcPresentation):
        raise TypeError(f"the source of a generator map must be a PcPresentation, got {src!r}")
    if len(images) != src.ngens:
        raise ValueError(f"need one image per generator of {src!r}, got {len(images)}")
    return [_normal_form(dst, v) for v in images]


def verify_homomorphism(src: PcPresentation, dst: PcPresentation, images) -> bool:
    """True iff the generator map src -> dst respects every defining rule
    of src; images are normal forms of dst, one per src generator."""
    return _broken_rule(src, dst, _pc_map(src, dst, images), 0) is None


def verify_isomorphism(a: PcPresentation, b: PcPresentation, fwd, bwd) -> bool:
    """Check fwd: a -> b and bwd: b -> a, given as normal forms of the
    generator images, are mutually inverse isomorphisms."""
    fwd, bwd = _pc_map(a, b, fwd), _pc_map(b, a, bwd)
    if _broken_rule(a, b, fwd, 0) is not None or _broken_rule(b, a, bwd, 0) is not None:
        return False
    return all(
        p._act(back, v, 0) == p._unit(i)
        for p, there, back in ((a, fwd, bwd), (b, bwd, fwd))
        for i, v in enumerate(there)
    )


def relation_rows(p: PcPresentation) -> list[list[int]]:
    """The relators of p in the abelianization, one integer row per
    positive rule x_i x_j x_i^-1 = w: the unit vector of x_j minus w."""
    rows = []
    for (_, j), w in p.positive_rules():
        row = [-e for e in w]
        row[j] += 1
        rows.append(row)
    return rows


def pc_abelianization(p: PcPresentation) -> tuple[int, list[int]]:
    """(free rank, invariant factors > 1) of p's abelianization."""
    rows = relation_rows(p)
    if not rows:
        return p.ngens, []
    d, _, _ = smith_normal_form(IntMatrix(rows))
    nonzero = [x for x in d if x != 0]
    return p.ngens - len(nonzero), [x for x in nonzero if x > 1]


def cyclic_pc(name: str = "g") -> PcPresentation:
    """The circle group <name>, the bottom of every tower."""
    return PcPresentation._blank((name,))
