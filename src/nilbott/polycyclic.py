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

The rules of level i are kept once, as the first of its rows of squares:
the images of x_{i+1}, x_{i+2}, ... under x_i and under x_i^-1, which
conjugation reads; rule and positive_rules read the rows.

Every presentation is a tower: the circle (cyclic_pc), extended one
fiber at a time by build_extension in one pass over the levels
(_extend).  An extension builds each level's row from its base's row,
one fiber tail per rule, with no collection, and closes its levels from
the top down.  Each level is checked (conjugation by x_i must respect
the rules of <x_{i+1}, ...>) before its inverse row is computed, so a
broken level is reported before any arithmetic rests on it.  Only the
base's rules are checked there: the fiber rules hold at every level once
the twist is a homomorphism of the base, which twist_signs checks once
per base and twist, and keeps on the base.  A broken rule raises
ExtensionError with its generator indices; its message is collected and
formatted only when read.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add

from .exact import smith_normal_form, IntMatrix
from .words import Word, _word_sign, word_str


NormalForm = tuple  # exponent vector, one int per generator


class ExtensionError(Exception):
    """Lift data that is not a cocycle: in the extension p, conjugation by
    x_i, the generator map x_j -> images[j - i - 1], breaks the rule
    x_j x_k x_j^-1 = w of <x_{i+1}, ...>.  witness is the index triple
    (i, j, k).  The message, phi_i(x_j x_k x_j^-1) vs phi_i(w), is
    collected and formatted only when str() reads it."""

    def __init__(self, p, i, images, j, k):
        super().__init__(p, i, images, j, k)
        self.witness = (i, j, k)

    def __str__(self):
        p, i, images, j, k = self.args
        lvl = i + 1
        a = images[j - lvl]
        lhs = p._mult(p._mult(a, images[k - lvl], lvl), p._invert(a, lvl), lvl)
        rhs = p._act(images, p.rule(j, k), lvl)
        return (
            f"lift data is not a cocycle: conjugation by {p.names[i]} does not "
            f"respect {p.rule_str(j, k)}: {p.nf_str(lhs)} vs {p.nf_str(rhs)}"
        )


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
        # (i, sign) -> rows b = 0, 1, ...: the images of x_{i+1..m-1} under
        # x_i^(sign 2^b).  Row 0 holds the level-i rules, the only copy of
        # them; the top level has none.
        p._squares: dict[tuple[int, int], list] = {(m - 1, 1): [[]], (m - 1, -1): [[]]}
        p._involutions: dict[int, bool] = {}  # see _involution
        p._twists: dict[tuple, tuple] = {}  # accepted twists, see twist_signs
        p._coboundaries: dict[tuple, tuple] = {}  # see _coboundary
        p._central = [True] * m  # x_i commutes with every later generator
        p._abelian = [True] * m  # <x_i, ..., x_{m-1}> is abelian
        return p

    @classmethod
    def _extend(cls, base, name, signs, lifts):
        """base (consistent) extended by a fiber z = x_m, m = base.ngens:
        x_i z x_i^-1 = z^(signs[i]), and x_i x_j x_i^-1 = z^k w for each
        positive base rule w, with k from lifts in positive_rules order.

        Each rule is the base's plus one fiber tail (Sims 1994, ch. 9):
        z^k w = w z^(phi(w) k), phi(w) the sign of w under signs, which is
        signs[j] since signs is a twist of the base (twist_signs).  Every
        forward row is the base's row with these tails, and all are set
        before any level is checked, so a rejected extension still has its
        rules.  x_i is central iff it is central in the base, fixes z and has
        no nonzero lift.  The levels are then checked from the top down by
        _level_break, and the first broken rule raises ExtensionError;
        only once level i holds is its inverse row built from the base's:
        x_i^-1 x_j x_i = v z^(-signs[i] c) from one conjugation
        x_i v x_i^-1 = x_j z^c, v the base's inverse rule.  Nothing is
        collected or solved.  The twist settles the fiber rules x_j z
        x_j^-1 = z^(signs[j]) at every level, so each level checks only the
        base's rules, each with its fiber tail.
        """
        p = cls._blank(base.names + (name,))
        m = base.ngens
        rows, central, abelian = p._squares, p._central, p._abelian
        at = 0
        for i, s in enumerate(signs):
            row = base._squares[(i, 1)][0]
            ks = lifts[at:at + len(row)]
            at += len(row)
            tails = zip(row, signs[i + 1:], ks)
            rows[(i, 1)] = [[w + (t * k,) for w, t, k in tails] + [p._unit(m, s)]]
            central[i] = s == 1 and base._central[i] and not any(ks)
        for i in range(m - 1, -1, -1):
            abelian[i] = central[i] and abelian[i + 1]
            images = rows[(i, 1)][0]
            broken = _level_break(p, i, images)
            if broken is not None:
                raise ExtensionError(p, i, images, *broken)
            flip = -signs[i]
            inverse = base._squares[(i, -1)][0]
            rows[(i, -1)] = [
                [v + (flip * p._act(images, v, i + 1)[m],) for v in inverse] + [p._unit(m, signs[i])]
            ]
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
        return nf_str(v, self.names)

    def rule(self, i, j, sign=1) -> NormalForm:
        """x_i^sign x_j x_i^-sign for i < j, read off the level-i row."""
        if j <= i:
            raise IndexError(f"no rule for generators ({i}, {j})")
        return self._squares[(i, sign)][0][j - i - 1]

    def rule_str(self, i, j) -> str:
        """The positive rule for (i, j) as 'x_i x_j x_i^-1 = w'."""
        a, b = self.names[i], self.names[j]
        return f"{a} {b} {a}^-1 = {self.nf_str(self.rule(i, j))}"

    def positive_rules(self):
        for i in range(self._m - 1):
            for j, w in enumerate(self._squares[(i, 1)][0], i + 1):
                yield (i, j), w


def nf_str(v: NormalForm, names) -> str:
    """The normal form v as text, 'g h^-1 ...' over names; "1" if trivial."""
    return word_str(((i, e) for i, e in enumerate(v) if e), names)


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
    if type(k) is not int and (isinstance(k, bool) or not isinstance(k, int)):
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
    the same sign).  ValueError otherwise.

    An accepted twist is kept on p, keyed by its int tuple, so a tuple
    equal to one (True for 1 included) is one dict lookup the next time.
    p keeps at most 2^ngens of them.  A tuple that is rejected, or that
    cannot be hashed, is checked in full on every call and never kept."""
    try:
        return p._twists[signs]
    except (KeyError, TypeError):
        pass
    signs = tuple(signs)
    if len(signs) != p.ngens or any(s not in (1, -1) for s in signs):
        raise ValueError("need one sign per base generator")
    signs = tuple(int(s) for s in signs)
    for (_, j), w in p.positive_rules():
        if signs[j] != _word_sign(enumerate(w), signs):
            raise ValueError("phi is not a homomorphism on the base")
    p._twists[signs] = signs
    return signs


def lift_count(base: PcPresentation, lifts) -> list:
    """lifts as a list, ValueError unless it has one lift per base
    conjugation rule.  The lifts' types are the caller's to check."""
    need = base._m * (base._m - 1) // 2
    lifts = list(lifts)
    if len(lifts) != need:
        raise ValueError(f"need {need} lift integers, got {len(lifts)}")
    return lifts


def build_extension(base: PcPresentation, phi, lifts, fiber_name: str) -> PcPresentation:
    """Extend base by an infinite cyclic fiber named fiber_name, appended
    as last generator.

    phi gives the conjugation sign of the fiber per base generator; lifts
    gives one fiber exponent per base conjugation rule, in positive_rules
    order, so that each base relator r becomes r = fiber^{k_r}.  phi is
    checked as a twist of base (twist_signs), then each lift's type
    (require_integer_k), then their number (lift_count), each with a
    ValueError.  They are assembled and checked in one pass by
    PcPresentation._extend; lifts that are not a cocycle raise
    ExtensionError naming a generator that does not respect a rule above.
    """
    signs = twist_signs(base, phi)
    lifts = list(lifts)
    for x in lifts:
        require_integer_k(x)
    return PcPresentation._extend(base, fiber_name, signs, lift_count(base, lifts))


def _level_break(p: PcPresentation, i, images):
    """The per-level automorphism test (Sims, *Computation with Finitely
    Presented Groups*, 1994, ch. 9) on an extension p of _extend, with
    fiber z = x_m, m = p.ngens - 1: None if conjugation by x_i, the
    generator map x_j -> images[j - i - 1] of H_i = <x_{i+1}, ...>,
    respects every rule of H_i, else the pair (j, k) of the first rule
    x_j x_k x_j^-1 = w_jk it breaks.  The levels above i must be closed and
    consistent, and the flags of level i set.

    The group is the iterated semidirect product <x_0> x| (<x_1> x| ...),
    so the rules are consistent iff each phi_i extends to an automorphism
    of H_i.  The inherited inverse rules (the base's action is onto and
    the fiber goes to z^(+-1)) show phi_i onto, so it suffices that phi_i
    respects each rule x_j x_k x_j^-1 = w_jk of H_i (an onto endomorphism
    of a polycyclic group is an automorphism); the inverse rules are then
    its inverse and need no check.

    Only the base's rules, i < j < k < m, can break.  A fiber rule
    x_j z x_j^-1 = z^(s_j) is respected as soon as the twist s is a
    homomorphism of the base, which twist_signs has checked: phi_i sends
    x_j to a_j = w z^c, w the base rule of x_i x_j x_i^-1, and z to
    z^(s_i), so a_j z^(s_i) a_j^-1 = z^(s_i s(w)) = z^(s_i s_j), the image
    of the right-hand side.  So the fiber rules are skipped, and a level
    with no base rule above it, as every level of a depth-3 tower, checks
    nothing.  The rules are checked in the order of the full check, so
    the first broken rule is the same.  The rule loop is the one that
    also checks generator maps.  Nothing is formatted here: ExtensionError
    reports a broken rule as phi_i(x_j x_k x_j^-1) vs phi_i(w_jk) when its
    message is read.
    """
    fiber = p.ngens - 1
    if i + 2 >= fiber or p._central[i]:
        return None
    return _broken_rule(p, p, images, i + 1, fiber)


def _broken_rule(src: PcPresentation, dst: PcPresentation, images, lvl, top):
    """The first rule x_j x_k x_j^-1 = w of src with lvl <= j < k < top
    that the generator map x_j -> a_j = images[j - lvl] into dst does not
    respect, as (j, k), or None (von Dyck, when top is src.ngens).  The
    rule holds iff a_j a_k = W a_j, where W is the product of the
    a_g^(w_g) in generator order; every product is collected at level lvl
    of dst.
    """
    for j in range(lvl, top):
        a = images[j - lvl]
        for k, w in zip(range(j + 1, top), src._squares[(j, 1)][0]):
            lhs = dst._mult(a, images[k - lvl], lvl)
            if lhs != dst._mult(dst._act(images, w, lvl), a, lvl):
                return j, k
    return None


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
    of src; images are normal forms of dst, one per src generator.  No
    engine path calls it (verify_isomorphism runs the same rule check):
    it is library API, documented in the README."""
    return _broken_rule(src, dst, _pc_map(src, dst, images), 0, src.ngens) is None


def verify_isomorphism(a: PcPresentation, b: PcPresentation, fwd, bwd) -> bool:
    """Check fwd: a -> b and bwd: b -> a, given as normal forms of the
    generator images, are mutually inverse isomorphisms.

    One von Dyck pass on fwd and one round trip fwd(bwd(y)) = y on the
    generators y of b decide it, given that a and b are consistent with
    infinite relative orders, as every PcPresentation is (each is the
    circle or a tower built on it by build_extension).  Each is then
    torsion-free poly-Z of Hirsch length ngens, and Hirsch length adds
    over extensions (Segal, Polycyclic Groups, 1983, ch. 1).  If fwd
    respects a's rules it is a homomorphism; the round trip puts every
    generator of b in its image, so it is onto; with equal ngens its
    kernel has Hirsch length 0, so it is finite, hence trivial.  So fwd
    is an isomorphism, bwd agrees with fwd^-1 on generators because
    fwd(bwd(y)) = y, and bwd is therefore the homomorphism fwd^-1.
    """
    fwd, bwd = _pc_map(a, b, fwd), _pc_map(b, a, bwd)
    if a.ngens != b.ngens or _broken_rule(a, b, fwd, 0, a.ngens) is not None:
        return False
    return all(b._act(fwd, v, 0) == b._unit(j) for j, v in enumerate(bwd))


def relation_rows(p: PcPresentation, signs=None) -> list[list[int]]:
    """The twisted Fox rows of p, one integer row per positive rule
    x_i x_j x_i^-1 = w: the free derivatives of x_i x_j x_i^-1 w^-1 under
    the twist signs s (every sign +1 if None), read off the normal form w.
    Entry t is [t = i](1 - s_j) + [t = j] s_i - sigma_t w'_t, w'_t = w_t if
    s_t = +1 else w_t mod 2, sigma_t the sign of x_0^(w_0) ... x_(t-1)^(w_(t-1)).
    Untwisted, a row is x_j minus w, a relator of the abelianization."""
    signs = signs or (1,) * p.ngens
    rows = []
    for (i, j), w in p.positive_rules():
        row, sigma = [], 1
        for s, e in zip(signs, w):
            row.append(-sigma * (e if s == 1 else e % 2))
            if s == -1 and e % 2:
                sigma = -sigma
        row[i] += 1 - signs[j]
        row[j] += signs[i]
        rows.append(row)
    return rows


def _coboundary(p: PcPresentation, signs) -> tuple:
    """The tail coboundary R = relation_rows(p, signs) as (row i of U, d_i)
    for each d_i != 1, U R V = D its Smith form, d_i = 0 past D's
    diagonal; kept on p by twist, and found by the rows (_smith_rows) for
    a group built anew, as a tower's stage groups are for each tower."""
    signs = twist_signs(p, signs)
    rows = tuple(map(tuple, relation_rows(p, signs)))
    p._coboundaries[signs] = smith = _smith_rows(rows) if rows else ()
    return smith


@lru_cache(maxsize=1024)
def _smith_rows(rows: tuple) -> tuple:
    d, u, _ = smith_normal_form(IntMatrix(rows))
    return tuple((row, x) for row, x in zip(u.entries, d + [0] * len(rows)) if x != 1)


def pc_abelianization(p: PcPresentation) -> tuple[int, list[int]]:
    """(free rank, invariant factors > 1) of p's abelianization, the
    cokernel of its untwisted Fox rows R; the rank of R is the number of
    rules less the zeros of its Smith form."""
    m = p.ngens
    d = [x for _, x in _coboundary(p, (1,) * m)]
    return m - m * (m - 1) // 2 + d.count(0), [x for x in d if x]


def center(p: PcPresentation) -> list[NormalForm]:
    """A basis of the centre Z(G) of p, which is free abelian, as normal
    forms, computed one stage of the tower at a time.

    G_{j+1} = G / <x_{j+1}, ...> is G_j extended by x_j.  Its centre lies
    over the part Z' of Z(G_j) on which x_j is not inverted, of index <= 2:
    the basis elements that keep x_j, the square of the first one that
    inverts it, and its products with the others.  Lift b in Z' with fiber
    exponent 0: then x_i b x_i^-1 = b x_j^(f_i(b)) for i < j, f_i is
    additive on Z', and b x_j^c is central iff f_i(b) = (1 - phi_i) c for
    every i, phi_i the sign of x_i on x_j.  So each stage is one integer
    kernel, and x_j itself joins the basis when no generator inverts it.
    """
    m = p.ngens

    def cut(v, top):
        """v's image in G / <x_{top+1}, ...>, as a normal form of p."""
        return v[:top + 1] + (0,) * (m - top - 1)

    basis = [p._unit(0)]
    for j in range(1, m):
        signs = [p.rule(i, j)[j] for i in range(j)]
        kept, flipped = [], []
        for z in basis:
            (kept if _word_sign(enumerate(z[:j]), signs) == 1 else flipped).append(z)
        kept += [cut(p._mult(y, flipped[0]), j - 1) for y in flipped]
        inverted = -1 in signs
        gens = kept + [p._unit(j)] if inverted else kept
        # column t: f_i(b) - (1 - phi_i) c for gens[t] = b x_j^c, one row per i < j
        cols = [
            [cut(p._mult(p._mult(p._unit(i), g), p._unit(i, -1)), j)[j] - g[j] for i in range(j)]
            for g in gens
        ]
        kernel = []
        if cols:
            d, _, v = smith_normal_form(IntMatrix(list(zip(*cols))))
            nonzero = sum(1 for x in d if x)
            kernel = [[row[t] for row in v.entries] for t in range(nonzero, len(cols))]
        basis = [cut(p._act(gens, a, 0), j) for a in kernel]
        if not inverted:
            basis.append(p._unit(j))
    return basis


def cyclic_pc(name: str = "g") -> PcPresentation:
    """The circle group <name>, the bottom of every tower."""
    return PcPresentation._blank((name,))
