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

Only the positive conjugation rules are supplied; the constructor derives
the inverse rules by a triangular solve (the conjugation action preserves
the chain, so its leading coefficients must be units).  A presentation
whose inverse rules fail to solve is recorded as defective and reported
by consistency_check, which then checks level by level that conjugation
by x_i respects the rules of <x_{i+1}, ...>.  An extension by a fiber
inherits its base's rules instead, with no collection (_extend).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .exact import smith_normal_form, IntMatrix
from .words import Word, _word_sign, gen, parse_word, word_str


class PcError(Exception):
    pass


class InconsistentPresentation(PcError):
    pass


NormalForm = tuple  # exponent vector, one int per generator


@dataclass
class ConsistencyResult:
    ok: bool
    witness: tuple | None = None
    detail: str = ""

    def __bool__(self):
        return self.ok


class PcPresentation:
    """Polycyclic presentation; immutable once constructed.

    conj maps (i, j) with i < j to the word x_i x_j x_i^-1.  Pairs not
    listed default to the trivial rule x_i x_j x_i^-1 = x_j.
    """

    def __init__(self, names, conj=None):
        self._start(names)
        given: dict[tuple[int, int], Word] = {}
        for (i, j), w in (conj or {}).items():
            if not (0 <= i < j < self._m):
                raise ValueError(f"bad rule pair ({i}, {j})")
            if not isinstance(w, Word):
                w = Word(w)
            for g, _ in w:
                if g < j or g >= self._m:
                    raise ValueError(
                        f"rule x_{i} x_{j} x_{i}^-1 output must use "
                        f"generators of index >= {j}"
                    )
            given[(i, j)] = w
        self._assemble(given)

    @property
    def ngens(self) -> int:
        return self._m

    def __repr__(self):
        return f"PcPresentation(<{' '.join(self.names)}>)"

    # -- assembly ---------------------------------------------------------

    def _start(self, names):
        self.names = tuple(names)
        m = len(self.names)
        if m == 0:
            raise ValueError("need at least one generator")
        if len(set(self.names)) != m:
            raise ValueError("duplicate generator names")
        self._m = m
        self._rules: dict[tuple[int, int, int], NormalForm] = {}
        self._defects: list[tuple] = []
        # (i, sign) -> images of x_{i+1..m-1} under x_i^(sign 2^b), b = 0, 1, ...
        self._squares: dict[tuple[int, int], list] = {}
        self._involutions: dict[int, bool] = {}  # see _involution
        self._central = [True] * m  # x_i commutes with every later generator
        self._abelian = [True] * m  # <x_i, ..., x_{m-1}> is abelian

    def _assemble(self, given):
        m = self._m
        for i in range(m - 2, -1, -1):
            for j in range(i + 1, m):
                w = given.get((i, j), gen(j))
                try:
                    nf = self._collect_from(w, j)
                except PcError as exc:
                    self._defects.append((i, j, f"rule output: {exc}"))
                    nf = self._unit(j)
                self._rules[(i, j, 1)] = nf
            for j in range(i + 1, m):
                try:
                    self._rules[(i, j, -1)] = self._solve_inverse(i, j)
                except PcError as exc:
                    self._defects.append((i, j, str(exc)))
                    self._rules[(i, j, -1)] = self._unit(j)
            self._close_level(i)

    def _close_level(self, i):
        """The level-i squares and flags, once the level-i rules are set."""
        later = range(i + 1, self._m)
        for sign in (1, -1):
            self._squares[(i, sign)] = [[self._rules[(i, j, sign)] for j in later]]
        self._central[i] = all(self._rules[(i, j, 1)] == self._unit(j) for j in later)
        self._abelian[i] = self._central[i] and self._abelian[i + 1]

    @classmethod
    def _extend(cls, base, name, signs, lifts):
        """base (free of defects) extended by a fiber z = x_m, m = base.ngens:
        x_i z x_i^-1 = z^(signs[i]), and x_i x_j x_i^-1 = z^k w for each
        positive base rule w, with k from lifts in positive_rules order.

        Each rule is the base's plus one fiber tail (Sims 1994, ch. 9):
        z^k w = w z^(phi(w) k), phi(w) the sign of w under signs, and the
        base's inverse rule v gives x_i^-1 x_j x_i = v z^(-signs[i] c) from
        one conjugation x_i v x_i^-1 = x_j z^c.  Nothing is collected or
        solved; consistency is left to consistency_check.
        """
        p = cls.__new__(cls)
        p._start(base.names + (name,))
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

    def _solve_inverse(self, i, j):
        """Find z with x_i z x_i^-1 = x_j, i.e. the rule x_i^-1 x_j x_i."""
        m = self._m
        target = self._unit(j)
        z = [0] * m
        for l in range(j, m):
            rl = self._rules[(i, l, 1)]
            lead = rl[l]
            if lead == 0 or target[l] % lead:
                raise InconsistentPresentation(
                    f"conjugation by {self.names[i]} is not invertible at "
                    f"{self.names[l]}"
                )
            s = target[l] // lead
            z[l] = s
            target = self._mult(self._invert(self._power(rl, s, l), l), target, l)
        if any(target):
            raise InconsistentPresentation(
                f"conjugation by {self.names[i]} is not surjective at "
                f"{self.names[j]}"
            )
        return tuple(z)

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

    def _collect_from(self, w: Word, lvl) -> NormalForm:
        out = (0,) * self._m
        for g, e in w:
            if not lvl <= g < self._m:
                raise PcError(f"generator index {g} out of range")
            out = self._mult(out, self._unit(g, e), lvl)
        return out

    def require_consistent(self):
        if self._defects:
            i, j, msg = self._defects[0]
            raise InconsistentPresentation(msg)

    # -- parsing helpers ----------------------------------------------------

    def word(self, text: str) -> Word:
        return parse_word(text, self.names)

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
    p.require_consistent()
    return p._collect_from(w, 0)


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
    p.require_consistent()
    return p._mult(_normal_form(p, a), _normal_form(p, b))


def nf_invert(p: PcPresentation, a: NormalForm) -> NormalForm:
    p.require_consistent()
    return p._invert(_normal_form(p, a))


def nf_power(p: PcPresentation, a: NormalForm, e: int) -> NormalForm:
    p.require_consistent()
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
    extends to an automorphism of H_i = <x_{i+1}, ...>.  Assembly defects
    (a non-unit leading coefficient, a generator outside the image) are
    reported first.  Otherwise the inverse rules, solved or inherited (the
    base's action is onto and the fiber goes to z^(+-1)), show phi_i onto,
    so it suffices that phi_i respects each rule x_j x_k x_j^-1 = w_jk of
    H_i (an onto endomorphism of a polycyclic group is an automorphism);
    the inverse rules are then its inverse and need no check.
    Levels are checked from the top, each in arithmetic already sound, by
    the rule loop that also checks generator maps; a broken rule is
    reported as phi_i(x_j x_k x_j^-1) vs phi_i(w_jk).
    """
    if p._defects:
        i, j, msg = p._defects[0]
        return ConsistencyResult(False, (gen(i), gen(j), gen(i, -1)), msg)
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
    dst.require_consistent()
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
    return PcPresentation((name,))


def parse_pc_presentation(text: str) -> PcPresentation:
    """Parse 'gens: g h n ; g n g^-1 = n^-1 ; g h g^-1 = n^2 h^-1'."""
    segments = [s.strip() for s in text.split(";") if s.strip()]
    if not segments or not segments[0].startswith("gens:"):
        raise ValueError("pc presentation must start with a 'gens:' segment")
    names = tuple(segments[0][len("gens:"):].split())
    conj = {}
    for seg in segments[1:]:
        if "=" not in seg:
            raise ValueError(f"rule {seg!r} has no '='")
        lhs, _, rhs = seg.partition("=")
        lw = parse_word(lhs, names)
        sylls = lw.syllables
        if (
            len(sylls) != 3
            or sylls[0][0] != sylls[2][0]
            or sylls[0][1] != 1
            or sylls[2][1] != -1
            or sylls[1][1] != 1
        ):
            raise ValueError(f"rule left side must be 'a b a^-1', got {lhs!r}")
        i, j = sylls[0][0], sylls[1][0]
        if not i < j:
            raise ValueError(f"rule {seg!r} must conjugate a later generator")
        if (i, j) in conj:
            raise ValueError(f"duplicate rule for ({names[i]}, {names[j]})")
        conj[(i, j)] = parse_word(rhs, names)
    return PcPresentation(names, conj)


def format_pc_presentation(p: PcPresentation) -> str:
    rules = [p.rule_str(i, j) for (i, j), _ in p.positive_rules()]
    return " ; ".join(["gens: " + " ".join(p.names)] + rules)
