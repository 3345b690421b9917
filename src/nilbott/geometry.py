"""Exact geometric models: affine isometries of flat n-space whose linear
parts are signed permutations, and affine maps of the 3-dimensional nil
geometry (the product R x C with twisted multiplication), plus the flat
model of a finite-type tower by the Seifert construction, the catalogue
representations (that model for the flat groups, lattice generators for
the nil ones), relation verification, bounded freeness certificates,
Euler numbers and the quotient-action check for the nil lattices.

All arithmetic is exact and nothing is ever rounded.  A map holds Python
integers over one positive denominator (the nil rotation over its own), so
products, inverses and most fixed-point solves use integer arithmetic only;
Fraction and Gaussian rational values are built for the public views
(`trans`, `g`, `aut`) and for the fixed points that are returned.

A freeness certificate walks the l1 ball of normal forms by heads
(e_0, ..., e_{i-1}).  A head whose product shifts a coordinate that every
later generator fixes pointwise (`coordinate_shifts`) has no fixed point
anywhere in its subtree, which is counted and skipped at once; a row
(e_0, ..., e_{n-2}) is ruled out by the same test against the last
generator.  On the catalogue models that settles every head with a nonzero
exponent, so only the all-zero row's maps are solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, gcd, lcm

from .catalogue import catalogue_pc
from .exact import GaussRat, IntMatrix, smith_normal_form
from .polycyclic import NormalForm, PcPresentation, require_integer_k


# -- flat affine maps --------------------------------------------------------


def _over_common_den(values) -> tuple[tuple[int, ...], int]:
    """(numerators, d): values[i] = numerators[i] / d over the least positive
    common denominator d of the rationals in values."""
    values = [Fraction(v) for v in values]
    d = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (d // v.denominator) for v in values), d


class FlatAffineMap:
    """x -> A x + b with A a signed permutation matrix and b exact rational.

    A is stored as (perm, signs) with (A x)_i = signs[i] * x[perm[i]]: the
    orthogonal integer matrices are exactly these.  b is stored as integer
    numerators over one positive denominator, b_i = num[i] / den; a product
    keeps den when both factors share it and uses the lcm otherwise, so den
    never grows beyond the lcm of the factors' denominators.  Only the
    constructor checks its input; products and inverses of checked maps are
    built directly, with O(n) integer operations.  `trans` gives b as a tuple
    of Fraction.
    """

    __slots__ = ("perm", "signs", "num", "den")

    def __init__(self, lin: IntMatrix, trans):
        if lin.rows != lin.cols:
            raise ValueError("linear part must be square")
        if any(x not in (-1, 0, 1) for row in lin.entries for x in row):
            raise ValueError("linear part entries must be -1, 0 or 1")
        cols = [[j for j, x in enumerate(row) if x] for row in lin.entries]
        if any(len(c) != 1 for c in cols) or len({c[0] for c in cols}) != len(cols):
            raise ValueError("linear part must be orthogonal")
        num, den = _over_common_den(trans)
        if len(num) != lin.rows:
            raise ValueError("translation length mismatch")
        self.perm = tuple(c[0] for c in cols)
        self.signs = tuple(row[j] for row, j in zip(lin.entries, self.perm))
        self.num, self.den = num, den

    @classmethod
    def _make(cls, perm, signs, num, den) -> "FlatAffineMap":
        m = object.__new__(cls)
        m.perm, m.signs, m.num, m.den = perm, signs, num, den
        return m

    @property
    def dim(self) -> int:
        return len(self.perm)

    @property
    def lin(self) -> IntMatrix:
        return IntMatrix(
            [[s if j == p else 0 for j in range(self.dim)]
             for p, s in zip(self.perm, self.signs)]
        )

    @property
    def trans(self) -> tuple:
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    @classmethod
    def translation(cls, vec) -> "FlatAffineMap":
        return cls(IntMatrix.identity(len(vec)), vec)

    def __eq__(self, other):
        if not (
            isinstance(other, FlatAffineMap)
            and self.perm == other.perm
            and self.signs == other.signs
        ):
            return False
        if self.den == other.den:
            return self.num == other.num
        return all(a * other.den == b * self.den for a, b in zip(self.num, other.num))

    def __hash__(self):
        return hash((self.perm, self.signs, self.trans))

    def __repr__(self):
        return f"FlatAffineMap({self.lin!r}, {self.trans})"

    def __mul__(self, other: "FlatAffineMap") -> "FlatAffineMap":
        perm, signs, a = self.perm, self.signs, self.num
        operm, osigns, b = other.perm, other.signs, other.num
        if len(operm) != len(perm):
            raise ValueError("dimension mismatch")
        den = self.den
        if other.den != den:
            den = lcm(den, other.den)
            fa, fb = den // self.den, den // other.den
            a = [n * fa for n in a]
            b = [n * fb for n in b]
        # one loop for all three parts: cheaper than three comprehensions
        out_perm, out_signs, out_num = [], [], []
        for p, s, t in zip(perm, signs, a):
            out_perm.append(operm[p])
            out_signs.append(s * osigns[p])
            out_num.append(s * b[p] + t)
        return FlatAffineMap._make(tuple(out_perm), tuple(out_signs), tuple(out_num), den)

    def inverse(self) -> "FlatAffineMap":
        n = self.dim
        perm, signs, num = [0] * n, [0] * n, [0] * n
        for i, (p, s, b) in enumerate(zip(self.perm, self.signs, self.num)):
            perm[p], signs[p], num[p] = i, s, -s * b
        return FlatAffineMap._make(tuple(perm), tuple(signs), tuple(num), self.den)

    def apply(self, point):
        return tuple(
            s * point[p] + b for p, s, b in zip(self.perm, self.signs, self.trans)
        )

    def is_identity(self) -> bool:
        return (
            self.perm == tuple(range(self.dim))
            and all(s == 1 for s in self.signs)
            and not any(self.num)
        )

    @classmethod
    def over_one_den(cls, maps) -> list:
        """maps with their translations over the lcm of their denominators,
        so that no product of them takes the lcm path."""
        d = lcm(*(m.den for m in maps))
        return [
            m if m.den == d
            else cls._make(m.perm, m.signs, tuple(n * (d // m.den) for n in m.num), d)
            for m in maps
        ]

    def coordinate_shifts(self) -> tuple:
        """For each coordinate c, the numerator t with (A x + b)_c = x_c +
        t/den for every x, or None when that coordinate is not moved by a
        translation alone (perm[c] != c or signs[c] == -1)."""
        return tuple(
            b if p == c and s == 1 else None
            for c, (p, s, b) in enumerate(zip(self.perm, self.signs, self.num))
        )

    def fixed_point(self):
        """Exact solution of A x + b = x as a list of Fraction, or None.

        Each cycle of perm is solved on its own: x_i = s_i x_perm(i) + b_i
        followed once round the cycle closes to x_top = S x_top + c at
        the cycle's largest index top, with S = +-1.  S = -1 gives
        x_top = c/2; S = 1 has no solution unless c = 0, and then the free
        coordinate x_top is set to 0.  The walk runs on the integers
        y_i = 2 den x_i, so no Fraction is built unless a point is returned.
        """
        perm, signs, num = self.perm, self.signs, self.num
        y = [None] * len(perm)
        for top in reversed(range(len(perm))):
            if y[top] is not None:
                continue
            # den x_top = coef * den x_j + const, walking j once round the cycle
            cycle, coef, const, j = [], 1, 0, top
            while True:
                cycle.append(j)
                coef, const, j = coef * signs[j], const + coef * num[j], perm[j]
                if j == top:
                    break
            if coef == 1:
                if const:
                    return None
                y[top] = 0
            else:
                y[top] = const
            for i in reversed(cycle[1:]):
                y[i] = signs[i] * y[perm[i]] + 2 * num[i]
        den2 = 2 * self.den
        return [Fraction(v, den2) for v in y]


# -- nil geometry ------------------------------------------------------------


class HeisPoint:
    """Element (x, z) of R x C with (x,z)(y,w) = (x + y - Im(conj(z) w), z + w)."""

    __slots__ = ("x", "z")

    def __init__(self, x, z):
        self.x = Fraction(x)
        self.z = z if isinstance(z, GaussRat) else GaussRat(z)

    def __eq__(self, other):
        return isinstance(other, HeisPoint) and self.x == other.x and self.z == other.z

    def __hash__(self):
        return hash((self.x, self.z))

    def __repr__(self):
        return f"HeisPoint({self.x}, {self.z})"

    def __mul__(self, other: "HeisPoint") -> "HeisPoint":
        twist = (self.z.conj() * other.z).im
        return HeisPoint(self.x + other.x - twist, self.z + other.z)

    def inverse(self) -> "HeisPoint":
        return HeisPoint(-self.x, -self.z)

    def is_identity(self) -> bool:
        return self.x == 0 and self.z.is_zero()

    @classmethod
    def identity(cls) -> "HeisPoint":
        return cls(0, GaussRat(0))


class HeisAut:
    """Automorphism z -> u z (conj: z -> u conj(z), x -> -x) with |u| = 1."""

    __slots__ = ("u", "conj")

    def __init__(self, u=GaussRat(1), conj=False):
        u = u if isinstance(u, GaussRat) else GaussRat(u)
        if not u.is_unit():
            raise ValueError("rotation part must be a unit Gaussian rational")
        self.u = u
        self.conj = bool(conj)

    def __eq__(self, other):
        return isinstance(other, HeisAut) and self.u == other.u and self.conj == other.conj

    def __hash__(self):
        return hash((self.u, self.conj))

    def __repr__(self):
        return f"HeisAut({self.u!r}, conj={self.conj})"

    def apply(self, p: HeisPoint) -> HeisPoint:
        if self.conj:
            return HeisPoint(-p.x, self.u * p.z.conj())
        return HeisPoint(p.x, self.u * p.z)

    def __mul__(self, other: "HeisAut") -> "HeisAut":
        u2 = other.u.conj() if self.conj else other.u
        return HeisAut(self.u * u2, self.conj != other.conj)

    def inverse(self) -> "HeisAut":
        if self.conj:
            return HeisAut(self.u, True)
        return HeisAut(self.u.conj(), False)

    def is_identity(self) -> bool:
        return not self.conj and self.u == GaussRat(1)


TAU = HeisAut(GaussRat(1), conj=True)


class HeisAffineMap:
    """p -> g * aut(p): the isometry-like maps of the nil geometry.

    g = (x, z) is stored as integers over one positive denominator,
    x = gx/gd and z = (gr + gi i)/gd, and the rotation u of aut as a
    Gaussian integer over its own denominator, u = (ur + ui i)/ud, plus the
    conj flag.  Both are kept reduced (gcd(gd, gx, gr, gi) = 1 and
    gcd(ud, ur, ui) = 1), so equal maps have equal integers.  `g` and `aut`
    give the HeisPoint and HeisAut values.
    """

    __slots__ = ("gx", "gr", "gi", "gd", "ur", "ui", "ud", "conj")

    #: dimension of the nil geometry R x C
    dim = 3

    def __init__(self, g: HeisPoint, aut: HeisAut = None):
        aut = aut if aut is not None else HeisAut()
        (self.gx, self.gr, self.gi), self.gd = _over_common_den((g.x, g.z.re, g.z.im))
        (self.ur, self.ui), self.ud = _over_common_den((aut.u.re, aut.u.im))
        self.conj = aut.conj

    @property
    def g(self) -> HeisPoint:
        d = self.gd
        return HeisPoint(
            Fraction(self.gx, d), GaussRat(Fraction(self.gr, d), Fraction(self.gi, d))
        )

    @property
    def aut(self) -> HeisAut:
        d = self.ud
        return HeisAut(GaussRat(Fraction(self.ur, d), Fraction(self.ui, d)), self.conj)

    def _key(self) -> tuple:
        return (self.gx, self.gr, self.gi, self.gd, self.ur, self.ui, self.ud, self.conj)

    def __eq__(self, other):
        return isinstance(other, HeisAffineMap) and self._key() == other._key()

    def __hash__(self):
        return hash((self.g, self.aut))

    def __repr__(self):
        return f"HeisAffineMap({self.g!r}, {self.aut!r})"

    def __mul__(self, other: "HeisAffineMap") -> "HeisAffineMap":
        ur, ui, ud, conj = self.ur, self.ui, self.ud, self.conj
        x2, r2, i2 = other.gx, other.gr, other.gi
        # w = aut(other.g) over e
        if conj:
            wx, wr, wi = -x2 * ud, ur * r2 + ui * i2, ui * r2 - ur * i2
        else:
            wx, wr, wi = x2 * ud, ur * r2 - ui * i2, ur * i2 + ui * r2
        e = ud * other.gd
        # g * w over d1 e; the x part gains -Im(conj(z) w)
        x1, r1, i1, d1 = self.gx, self.gr, self.gi, self.gd
        vr, vi = other.ur, -other.ui if conj else other.ui
        return _reduced_heis(
            x1 * e + wx * d1 - (r1 * wi - i1 * wr), r1 * e + wr * d1, i1 * e + wi * d1,
            d1 * e, ur * vr - ui * vi, ur * vi + ui * vr, ud * other.ud, conj != other.conj,
        )

    def inverse(self) -> "HeisAffineMap":
        # aut^-1 is (u, conj) for a conjugation and (conj(u), no conj)
        # otherwise; the inverse map is (-aut^-1(g), aut^-1)
        x, r, i, ur, ui, ud = self.gx, self.gr, self.gi, self.ur, self.ui, self.ud
        if self.conj:
            return _reduced_heis(
                x * ud, -(ur * r + ui * i), ur * i - ui * r, self.gd * ud, ur, ui, ud, True
            )
        return _reduced_heis(
            -x * ud, -(ur * r + ui * i), ui * r - ur * i, self.gd * ud, ur, -ui, ud, False
        )

    def apply(self, p: HeisPoint) -> HeisPoint:
        return self.g * self.aut.apply(p)

    def is_identity(self) -> bool:
        return not (self.conj or self.gx or self.gr or self.gi) and self.ur == self.ud

    @classmethod
    def over_one_den(cls, maps) -> list:
        """maps as they are: nil maps are kept reduced."""
        return list(maps)

    def coordinate_shifts(self) -> tuple:
        """The shifts of the coordinates (x, re z, im z), as numerators over
        gd, in the sense of `FlatAffineMap.coordinate_shifts`.  With rotation
        1, re z goes to re z + gr/gd, and im z to im z + gi/gd unless the
        map conjugates; x, and every coordinate under another rotation, get
        None."""
        if self.ur != self.ud:
            return (None, None, None)
        return (None, self.gr, None if self.conj else self.gi)

    def fixed_point(self):
        """Exact fixed point (x, z), or None.

        With u = 1 the integers settle it: a translation fixes a point only
        if it is the identity, and z -> c + conj(z) needs re c = 0, then
        fixes (x, z) = (a/2, i im(c)/2).  Otherwise the z-component
        satisfies a singular 2x2 rational system; the x-component is then
        determined (conj case) or free (rotations).
        """
        if self.ur == self.ud:  # u = 1, as |u| = 1 and u is reduced
            if not self.conj:
                if self.gx or self.gr or self.gi:
                    return None
                return HeisPoint(0, GaussRat(0))
            if self.gr:
                return None
            d2 = 2 * self.gd
            return HeisPoint(Fraction(self.gx, d2), GaussRat(0, Fraction(self.gi, d2)))
        g, aut = self.g, self.aut
        a, c, u = g.x, g.z, aut.u
        if not self.conj:
            z = c / (GaussRat(1) - u)
            if (c.conj() * (u * z)).im != a:
                return None
            return HeisPoint(0, z)
        # conjugating case: z = c + u conj(z) is a real 2x2 system of rank 1
        # (|u| = 1, u != 1); take the solution with im z = 0
        z = GaussRat(c.re / (1 - u.re))
        if z != c + u * z.conj():
            return None
        x = (a - (c.conj() * aut.apply(HeisPoint(0, z)).z).im) / 2
        return HeisPoint(x, z)


def _reduced_heis(x, r, i, d, ur, ui, ud, conj) -> HeisAffineMap:
    """The nil map with g = (x, (r + i i)/d) and u = (ur + ui i)/ud, with one
    gcd per denominator to reduce them."""
    if d != 1:
        f = gcd(d, x, r, i)
        if f != 1:
            x, r, i, d = x // f, r // f, i // f, d // f
    if ud != 1:
        f = gcd(ud, ur, ui)
        if f != 1:
            ur, ui, ud = ur // f, ui // f, ud // f
    m = object.__new__(HeisAffineMap)
    m.gx, m.gr, m.gi, m.gd, m.ur, m.ui, m.ud, m.conj = x, r, i, d, ur, ui, ud, conj
    return m


# -- representations ---------------------------------------------------------


def delta_generators(k: int) -> list[HeisAffineMap]:
    """Nil lattice generators (a, b, c) with [a, b] = c^-k, c central."""
    require_integer_k(k)
    return [
        _reduced_heis(0, k, 0, 1, 1, 0, 1, False),
        _reduced_heis(0, 0, k, 1, 1, 0, 1, False),
        _reduced_heis(2 * k, 0, 0, 1, 1, 0, 1, False),
    ]


def gamma_generators(k: int) -> list[HeisAffineMap]:
    """Generators (a, b, n) of the index-2 nil lattice extension; a is
    z -> k/2 + conj(z), x -> -x."""
    require_integer_k(k)
    if k == 0:
        raise ValueError("the index-2 nil lattice needs k != 0")
    return [
        _reduced_heis(0, k, 0, 2, 1, 0, 1, True),
        _reduced_heis(0, 0, k, 1, 1, 0, 1, False),
        _reduced_heis(k, 0, 0, 1, 1, 0, 1, False),
    ]


def seifert_model(p: PcPresentation) -> list[FlatAffineMap]:
    """The flat model of a finite-type tower by the Seifert construction
    (Lee & Raymond, *Seifert Fiberings*, 2010; Charlap, *Bieberbach Groups
    and Flat Manifolds*, 1986), one map per generator of p.

    Coordinate j is the fiber x_j of stage j + 1.  On it x_i acts by
    y -> s_ij y + c_ij for i < j, with s_ij the sign of x_j in the rule of
    (i, j); x_j acts by y -> y + 1 and every later generator trivially.
    So the linear parts are diagonal, and the maps of stage j only see
    rules below it: one row per rule (a, b), a < b < j, says that the
    translations of x_a x_b x_a^-1 and of the rule's normal form cut at j
    agree.  The rows are linear in the c_ij with integer coefficients and
    are solved over Q by one Smith form.  They have no solution exactly
    when the stage's extension class has infinite order; then ValueError
    names the stage.

    A nonidentity normal form with first nonzero exponent e_i translates
    coordinate i by e_i, with linear part +1 there, so the model is
    faithful and moves every point.
    """
    n = p.ngens
    signs = [[p.rule(i, j)[j] if i < j else 1 for j in range(n)] for i in range(n)]
    trans = [[int(i == j) for j in range(n)] for i in range(n)]
    for j in range(2, n):
        s = [signs[i][j] for i in range(j)] + [1]
        rows, rhs = [], []
        for a in range(j):
            for b in range(a + 1, j):
                # x_a x_b x_a^-1 translates coordinate j by (1 - s_b) c_a + s_a c_b
                row = [-x for x in _translation_form(p.rule(a, b), s, j)]
                row[a] += 1 - s[b]
                row[b] += s[a]
                rows.append(row[:j])
                rhs.append(-row[j])
        c = _solve_rational(rows, rhs)
        if c is None:
            raise ValueError(
                f"stage {j + 1}: the extension class has infinite order, "
                "so the tower has no flat model"
            )
        for i in range(j):
            trans[i][j] = c[i]
    return [
        FlatAffineMap._make(tuple(range(n)), tuple(signs[i]), *_over_common_den(trans[i]))
        for i in range(n)
    ]


def _translation_form(w: NormalForm, s, j: int) -> list[int]:
    """The translation on coordinate j of the normal form w cut at j, as
    integer coefficients of (c_0j, ..., c_{j-1,j}, 1): x_i^e translates by
    e c_ij when s_i = 1 and by c_ij when s_i = -1 and e is odd."""
    form = [0] * (j + 1)
    lin = 1
    for i, e in enumerate(w[:j + 1]):
        if s[i] == 1:
            form[i] += lin * e
        elif e % 2:
            form[i] += lin
            lin = -lin
    return form


def _solve_rational(rows, rhs) -> tuple | None:
    """One rational solution c of rows c = rhs, or None if there is none:
    with u rows v = diag(d) from the Smith form, c = v z for z_i =
    (u rhs)_i / d_i, and z_i = 0 where d_i = 0."""
    d, u, v = smith_normal_form(IntMatrix(rows))
    z = [0] * len(rows[0])
    for i, t in enumerate(u.apply(rhs)):
        if i < len(d) and d[i]:
            z[i] = Fraction(t, d[i])
        elif t:
            return None
    return v.apply(z)


def catalogue_representation(label: str, k: int | None = None) -> list:
    """Exact generator maps for a catalogue group, aligned with the
    generator order of catalogue_pc(label, k): the nil lattice generators
    for Delta(k != 0) and Gamma(k), and otherwise the group's Seifert model,
    solved once per label.  Each call returns a fresh list."""
    if label == "Gamma" or (label == "Delta" and k != 0):
        if k is None:
            raise ValueError(f"{label} needs k")
        return (gamma_generators if label == "Gamma" else delta_generators)(k)
    catalogue_pc(label, k)  # refuses an unknown label and a k it does not take
    return list(_flat_model(label, k))


@cache
def _flat_model(label: str, k: int | None) -> tuple:
    return tuple(seifert_model(catalogue_pc(label, k)))


def _power(m, e: int):
    """m^e for e != 0 by repeated squaring: O(log |e|) products."""
    base = m if e > 0 else m.inverse()
    e = abs(e)
    out = None
    while True:
        if e & 1:
            out = base if out is None else out * base
        e >>= 1
        if not e:
            return out
        base = base * base


def rep_evaluate(rep: list, v: NormalForm):
    """The map of the normal form x_0^v_0 ... x_{n-1}^v_{n-1}, one exponent
    per map of rep, each power by repeated squaring."""
    if len(v) != len(rep):
        raise ValueError("need one exponent per map")
    out = None
    for m, e in zip(rep, v):
        if e:
            step = _power(m, e)
            out = step if out is None else out * step
    if out is None:
        return rep[0] * rep[0].inverse()
    return out


def verify_relations_in_rep(p: PcPresentation, rep: list):
    """Check every conjugation rule as an exact composition of maps.

    Returns (ok, witness) where witness names the failing rule and both
    sides' values.
    """
    if len(rep) != p.ngens:
        raise ValueError("need one map per generator")
    _require_one_geometry(rep)
    for (i, j), w in p.positive_rules():
        lhs = rep[i] * rep[j] * rep[i].inverse()
        rhs = rep_evaluate(rep, w)
        if lhs != rhs:
            rule = f"{p.names[i]} {p.names[j]} {p.names[i]}^-1 = {p.nf_str(w)}"
            return False, (rule, lhs, rhs)
    return True, None


@dataclass
class FreenessReport:
    """Bounded certificate: exact fixed-point status of every nonidentity
    normal form up to the stated letter length.  Not a proof of freeness
    beyond the bound."""

    max_word_len: int
    words_checked: int
    fixed_points: list  # (normal form, point)

    @property
    def is_free_sample(self) -> bool:
        return not self.fixed_points


def _power_table(m, bound: int) -> dict:
    """{e: m^e for 1 <= |e| <= bound}, by one inverse and 2(bound-1)
    products."""
    table = {}
    for sign, step in ((1, m), (-1, m.inverse())):
        acc = table[sign] = step
        for e in range(2, bound + 1):
            acc = table[sign * e] = acc * step
    return table


def _l1_ball(powers: list, kept: list, budget: int, prefix=None, head=()):
    """Yield (head, m_0^e_0 ... m_{i-1}^e_{i-1}, budget - |head|_1) for the
    heads (e_0, ..., e_{i-1}) with l1 norm at most budget, in lexicographic
    order: every row, i = len(powers), and every shorter head whose product
    shifts one of the coordinates kept[i] by a nonzero amount, whose
    subtree is then not walked.  The caller puts a row to the same test
    against kept[len(powers)].  The product is None for an all-zero head."""
    i = len(head)
    if i == len(powers) or (prefix is not None and _shifts_one_of(prefix, kept[i])):
        yield head, prefix, budget
        return
    for e in range(-budget, budget + 1):
        if e:
            step = powers[i][e]
            yield from _l1_ball(
                powers, kept, budget - abs(e),
                step if prefix is None else prefix * step, head + (e,),
            )
        else:
            yield from _l1_ball(powers, kept, budget, prefix, head + (0,))


def _shifts_one_of(m, coords) -> bool:
    """Whether m shifts one of coords by a nonzero amount."""
    shifts = m.coordinate_shifts()
    return any(shifts[c] for c in coords)


def _require_one_geometry(rep: list) -> None:
    """Raise ValueError unless the maps of rep are all flat of one
    dimension or all nil."""
    if len({(type(m), m.dim) for m in rep}) > 1:
        raise ValueError(
            "a representation must be all flat maps of one dimension or all nil maps"
        )


#: most normal forms one freeness_sample call walks
FREENESS_LIMIT = 10**6


def l1_ball_size(ngens: int, radius: int) -> int:
    """Number of nonzero integer vectors of length ngens with l1 norm at most
    radius: the sum over i of 2^i C(ngens, i) C(radius, i)."""
    return sum(2**i * comb(ngens, i) * comb(radius, i) for i in range(1, ngens + 1))


def freeness_sample(p: PcPresentation, rep: list, max_word_len: int) -> FreenessReport:
    """Exact fixed-point status of every nonidentity normal form
    x_0^e_0 ... x_{n-1}^e_{n-1} with sum |e_i| <= max_word_len.

    The vectors are visited in lexicographic order of (e_0, ..., e_{n-1}),
    each e_i ascending from its most negative value; fixed points are
    reported in that order.  Each generator's powers are tabulated once,
    over one denominator, and the walk goes by heads (e_0, ..., e_{i-1})
    with their prefix product P and the budget b left.

    A head is ruled out with its whole subtree when P shifts a coordinate
    c by a nonzero amount (`coordinate_shifts`) and each of m_i, ...,
    m_{n-1} fixes c pointwise: then every completion P Q moves coordinate
    c of every point by that amount, so none has a fixed point.  The test
    is exact for any representation.  A shorter head, i < n-1, counts
    itself and its l1_ball_size(n - i, b) nonzero completions as checked;
    a row, i = n-1, counts its 2b + 1 forms P m_{n-1}^e, e in [-b, b].
    On the catalogue models every head with a nonzero exponent is ruled
    out at its first nonzero position, as in the Seifert construction.

    Every other row, the all-zero one included (its maps are powers of
    m_{n-1} from the table), has the map of each e solved by
    `fixed_point`.

    A ball of more than FREENESS_LIMIT normal forms is rejected before any
    map product is taken, and a representation that mixes flat and nil
    maps, or flat dimensions, is rejected with ValueError.
    """
    if max_word_len < 1:
        raise ValueError("max_word_len must be at least 1")
    if len(rep) != p.ngens:
        raise ValueError("need one map per generator")
    forms = l1_ball_size(p.ngens, max_word_len)
    if forms > FREENESS_LIMIT:
        raise ValueError(
            f"{forms} normal forms up to length {max_word_len}, "
            f"above the limit of {FREENESS_LIMIT}"
        )
    _require_one_geometry(rep)
    n = p.ngens
    maps = type(rep[0]).over_one_den(rep)
    powers = [_power_table(m, max_word_len) for m in maps]
    # kept[i]: the coordinates that each of m_i, ..., m_{n-1} fixes pointwise
    kept = [None] * n
    common = range(maps[0].dim)
    for i in reversed(range(n)):
        shifts = maps[i].coordinate_shifts()
        common = kept[i] = [c for c in common if shifts[c] == 0]
    last = powers[-1]
    checked = 0
    fixed = []
    for head, prefix, b in _l1_ball(powers[:-1], kept, max_word_len):
        if len(head) < n - 1:
            # a ruled-out subtree: the head and its nonzero completions
            checked += 1 + l1_ball_size(n - len(head), b)
            continue
        checked += 2 * b + (prefix is not None)
        if prefix is not None and _shifts_one_of(prefix, kept[n - 1]):
            continue  # a ruled-out row
        for e in range(-b, b + 1):
            if e:
                m = last[e] if prefix is None else prefix * last[e]
            elif prefix is None:
                continue  # the identity
            else:
                m = prefix
            pt = m.fixed_point()
            if pt is not None:
                fixed.append((head + (e,), pt))
    return FreenessReport(max_word_len, checked, fixed)


def euler_number(k: int) -> int:
    """Fiber exponent of the lattice commutator [a, b] in the nil lattice
    with twisting k; its magnitude is the circle-bundle Euler number."""
    if k == 0:
        return 0
    a, b, c = delta_generators(k)
    comm = a * b * a.inverse() * b.inverse()
    # comm is central: (x, 0); express as a power of c = (2k, 0)
    if not comm.g.z.is_zero() or not comm.aut.is_identity():
        raise ValueError("lattice commutator is not central")
    num = comm.g.x
    den = 2 * k
    if num % den:
        raise ValueError("commutator is not a power of the fiber generator")
    return int(num // den)


# -- quotient action of the index-2 nil lattice -------------------------------


def check_quotient_action(n: HeisAffineMap, a: HeisAffineMap, b: HeisAffineMap) -> bool:
    """Verify the induced action on the plane C (the quotient by the
    central fiber, read off the z-parts of the maps): the fiber projects
    to the identity, a^2 and b span the translation lattice, and the class
    of a acts by conjugation on the second lattice direction and a
    half-period shift on the first (the Klein-type quotient action)."""
    if not (n.g.z.is_zero() and n.aut.is_identity()):
        return False
    if a.aut != TAU:
        return False
    if not b.aut.is_identity():
        return False
    t1 = (a * a).g.z
    t2 = b.g.z
    # the images of a^2 and b must span a genuine plane lattice
    if t1.re * t2.im - t1.im * t2.re == 0:
        return False
    # a is a half-period shift along t1
    if a.g.z + a.g.z != t1:
        return False
    # induced action on the lattice: t1 fixed, t2 inverted
    if t1.conj() != t1:
        return False
    if t2.conj() != -t2:
        return False
    return True


def klein_quotient_check(k: int) -> bool:
    """Quotient-action check for the index-2 nil lattice with twisting k."""
    a, b, n = gamma_generators(k)
    return check_quotient_action(n, a, b)
