"""Exact geometric models: affine maps of n-space whose linear parts are
integer lower-triangular matrices with +-1 on the diagonal, the model of
every tower by the Seifert construction, the catalogue representations
(that model for every label), relation verification, bounded freeness
certificates, Euler numbers and the quotient-action check for Gamma(k).

All arithmetic is exact and nothing is ever rounded.  A map holds Python
integers: its linear part, and its translation over one positive
denominator, so products, inverses and the model solves use integer
arithmetic only; Fraction values are built for the public view `trans` and
for the fixed points that are returned.  A flat model has diagonal linear
parts; the models of infinite-type towers (Delta(k), Gamma(k), ...) shear
each fiber coordinate along the lower ones.

A freeness certificate reads the representation's shape first.  A level
i is settled when x_i shifts a coordinate that every later generator
fixes pointwise (`coordinate_shifts`): then every normal form whose first
nonzero exponent is at i is ruled out.  When every level is settled, as
in every model of the Seifert construction, the whole l1 ball of normal
forms is certified in closed form: a sample reads each generator's shifts
once, rescales no map, takes no map product, solves no map and costs O(n)
at any word length.  Otherwise the settled levels before the first
unsettled one are counted in one step, and the ball is walked from there
by heads (e_0, ..., e_{i-1}).  A head whose product shifts a coordinate
that every later generator fixes pointwise has no fixed point anywhere in
its subtree, which is counted and skipped at once; a row (e_0, ...,
e_{n-2}) is ruled out by the same test against the last generator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .catalogue import catalogue_pc
from .exact import IntMatrix, smith_normal_form
from .polycyclic import NormalForm, PcPresentation, require_integer_k
from .records import Record


# -- triangular affine maps ----------------------------------------------------


def _over_common_den(values) -> tuple[tuple[int, ...], int]:
    """(numerators, d): values[i] = numerators[i] / d over the least positive
    common denominator d of the rationals in values."""
    values = [Fraction(v) for v in values]
    d = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (d // v.denominator) for v in values), d


class FlatAffineMap:
    """x -> A x + b with A an integer lower-triangular matrix with +-1 on its
    diagonal and b exact rational.

    A is stored as its diagonal `signs` and its strictly-lower rows `low`,
    low[i] holding the i entries left of the diagonal in row i, or None when
    A is diagonal, the flat models' case.  b is stored as integer numerators
    over one positive denominator, b_i = num[i] / den; a product keeps den
    when both factors share it and uses the lcm otherwise.  Only the
    constructor checks its input; products and inverses of checked maps are
    built directly.  `trans` gives b as a tuple of Fraction.
    """

    __slots__ = ("signs", "low", "num", "den")

    def __init__(self, lin: IntMatrix, trans):
        if lin.rows != lin.cols:
            raise ValueError("linear part must be square")
        rows = lin.entries
        if any(x for i, row in enumerate(rows) for x in row[i + 1:]):
            raise ValueError("linear part must be lower triangular")
        if any(row[i] not in (-1, 1) for i, row in enumerate(rows)):
            raise ValueError("diagonal entries of the linear part must be -1 or 1")
        num, den = _over_common_den(trans)
        if len(num) != lin.rows:
            raise ValueError("translation length mismatch")
        self.signs = tuple(row[i] for i, row in enumerate(rows))
        self.low = _lower(tuple(row[:i] for i, row in enumerate(rows)))
        self.num, self.den = num, den

    @classmethod
    def _make(cls, signs, low, num, den) -> "FlatAffineMap":
        m = object.__new__(cls)
        m.signs, m.low, m.num, m.den = signs, low, num, den
        return m

    @property
    def dim(self) -> int:
        return len(self.signs)

    @property
    def lin(self) -> IntMatrix:
        n, low = self.dim, self.low
        return IntMatrix(
            [(low[i] if low else (0,) * i) + (s,) + (0,) * (n - i - 1)
             for i, s in enumerate(self.signs)]
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
            and self.signs == other.signs
            and self.low == other.low
        ):
            return False
        if self.den == other.den:
            return self.num == other.num
        return all(a * other.den == b * self.den for a, b in zip(self.num, other.num))

    def __hash__(self):
        return hash((self.signs, self.low, self.trans))

    def __repr__(self):
        return f"FlatAffineMap({self.lin!r}, {self.trans})"

    def __mul__(self, other: "FlatAffineMap") -> "FlatAffineMap":
        signs, low, a = self.signs, self.low, self.num
        osigns, olow, b = other.signs, other.low, other.num
        if len(osigns) != len(signs):
            raise ValueError("dimension mismatch")
        den = self.den
        if other.den != den:
            den = lcm(den, other.den)
            fa, fb = den // self.den, den // other.den
            a = [n * fa for n in a]
            b = [n * fb for n in b]
        # row i of A B is s_i (row i of B) plus A_im (row m of B) for m < i
        out_signs, out_low, out_num = [], [], []
        for i, s in enumerate(signs):
            t = a[i] + s * b[i]
            row = [s * y for y in olow[i]] if olow else [0] * i
            if low:
                for m, x in enumerate(low[i]):
                    if x:
                        if olow:
                            for l, y in enumerate(olow[m]):
                                row[l] += x * y
                        row[m] += x * osigns[m]
                        t += x * b[m]
            out_signs.append(s * osigns[i])
            out_low.append(tuple(row))
            out_num.append(t)
        return FlatAffineMap._make(
            tuple(out_signs), _lower(tuple(out_low)), tuple(out_num), den
        )

    def inverse(self) -> "FlatAffineMap":
        signs, low, num = self.signs, self.low, self.num
        # row i of A^-1 is -s_i (A_im (row m of A^-1) summed over m < i),
        # with s_i on the diagonal; the translation t solves A t = -b, so
        # t_i = -s_i (b_i + A_im t_m summed over m < i)
        rows, out_num = [], []
        for i, s in enumerate(signs):
            acc = [0] * i
            t = num[i]
            for m, x in enumerate(low[i] if low else ()):
                if x:
                    for l, y in enumerate(rows[m]):
                        acc[l] += x * y
                    acc[m] += x * signs[m]
                    t += x * out_num[m]
            rows.append(tuple([-s * y for y in acc]))
            out_num.append(-s * t)
        return FlatAffineMap._make(signs, _lower(tuple(rows)), tuple(out_num), self.den)

    def apply(self, point):
        low = self.low
        return tuple(
            s * point[i] + b + (sum(x * p for x, p in zip(low[i], point)) if low else 0)
            for i, (s, b) in enumerate(zip(self.signs, self.trans))
        )

    @classmethod
    def over_one_den(cls, maps) -> list:
        """maps with their translations over the lcm of their denominators,
        so that no product of them takes the lcm path."""
        d = lcm(*(m.den for m in maps))
        return [
            m if m.den == d
            else cls._make(m.signs, m.low, tuple(n * (d // m.den) for n in m.num), d)
            for m in maps
        ]

    def coordinate_shifts(self) -> tuple:
        """For each coordinate c, the numerator t with (A x + b)_c = x_c +
        t/den for every x, or None when row c of A is not the unit row."""
        low = self.low
        return tuple(
            b if s == 1 and not (low and any(low[c])) else None
            for c, (s, b) in enumerate(zip(self.signs, self.num))
        )

    def fixed_point(self):
        """Exact solution of A x + b = x as a list of Fraction, or None:
        (A - I) den x = -num solved by `_solve_rational`.  On a diagonal A
        the solution is unique, x_i = b_i/2 where A flips coordinate i and
        0 where it keeps it."""
        den = self.den
        rows = [list(r) for r in self.lin.entries]
        for i, row in enumerate(rows):
            row[i] -= 1
        sol = _solve_rational(rows, [-b for b in self.num])
        if sol is None:
            return None
        nums, d = sol
        return [Fraction(v, d * den) for v in nums]


def _lower(rows: tuple):
    """rows as the strictly-lower part of a map, or None if they are zero."""
    return rows if any(any(r) for r in rows) else None


def _solve_rational(rows, rhs) -> tuple | None:
    """One rational solution c of rows c = rhs as (numerators, d) with
    c_i = numerators[i] / d, or None if there is none.  The unknowns with
    an all-zero column are 0, and the all-zero rows must have rhs 0; on the
    rest, with u rows v = diag(e) from the Smith form, c = v z for z_i =
    (u rhs)_i / e_i, and z_i = 0 where e_i = 0.  Only integers are built."""
    cols = [j for j in range(len(rows[0])) if any(row[j] for row in rows)]
    kept = []
    for row, x in zip(rows, rhs):
        if any(row):
            kept.append(([row[j] for j in cols], x))
        elif x:
            return None
    c = [0] * len(rows[0])
    if not kept:
        return c, 1
    e, u, v = smith_normal_form(IntMatrix([row for row, _ in kept]))
    t = u.apply([x for _, x in kept])
    d = 1
    for i, x in enumerate(t):
        if i < len(e) and e[i]:
            d = lcm(d, e[i] // gcd(e[i], x))
        elif x:
            return None
    z = [x * d // e[i] if e[i] else 0 for i, x in enumerate(t[:len(e)])]
    z += [0] * (len(cols) - len(z))
    for j, x in zip(cols, v.apply(z)):
        c[j] = x
    return c, d


# -- the model of a tower ------------------------------------------------------


def seifert_model(p: PcPresentation) -> list[FlatAffineMap]:
    """The triangular affine model of a tower by the Seifert construction
    (Lee & Raymond, *Seifert Fiberings*, 2010; Charlap, *Bieberbach Groups
    and Flat Manifolds*, 1986), one map per generator of p.

    Coordinate j is the fiber x_j of stage j + 1.  On it x_j acts by
    y_j -> y_j + t_j, every later generator trivially, and x_i, i < j, by
    y_j -> s_ij y_j + c_ij + sum_{l<j} a_ijl y_l, with s_ij the sign of x_j
    in the rule of (i, j).  The maps of stage j only see the rules below
    it: for each rule (a, b), a < b < j, coordinate j of M_a M_b and of
    rep_evaluate(w) M_a must agree, w the rule's normal form cut at j.
    Their difference is affine in y_0, ..., y_{j-1}, and each coefficient
    is affine in the stage's unknowns, so evaluating it with every unknown
    0 and with one unknown 1 gives one rational linear system, solved by
    one Smith form.  Degree 0 (every a_ijl = 0, t_j = 1) is solved first:
    it has a solution exactly when the stage's extension class has finite
    order, and then the model is flat.  Otherwise degree 1 is solved, and
    coordinate j is scaled by the lcm t_j of the a_ijl's denominators, so
    every linear part stays an integer matrix.  A stage with no solution
    of degree at most 1 raises ValueError naming it.

    A nonidentity normal form with first nonzero exponent e_i shifts
    coordinate i by e_i t_i, which no later generator touches, so the model
    is faithful and moves every point.
    """
    n = p.ngens
    signs = [tuple(p.rule(i, j)[j] if i < j else 1 for j in range(n)) for i in range(n)]
    # x_i on coordinate j: lows[i][j] the coefficients of y_0..y_{j-1}, and
    # the constant nums[i][j] / dens[i], over the least common denominator
    lows = [[(0,) * j for j in range(n)] for _ in range(n)]
    nums = [[int(i == j) for j in range(n)] for i in range(n)]
    dens = [1] * n
    for j in range(2, n):
        consts, coefs, d = _solve_stage(p, signs, lows, nums, dens, j)
        scale = lcm(*(d // gcd(d, a) for row in coefs for a in row))
        for i in range(j):
            c = scale * consts[i]
            g = gcd(c, d)
            c, e = c // g, d // g
            if dens[i] % e:
                f = e // gcd(dens[i], e)
                nums[i] = [x * f for x in nums[i]]
                dens[i] *= f
            nums[i][j] = c * (dens[i] // e)
            if coefs:
                lows[i][j] = tuple(scale * a // d for a in coefs[i])
        nums[j][j] = scale
    return [
        FlatAffineMap._make(signs[i], _lower(tuple(lows[i])), tuple(nums[i]), dens[i])
        for i in range(n)
    ]


def _solve_stage(p, signs, lows, nums, dens, j):
    """The stage-j unknowns of seifert_model as integers over one positive
    d: (c_ij for i < j, [] at degree 0 or the rows (a_ij0, ..., a_ij{j-1})
    for i < j at degree 1, d)."""
    # the maps on coordinates 0..j with every unknown 0, over one den
    den = lcm(*dens[:j + 1])
    base = [
        FlatAffineMap._make(signs[i][:j + 1], _lower(tuple(lows[i][:j + 1])),
                            tuple(x * (den // dens[i]) for x in nums[i][:j + 1]), den)
        for i in range(j + 1)
    ]
    # per rule (a, b), a < b < j: the powers base[g]^e of its normal form w
    # cut at j, and M_a M_b and rep(w) with every unknown 0
    rules = []
    for a in range(j):
        for b in range(a + 1, j):
            factors = [(g, e, _power(base[g], e)) for g, e in enumerate(p.rule(a, b)[:j + 1]) if e]
            w = _chain(f for _, _, f in factors)
            rules.append((a, b, {g for g, _, _ in factors}, factors, base[a] * base[b], w))

    def residuals(changed=None, m=None):
        """Per rule, row j of M_a M_b - rep(w) M_a (coefficients, then
        constant), with base[changed] replaced by m; None for a rule that
        does not involve the changed generator."""
        out = []
        for a, b, gens, factors, lhs, w in rules:
            moved = changed == a or changed == b
            if changed in gens:
                w = _chain(_power(m, e) if g == changed else f for g, e, f in factors)
            elif not moved and m is not None:
                out.append(None)
                continue
            ma = m if changed == a else base[a]
            if moved:
                lhs = ma * (m if changed == b else base[b])
            out.append([x - y for x, y in zip(_row(lhs, j), _row(w * ma, j))])
        return out

    def column(changed, m):
        return [x - y for r, r0 in zip(residuals(changed, m), at_zero)
                for x, y in zip(r or r0, r0)]

    at_zero = residuals()
    rhs = [-x for r in at_zero for x in r]
    columns = []
    for i in range(j):  # c_ij = 1
        m = base[i]
        columns.append(column(i, FlatAffineMap._make(
            m.signs, m.low, m.num[:j] + (m.num[j] + den,), den)))
    # degree 0: row j of every product has a zero lower part, so only the
    # constant rows are nonzero, and _solve_rational drops the rest
    sol = _solve_rational(list(zip(*columns)), rhs)
    if sol is not None:
        return sol[0], [], sol[1]
    for i in range(j):  # a_ijl = 1
        m = base[i]
        rows = list(m.low or ((0,) * r for r in range(j + 1)))
        for l in range(j):
            rows[j] = (0,) * l + (1,) + (0,) * (j - l - 1)
            columns.append(column(i, FlatAffineMap._make(m.signs, tuple(rows), m.num, den)))
    sol = _solve_rational(list(zip(*columns)), rhs)
    if sol is None:
        raise ValueError(
            f"stage {j + 1}: no triangular model of degree at most 1 satisfies the rules"
        )
    values, d = sol
    return values[:j], [values[j * (i + 1):j * (i + 2)] for i in range(j)], d


def _chain(maps):
    """The product of maps, in order; None for no maps."""
    out = None
    for m in maps:
        out = m if out is None else out * m
    return out


def _row(m: FlatAffineMap, j: int) -> tuple:
    """Row j of m's linear part left of the diagonal, then its translation
    numerator on coordinate j."""
    return (m.low[j] if m.low else (0,) * j) + (m.num[j],)


def catalogue_representation(label: str, k: int | None = None) -> list:
    """Exact generator maps for a catalogue group, aligned with the
    generator order of catalogue_pc(label, k): the group's model by
    seifert_model, solved once per (label, k) and cached.  Each call returns
    a fresh list."""
    if k is not None:
        require_integer_k(k)  # before the cache, which would take 2.0 for 2
    return list(_model(label, k))


@lru_cache(maxsize=1024)
def _model(label: str, k: int | None) -> tuple:
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
    out = _chain(_power(m, e) for m, e in zip(rep, v) if e)
    return rep[0] * rep[0].inverse() if out is None else out


def verify_relations_in_rep(p: PcPresentation, rep: list):
    """Check every conjugation rule as an exact composition of maps.

    Returns (ok, witness) where witness names the failing rule and both
    sides' values.
    """
    if len(rep) != p.ngens:
        raise ValueError("need one map per generator")
    _require_one_dimension(rep)
    for (i, j), w in p.positive_rules():
        lhs = rep[i] * rep[j] * rep[i].inverse()
        rhs = rep_evaluate(rep, w)
        if lhs != rhs:
            rule = f"{p.names[i]} {p.names[j]} {p.names[i]}^-1 = {p.nf_str(w)}"
            return False, (rule, lhs, rhs)
    return True, None


class FreenessReport(Record):
    """Bounded certificate: exact fixed-point status of every nonidentity
    normal form up to the stated letter length.  Not a proof of freeness
    beyond the bound."""

    __slots__ = ("max_word_len", "words_checked", "fixed_points")

    def __init__(self, max_word_len: int, words_checked: int, fixed_points: list):
        self.max_word_len = max_word_len
        self.words_checked = words_checked
        self.fixed_points = fixed_points  # (normal form, point)

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


def _l1_ball(maps: list, power, kept: list, settled: list, budget: int,
             prefix=None, head=()):
    """Yield (head, product, count) for the heads (e_0, ..., e_{i-1}) below
    the given head with l1 norm at most budget: every ruled-out head with
    product None and count the normal forms it covers, and every
    nonidentity normal form (i = len(maps)) that is not ruled out, with its
    map and count 1.  The normal forms with a map come in lexicographic
    order.  freeness_sample starts it at the all-zero head of the first
    unsettled level, with prefix None.

    A head is ruled out when its product shifts one of the coordinates
    kept[i] by a nonzero amount; it covers itself and its
    l1_ball_size(n - i, b) nonzero completions, b the budget it leaves.
    On the all-zero spine, a settled level i past the start (m_i shifts
    one of kept[i + 1], so m_i^e_i shifts it e_i times as far) is one
    record with no product taken: the l1_ball_size(n - i, b) -
    l1_ball_size(n - i - 1, b) normal forms whose first nonzero exponent
    is at i.  The spine then goes on at i + 1.  power(i, e) is m_i^e; the
    product is None for an all-zero head."""
    i, n = len(head), len(maps)
    if prefix is not None and _shifts_one_of(prefix, kept[i]):
        yield head, None, 1 + l1_ball_size(n - i, budget)
        return
    if i == n:
        if prefix is not None:
            yield head, prefix, 1
        return
    if prefix is None and settled[i]:
        yield head, None, l1_ball_size(n - i, budget) - l1_ball_size(n - i - 1, budget)
        yield from _l1_ball(maps, power, kept, settled, budget, None, head + (0,))
        return
    for e in range(-budget, budget + 1):
        if not e:
            yield from _l1_ball(maps, power, kept, settled, budget, prefix, head + (0,))
        else:
            step = power(i, e)
            yield from _l1_ball(
                maps, power, kept, settled, budget - abs(e),
                step if prefix is None else prefix * step, head + (e,),
            )


def _shifts_one_of(m, coords) -> bool:
    """Whether m shifts one of coords by a nonzero amount."""
    shifts = m.coordinate_shifts()
    return any(shifts[c] for c in coords)


def _require_one_dimension(rep: list) -> None:
    """Raise ValueError unless the maps of rep share one dimension."""
    if len({m.dim for m in rep}) > 1:
        raise ValueError("a representation must be maps of one dimension")


#: most normal forms one freeness_sample call walks
FREENESS_LIMIT = 10**6


def l1_ball_size(ngens: int, radius: int) -> int:
    """Number of nonzero integer vectors of length ngens with l1 norm at most
    radius: the sum over i of 2^i C(ngens, i) C(radius, i)."""
    return sum(2**i * comb(ngens, i) * comb(radius, i) for i in range(1, ngens + 1))


def freeness_sample(p: PcPresentation, rep: list, max_word_len: int) -> FreenessReport:
    """Exact fixed-point status of every nonidentity normal form
    x_0^e_0 ... x_{n-1}^e_{n-1} with sum |e_i| <= max_word_len.

    The shape of rep is read first, from each generator's shifts
    (`coordinate_shifts`), once.  Level i is settled when m_i shifts a
    coordinate c that each of m_{i+1}, ..., m_{n-1} fixes pointwise: m_i^e
    then shifts c e times as far, and every later factor keeps that shift,
    so no normal form whose first nonzero exponent is at i has a fixed
    point.  Those are the l1_ball_size(n - i, L) - l1_ball_size(n - i - 1,
    L) normal forms of that first exponent, L = max_word_len; at i = n-1
    that is the all-zero row.  Over the settled levels 0, ..., s-1 before
    the first unsettled level s the sum telescopes to forms -
    l1_ball_size(n - s, L), counted in one step.  When every level is
    settled, as in every model of the Seifert construction (the catalogue
    and every accepted tower), that is the whole ball: the report is
    returned at once, with no map rescaled, no product taken and no map
    solved, at O(n) cost for any max_word_len.

    Otherwise the maps are put over one denominator, which scales each
    shift by a positive integer and so keeps the shape, and the ball is
    walked from the head (0, ..., 0) of length s, in lexicographic order
    of (e_0, ..., e_{n-1}), each e_i ascending from its most negative
    value; fixed points are reported in that order.  The walk goes by
    heads (e_0, ..., e_{i-1}) with their prefix product P and the budget b
    left; a generator's powers are tabulated the first time the walk needs
    one of them.  A head is ruled out with its whole subtree when P shifts
    a coordinate c by a nonzero amount and each of m_i, ..., m_{n-1} fixes
    c pointwise: then every completion P Q moves coordinate c of every
    point by that amount, so none has a fixed point.  It counts itself and
    its l1_ball_size(n - i, b) nonzero completions as checked.  The test
    is exact for any representation.  A settled level after s on the
    all-zero spine is counted in one step as above and the spine goes on;
    an unsettled level is walked exponent by exponent, its e_i = 0 subtree
    between the negative and positive exponents, so fixed points stay in
    order.  Every other normal form has its map solved by `fixed_point`.

    The arguments are checked before any shift is read, in this order:
    max_word_len at least 1, one map per generator, a ball of at most
    FREENESS_LIMIT normal forms and maps of one dimension; each failure
    raises ValueError.
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
    _require_one_dimension(rep)
    n = p.ngens
    # kept[i]: the coordinates that each of m_i, ..., m_{n-1} fixes
    # pointwise, kept[n] every coordinate; settled[i]: m_i shifts one of
    # kept[i + 1].  A common denominator scales every shift by a positive
    # integer, so the maps as given have the same shape
    shifts = [m.coordinate_shifts() for m in rep]
    kept = [None] * n + [range(rep[0].dim)]
    for i in reversed(range(n)):
        kept[i] = [c for c in kept[i + 1] if shifts[i][c] == 0]
    settled = [any(shifts[i][c] for c in kept[i + 1]) for i in range(n)]
    # the settled levels before the first unsettled one, start, cover the
    # normal forms whose first nonzero exponent is before it
    start = settled.index(False) if False in settled else n
    if start == n:
        return FreenessReport(max_word_len, forms, [])
    maps = type(rep[0]).over_one_den(rep)
    tables = [None] * n

    def power(i, e):
        if tables[i] is None:
            tables[i] = _power_table(maps[i], max_word_len)
        return tables[i][e]

    checked = forms - l1_ball_size(n - start, max_word_len)
    fixed = []
    for head, m, count in _l1_ball(maps, power, kept, settled, max_word_len,
                                   head=(0,) * start):
        checked += count
        if m is not None:
            pt = m.fixed_point()
            if pt is not None:
                fixed.append((head, pt))
    return FreenessReport(max_word_len, checked, fixed)


def euler_number(k: int) -> int:
    """Fiber exponent of the commutator [a, b] in the model of Delta(k):
    the commutator translates the fiber coordinate alone, by that many
    times the fiber generator's shift; its magnitude is the circle-bundle
    Euler number."""
    a, b, c = catalogue_representation("Delta", k)
    comm = a * b * a.inverse() * b.inverse()
    shifts = comm.coordinate_shifts()
    if comm.low is not None or shifts[:2] != (0, 0) or shifts[2] is None:
        raise ValueError("lattice commutator is not central")
    power = Fraction(shifts[2], comm.den) / Fraction(c.num[2], c.den)
    if power.denominator != 1:
        raise ValueError("commutator is not a power of the fiber generator")
    return power.numerator


# -- quotient action of Gamma(k) -----------------------------------------------


def klein_quotient_check(k: int) -> bool:
    """Quotient-action check for the model of Gamma(k) with twisting k."""
    return _klein_quotient_action(*catalogue_representation("Gamma", k))


def _klein_quotient_action(a: FlatAffineMap, b: FlatAffineMap, n: FlatAffineMap) -> bool:
    """Verify the induced action on the plane of the first two coordinates
    (the quotient by the fiber, which no map feeds into them): the fiber
    projects to the identity, a^2 and b are translations that span a plane
    lattice, and a acts as a half-period shift along the first lattice
    direction that fixes it and inverts the second (the Klein-type
    quotient action)."""

    def plane(m):
        # the linear part (s_0, s_1, shear of y_1 along y_0), the translation
        return (*m.signs[:2], m.low[1][0] if m.low else 0), m.trans[:2]

    identity = (1, 1, 0)
    (la, ta), (lb, tb), (ln, tn), (l2, t1) = plane(a), plane(b), plane(n), plane(a * a)
    if ln != identity or any(tn):
        return False
    if la != (1, -1, 0) or lb != identity or l2 != identity:
        return False
    # the images of a^2 and b must span a genuine plane lattice
    if t1[0] * tb[1] - t1[1] * tb[0] == 0:
        return False
    # a is a half-period shift along t1; its reflection fixes t1 and
    # inverts tb, so t1 lies on the first axis and tb on the second
    return tuple(2 * x for x in ta) == t1 and t1[1] == 0 and tb[0] == 0
