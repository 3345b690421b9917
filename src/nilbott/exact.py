"""Exact integer and rational linear algebra.

Everything here works over Python ints and fractions.Fraction; nothing is
ever rounded.  The module supplies the scalar types (Gaussian rationals)
and the integer-matrix normal forms (Smith form, fixed-lattice rank) that
the rest of the engine is built on.
"""

from __future__ import annotations

from fractions import Fraction


class GaussRat:
    """Gaussian rational re + im*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __repr__(self):
        return f"GaussRat({self.re}, {self.im})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        return f"{self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}i"

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussRat(other)
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        other = _coerce(other)
        return GaussRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _coerce(other)
        return GaussRat(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def conj(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussRat":
        n = self.norm_sq()
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussRat(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_unit(self) -> bool:
        return self.norm_sq() == 1


def _coerce(x) -> GaussRat:
    if isinstance(x, GaussRat):
        return x
    return GaussRat(x)


class IntMatrix:
    """Immutable rectangular integer matrix, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = [tuple(int(x) for x in row) for row in entries]
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        if len({len(r) for r in rows}) != 1:
            raise ValueError("ragged rows")
        self.entries = tuple(rows)
        self.rows = len(rows)
        self.cols = len(rows[0])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, diag, rows=None, cols=None) -> "IntMatrix":
        diag = list(diag)
        rows = rows if rows is not None else len(diag)
        cols = cols if cols is not None else len(diag)
        return cls(
            [[diag[i] if i == j and i < len(diag) else 0 for j in range(cols)]
             for i in range(rows)]
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]})"

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        return IntMatrix(
            [[sum(self.entries[i][t] * other.entries[t][j] for t in range(self.cols))
              for j in range(other.cols)]
             for i in range(self.rows)]
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-x for x in row] for row in self.entries])

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def apply(self, vec):
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(
            sum(self.entries[i][j] * vec[j] for j in range(self.cols))
            for i in range(self.rows)
        )

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == IntMatrix.identity(self.rows)


def _swap_rows(d, u, i, j):
    d[i], d[j] = d[j], d[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(d, v, i, j):
    for row in d:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _add_row(d, u, dst, src, q):
    # row dst += q * row src
    drow, srow = d[dst], d[src]
    for j in range(len(drow)):
        drow[j] += q * srow[j]
    urow, usrow = u[dst], u[src]
    for j in range(len(urow)):
        urow[j] += q * usrow[j]


def _add_col(d, v, dst, src, q):
    for row in d:
        row[dst] += q * row[src]
    for row in v:
        row[dst] += q * row[src]


def _negate_row(d, u, i):
    d[i] = [-x for x in d[i]]
    u[i] = [-x for x in u[i]]


def _pivot(d, t):
    """Smallest-|x| nonzero entry of d[t:, t:]; ties broken by lowest (i, j)."""
    best = None
    for i in range(t, len(d)):
        for j in range(t, len(d[0])):
            x = d[i][j]
            if x != 0 and (best is None or abs(x) < abs(d[best[0]][best[1]])):
                best = (i, j)
    return best


def _clear_at(d, u, v, t) -> bool:
    """Place a pivot at (t, t) and zero out the rest of row/column t.

    Returns False when the trailing submatrix is already zero.
    """
    piv = _pivot(d, t)
    if piv is None:
        return False
    _swap_rows(d, u, t, piv[0])
    _swap_cols(d, v, t, piv[1])
    while True:
        dirty = False
        for i in range(t + 1, len(d)):
            if d[i][t] != 0:
                _add_row(d, u, i, t, -(d[i][t] // d[t][t]))
                if d[i][t] != 0:
                    # Remainder is smaller than the pivot: promote it.
                    _swap_rows(d, u, t, i)
                    dirty = True
        for j in range(t + 1, len(d[0])):
            if d[t][j] != 0:
                _add_col(d, v, j, t, -(d[t][j] // d[t][t]))
                if d[t][j] != 0:
                    _swap_cols(d, v, t, j)
                    dirty = True
        if not dirty:
            return True


def _divides(a: int, b: int) -> bool:
    return b == 0 if a == 0 else b % a == 0


def smith_normal_form(m: IntMatrix) -> tuple[list[int], IntMatrix, IntMatrix]:
    """Diagonalize m over Z: returns (d, u, v) with u*m*v = diag(d).

    u and v are unimodular; d is nonnegative with d[i] | d[i+1].
    Pivoting picks the smallest-absolute-value nonzero entry, lowest
    index first, so the transforms are reproducible.
    """
    r, c = m.rows, m.cols
    d = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    v = [[1 if i == j else 0 for j in range(c)] for i in range(c)]
    diag_len = min(r, c)

    def diagonalize(start):
        t = start
        while t < diag_len and _clear_at(d, u, v, t):
            t += 1

    diagonalize(0)
    # Enforce the divisibility chain by folding offending entries back in.
    while True:
        bad = None
        for i in range(diag_len - 1):
            for j in range(i + 1, diag_len):
                if not _divides(d[i][i], d[j][j]):
                    bad = (i, j)
                    break
            if bad:
                break
        if bad is None:
            break
        i, j = bad
        if d[j][j] != 0:
            _add_col(d, v, i, j, 1)
        diagonalize(i)

    for i in range(diag_len):
        if d[i][i] < 0:
            _negate_row(d, u, i)

    diag = [d[i][i] for i in range(diag_len)]
    return diag, IntMatrix(u), IntMatrix(v)


def rank(m: IntMatrix) -> int:
    """Rank over Q: the number of nonzero invariant factors."""
    d, _, _ = smith_normal_form(m)
    return sum(1 for x in d if x)


def solve_fixed_lattice(mats: list[IntMatrix]) -> int:
    """Rank of the common fixed sublattice of Z^n under the given matrices.

    Stacks the blocks (A - I) and returns the kernel rank n - rank.
    """
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].rows
    for a in mats:
        if a.rows != a.cols or a.rows != n:
            raise ValueError("dimension mismatch")
    stacked = []
    for a in mats:
        for i in range(n):
            stacked.append([a.entries[i][j] - (1 if i == j else 0) for j in range(n)])
    return n - rank(IntMatrix(stacked))
