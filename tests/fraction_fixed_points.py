"""The earlier value form of the affine-map kernel, kept only as a test
oracle.

The engine stores a map's lower-triangular linear part as its diagonal
signs and strictly-lower rows, its translation as integers over one
denominator, and solves every fixed point by one Smith form.  Here a map
is composed by integer matrix products of its Fraction translation,
inverted by Gaussian elimination, and every fixed point comes from
Gaussian elimination over the rationals on the Fraction matrix of the
fixed-point system, as the engine did before.  A map of any
other type (the nil maps of heis_oracle, which are already in value form)
is composed by its own product.
"""

from fractions import Fraction

from nilbott.exact import IntMatrix
from nilbott.geometry import FlatAffineMap


def solve_rational(a, b):
    """One exact solution of a x = b over Q, or None if inconsistent.

    Free variables are set to 0.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    pivots = []
    r = 0
    for j in range(n):
        piv = next((i for i in range(r, m) if aug[i][j] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        f = aug[r][j]
        aug[r] = [x / f for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][j] != 0:
                g = aug[i][j]
                aug[i] = [x - g * y for x, y in zip(aug[i], aug[r])]
        pivots.append(j)
        r += 1
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, j in enumerate(pivots):
        x[j] = aug[i][n]
    return x


def flat_fixed_point(m):
    """Exact solution of (A - I) x = -b, or None."""
    n = m.dim
    lin = m.lin
    a = [
        [Fraction(lin.entries[i][j] - (1 if i == j else 0)) for j in range(n)]
        for i in range(n)
    ]
    return solve_rational(a, [-t for t in m.trans])


def matrix_inverse(lin: IntMatrix) -> IntMatrix:
    """The inverse of a unimodular integer matrix, column by column."""
    n = lin.rows
    rows = [list(r) for r in lin.entries]
    cols = [solve_rational(rows, [int(i == j) for i in range(n)]) for j in range(n)]
    return IntMatrix([[cols[j][i] for j in range(n)] for i in range(n)])


class MatrixMap:
    """A map whose flat products and inverses go through integer matrices
    and whose fixed points come from solve_rational; any other map goes
    through its own product, inverse and fixed point."""

    def __init__(self, m):
        self.m = m

    def __mul__(self, other):
        a, b = self.m, other.m
        if isinstance(a, FlatAffineMap):
            trans = tuple(x + y for x, y in zip(a.lin.apply(b.trans), a.trans))
            return MatrixMap(FlatAffineMap(a.lin * b.lin, trans))
        return MatrixMap(a * b)

    def inverse(self):
        a = self.m
        if isinstance(a, FlatAffineMap):
            inv = matrix_inverse(a.lin)
            return MatrixMap(FlatAffineMap(inv, tuple(-t for t in inv.apply(a.trans))))
        return MatrixMap(a.inverse())

    def fixed_point(self):
        if isinstance(self.m, FlatAffineMap):
            return flat_fixed_point(self.m)
        return self.m.fixed_point()
