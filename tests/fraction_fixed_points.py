"""The earlier value form of the geometry kernel, kept only as a test oracle.

The engine stores a flat map's linear part as a signed permutation and its
translation as integers over one denominator, reads fixed points off the
permutation's cycles, and keeps a nil map as integers over one denominator.
Here a flat map is composed by integer matrix products of its Fraction
translation, a nil map by the HeisPoint / HeisAut group laws on Fraction
and Gaussian rational values, and every fixed point comes from Gaussian
elimination over the rationals on the Fraction matrix of the fixed-point
system, as the engine did before.
"""

from fractions import Fraction

from nilbott.exact import GaussRat
from nilbott.geometry import FlatAffineMap, HeisAffineMap, HeisPoint


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


def heis_fixed_point(m):
    """Exact fixed point (x, z) of a nil map, or None."""
    a, c = m.g.x, m.g.z
    u = m.aut.u
    if not m.aut.conj:
        if u == GaussRat(1):
            if c.is_zero() and a == 0:
                return HeisPoint(0, GaussRat(0))
            return None
        z = c / (GaussRat(1) - u)
        if (c.conj() * (u * z)).im != a:
            return None
        return HeisPoint(0, z)
    # conjugating case: solve z = c + u * conj(z) componentwise
    u1, u2 = u.re, u.im
    rows = [[1 - u1, -u2], [-u2, 1 + u1]]
    sol = solve_rational([[Fraction(x) for x in row] for row in rows], [c.re, c.im])
    if sol is None:
        return None
    z = GaussRat(sol[0], sol[1])
    x = (a - (c.conj() * m.aut.apply(HeisPoint(0, z)).z).im) / 2
    return HeisPoint(x, z)


def heis_product(a, b):
    """a * b: p -> a.g * a.aut(b.g * b.aut(p)), on the value types."""
    return HeisAffineMap(a.g * a.aut.apply(b.g), a.aut * b.aut)


def heis_inverse(a):
    inv = a.aut.inverse()
    return HeisAffineMap(inv.apply(a.g).inverse(), inv)


class MatrixMap:
    """A flat or nil map whose flat products and inverses go through
    integer matrices, whose nil ones go through the value types, and whose
    fixed points come from solve_rational."""

    def __init__(self, m):
        self.m = m

    def __mul__(self, other):
        a, b = self.m, other.m
        if isinstance(a, FlatAffineMap):
            trans = tuple(x + y for x, y in zip(a.lin.apply(b.trans), a.trans))
            return MatrixMap(FlatAffineMap(a.lin * b.lin, trans))
        return MatrixMap(heis_product(a, b))

    def inverse(self):
        a = self.m
        if isinstance(a, FlatAffineMap):
            inv = a.lin.transpose()
            return MatrixMap(FlatAffineMap(inv, tuple(-t for t in inv.apply(a.trans))))
        return MatrixMap(heis_inverse(a))

    def fixed_point(self):
        if isinstance(self.m, FlatAffineMap):
            return flat_fixed_point(self.m)
        return heis_fixed_point(self.m)
