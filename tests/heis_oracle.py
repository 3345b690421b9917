"""The hand-written nil geometry, kept only as a test oracle for the
engine's triangular models of Delta(k) and Gamma(k).

The 3-dimensional nil geometry is R x C with the twisted product
(x, z)(y, w) = (x + y - Im(conj(z) w), z + w).  Its lattices Delta(k) and
Gamma(k) are written down here by hand, from the twisting integer, as maps
p -> g * aut(p) on Fraction and Gaussian rational values; the engine
instead solves a lower-triangular affine model of each tower
(geometry.seifert_model).  Products, inverses and fixed points work on the
values alone, with no integer kernel.  A map also answers the walk of
geometry.freeness_sample: it claims no shifted coordinate, so every row is
solved.
"""

from fractions import Fraction

from fraction_fixed_points import solve_rational

from nilbott.polycyclic import require_integer_k


class GaussRat:
    """Gaussian rational re + im*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __repr__(self):
        return f"GaussRat({self.re}, {self.im})"

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
    return x if isinstance(x, GaussRat) else GaussRat(x)


class HeisPoint:
    """Element (x, z) of R x C with (x,z)(y,w) = (x + y - Im(conj(z) w), z + w)."""

    __slots__ = ("x", "z")

    def __init__(self, x, z):
        self.x = Fraction(x)
        self.z = _coerce(z)

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
        u = _coerce(u)
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
    """p -> g * aut(p): the isometry-like maps of the nil geometry."""

    __slots__ = ("g", "aut")

    #: dimension of the nil geometry R x C
    dim = 3

    def __init__(self, g: HeisPoint, aut: HeisAut = None):
        self.g = g
        self.aut = aut if aut is not None else HeisAut()

    def __eq__(self, other):
        return isinstance(other, HeisAffineMap) and self.g == other.g and self.aut == other.aut

    def __hash__(self):
        return hash((self.g, self.aut))

    def __repr__(self):
        return f"HeisAffineMap({self.g!r}, {self.aut!r})"

    def __mul__(self, other: "HeisAffineMap") -> "HeisAffineMap":
        return HeisAffineMap(self.g * self.aut.apply(other.g), self.aut * other.aut)

    def inverse(self) -> "HeisAffineMap":
        inv = self.aut.inverse()
        return HeisAffineMap(inv.apply(self.g).inverse(), inv)

    def apply(self, p: HeisPoint) -> HeisPoint:
        return self.g * self.aut.apply(p)

    def is_identity(self) -> bool:
        return self.g.is_identity() and self.aut.is_identity()

    @classmethod
    def over_one_den(cls, maps) -> list:
        return list(maps)

    def coordinate_shifts(self) -> tuple:
        return (None, None, None)

    def fixed_point(self):
        """Exact fixed point (x, z), or None."""
        a, c = self.g.x, self.g.z
        u = self.aut.u
        if not self.aut.conj:
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
        sol = solve_rational([[1 - u1, -u2], [-u2, 1 + u1]], [c.re, c.im])
        if sol is None:
            return None
        z = GaussRat(sol[0], sol[1])
        x = (a - (c.conj() * self.aut.apply(HeisPoint(0, z)).z).im) / 2
        return HeisPoint(x, z)


def delta_generators(k: int) -> list[HeisAffineMap]:
    """Nil lattice generators (a, b, c) with [a, b] = c^-k, c central."""
    require_integer_k(k)
    return [
        HeisAffineMap(HeisPoint(0, GaussRat(k))),
        HeisAffineMap(HeisPoint(0, GaussRat(0, k))),
        HeisAffineMap(HeisPoint(2 * k, GaussRat(0))),
    ]


def gamma_generators(k: int) -> list[HeisAffineMap]:
    """Generators (a, b, n) of the index-2 nil lattice extension; a is
    z -> k/2 + conj(z), x -> -x."""
    require_integer_k(k)
    if k == 0:
        raise ValueError("the index-2 nil lattice needs k != 0")
    return [
        HeisAffineMap(HeisPoint(0, GaussRat(Fraction(k, 2))), TAU),
        HeisAffineMap(HeisPoint(0, GaussRat(0, k))),
        HeisAffineMap(HeisPoint(k, GaussRat(0))),
    ]


def euler_number(k: int) -> int:
    """Fiber exponent of the lattice commutator [a, b] of delta_generators."""
    if k == 0:
        return 0
    a, b, c = delta_generators(k)
    comm = a * b * a.inverse() * b.inverse()
    assert comm.g.z.is_zero() and comm.aut.is_identity()
    power = comm.g.x / c.g.x
    assert power.denominator == 1
    return int(power)


def check_quotient_action(n: HeisAffineMap, a: HeisAffineMap, b: HeisAffineMap) -> bool:
    """The induced action on the plane C (the quotient by the central
    fiber, read off the z-parts of the maps): the fiber projects to the
    identity, a^2 and b span the translation lattice, and the class of a
    acts by conjugation on the second lattice direction and a half-period
    shift on the first (the Klein-type quotient action)."""
    if not (n.g.z.is_zero() and n.aut.is_identity()):
        return False
    if a.aut != TAU or not b.aut.is_identity():
        return False
    t1 = (a * a).g.z
    t2 = b.g.z
    if t1.re * t2.im - t1.im * t2.re == 0:
        return False
    return a.g.z + a.g.z == t1 and t1.conj() == t1 and t2.conj() == -t2


def klein_quotient_check(k: int) -> bool:
    a, b, n = gamma_generators(k)
    return check_quotient_action(n, a, b)
