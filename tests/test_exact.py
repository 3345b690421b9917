import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from sympy import Matrix

from nilbott.exact import (
    GaussRat,
    IntMatrix,
    rank,
    smith_normal_form,
    solve_fixed_lattice,
)


def snf_checked(m):
    d, u, v = smith_normal_form(m)
    assert u * m * v == IntMatrix.diagonal(d, rows=m.rows, cols=m.cols)
    assert abs(Matrix(u.entries).det()) == 1
    assert abs(Matrix(v.entries).det()) == 1
    for i in range(len(d) - 1):
        if d[i] == 0:
            assert d[i + 1] == 0
        else:
            assert d[i + 1] % d[i] == 0
    assert all(x >= 0 for x in d)
    return d


def test_snf_column_two():
    # coker of the transpose map on Z is the order-2 group
    assert snf_checked(IntMatrix([[2], [0]])) == [2]


def test_snf_identity():
    assert snf_checked(IntMatrix.identity(3)) == [1, 1, 1]


def test_snf_2468():
    # gcd of entries 2, |det| = 8, so the second factor is 4
    assert snf_checked(IntMatrix([[2, 4], [6, 8]])) == [2, 4]


def determinantal_divisors(m):
    """Independent oracle: d_1 ... d_i = gcd of all i x i minors."""
    out = []
    r = min(m.rows, m.cols)
    for size in range(1, r + 1):
        g = 0
        for rows in combinations(range(m.rows), size):
            for cols in combinations(range(m.cols), size):
                sub = Matrix([[m.entries[i][j] for j in cols] for i in rows])
                g = gcd(g, int(sub.det()))
        out.append(abs(g))
    return out


def test_snf_random_against_minor_gcds():
    rng = random.Random(20240517)
    for _ in range(500):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = IntMatrix(
            [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        )
        d = snf_checked(m)
        divisors = determinantal_divisors(m)
        prod = 1
        for i, di in enumerate(d):
            prod *= di
            assert prod == divisors[i]


def test_coker_rank_matches_rational_rank():
    rng = random.Random(99)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = IntMatrix(
            [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        )
        d = snf_checked(m)
        assert sum(1 for x in d if x) == rank(m)


def test_snf_and_rank_against_sympy():
    # independent oracle for the Smith diagonal and for rank, which is now
    # read off that diagonal
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(314159)
    for _ in range(300):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        entries = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:
            # force a rank drop: the last row is a combination of the others
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            entries[-1] = [a * x + b * y for x, y in zip(entries[0], entries[-2])]
        m = IntMatrix(entries)
        expected = [abs(int(x)) for x in invariant_factors(Matrix(entries), domain=ZZ)]
        assert snf_checked(m) == expected
        assert rank(m) == Matrix(entries).rank()


def test_fixed_lattice_examples():
    assert solve_fixed_lattice([IntMatrix.diagonal([1, -1, 1])]) == 2
    assert solve_fixed_lattice([IntMatrix.identity(3)]) == 3
    assert solve_fixed_lattice([IntMatrix.diagonal([1, -1, -1])]) == 1


def test_fixed_lattice_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_fixed_lattice([IntMatrix.identity(2), IntMatrix.identity(3)])


def test_gaussrat_basics():
    z = GaussRat(Fraction(1, 2), Fraction(-3, 4))
    assert z.conj().conj() == z
    assert z.norm_sq() == Fraction(1, 4) + Fraction(9, 16)
    assert (z * z.inverse()) == GaussRat(1)
    assert GaussRat(3, 4).norm_sq() == 25
    assert GaussRat(Fraction(3, 5), Fraction(4, 5)).is_unit()


def test_gaussrat_antisymmetry():
    # Im(conj(z) w) = -Im(conj(w) z), the twist behind the nil group law
    rng = random.Random(7)
    for _ in range(100):
        z = GaussRat(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        w = GaussRat(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        assert (z.conj() * w).im == -(w.conj() * z).im
