"""Which stage of a tower the engine must reject, decided without the engine.

A stage extends the group G of the stage below, with generators x_0 <
... < x_{n-1} and rules x_i x_j x_i^-1 = w_ij (i < j, w_ij a normal form
in x_j, ..., x_{n-1}), by an infinite cyclic fiber m = x_n: each x_i acts
on m by a sign, x_i m x_i^-1 = m^phi_i, and each rule becomes
x_i x_j x_i^-1 = m^k_ij w_ij.  The stage is valid iff

1. phi is a homomorphism G -> {+1, -1}, i.e. it respects every rule of
   G (otherwise the engine raises ValueError); and
2. the new rules define a group in which the normal forms
   x_0^e_0 ... x_n^e_n are unique (otherwise ExtensionError).

Condition 2 is decided by a different criterion than the engine's
overlap test.  Such a group is the iterated semidirect product
<x_0> x| (<x_1> x| (... x| <x_n>)), so the rules are valid iff for every
i the assignment x_j -> x_i x_j x_i^-1 (j > i) extends to an
automorphism of H_i = <x_{i+1}, ..., x_n>.  It does iff it respects each
rule of H_i and is triangular with leading exponent +-1 (then it is
onto, and an onto endomorphism of a polycyclic group is one to one).
The levels are checked from the top, so the arithmetic of H_i that the
test uses is already known to be sound.
"""

from __future__ import annotations


class Poly:
    """Exponent-vector arithmetic of a group given by conjugation rules.

    fwd[(i, j)] is x_i x_j x_i^-1 and back[(i, j)] is x_i^-1 x_j x_i, as
    exponent vectors of length n; `level` l means the subgroup
    <x_l, ..., x_{n-1}>, whose elements are zero below index l.
    """

    def __init__(self, n: int, fwd: dict):
        self.n = n
        self.fwd = fwd
        self.back: dict = {}

    def unit(self, j: int, e: int = 1) -> tuple:
        return tuple(e if t == j else 0 for t in range(self.n))

    def mul(self, a, b, level):
        if level == self.n:
            return a
        a_rest = a[:level] + (0,) + a[level + 1:]
        if b[level]:
            a_rest = self.act(level, -b[level], a_rest)
        rest = self.mul(a_rest, b[:level] + (0,) + b[level + 1:], level + 1)
        return rest[:level] + (a[level] + b[level],) + rest[level + 1:]

    def inv(self, a, level):
        if level == self.n:
            return a
        rest = self.inv(a[:level] + (0,) + a[level + 1:], level + 1)
        if a[level]:
            rest = self.act(level, a[level], rest)
        return rest[:level] + (-a[level],) + rest[level + 1:]

    def power(self, a, e, level):
        if e < 0:
            a, e = self.inv(a, level), -e
        out, sq = (0,) * self.n, a
        while e:
            if e & 1:
                out = self.mul(out, sq, level)
            sq, e = self.mul(sq, sq, level), e >> 1
        return out

    def image(self, images, a, level):
        """The product of images[j] ** a[j] over j >= level."""
        out = (0,) * self.n
        for j in range(level, self.n):
            if a[j]:
                out = self.mul(out, self.power(images[j], a[j], level), level)
        return out

    def act(self, i, t, a):
        """x_i^t a x_i^-t for a in level i + 1."""
        rules = self.fwd if t > 0 else self.back
        images = {j: rules[(i, j)] for j in range(i + 1, self.n)}
        for _ in range(abs(t)):
            a = self.image(images, a, i + 1)
        return a

    def valid(self) -> bool:
        n = self.n
        for i in range(n - 2, -1, -1):
            images = {j: self.fwd[(i, j)] for j in range(i + 1, n)}
            for j, w in images.items():
                if any(w[:j]) or w[j] not in (1, -1):
                    return False
            for j in range(i + 1, n):
                inv_j = self.inv(images[j], i + 1)
                for k in range(j + 1, n):
                    lhs = self.mul(self.mul(images[j], images[k], i + 1), inv_j, i + 1)
                    if lhs != self.image(images, self.fwd[(j, k)], i + 1):
                        return False
            for j in range(i + 1, n):
                self.back[(i, j)] = self._preimage(images, self.unit(j), i + 1)
        return True

    def _preimage(self, images, y, level):
        """z with image(z) = y, peeling one generator at a time."""
        z = [0] * self.n
        for l in range(level, self.n):
            if y[l]:
                e = y[l] * images[l][l]
                z[l] = e
                y = self.mul(self.inv(self.power(images[l], e, level), level), y, level)
        assert not any(y)
        return tuple(z)


def _sign(phi, w) -> int:
    return -1 if sum(e for s, e in zip(phi, w) if s == -1) % 2 else 1


def rejection(stages) -> str:
    """'' if every stage is valid, else 'phi' or 'cocycle' for the first
    stage that is not.  stages are (phi, lifts) pairs from dimension 2
    up, lifts in the order i < j of the rules of the group below."""
    n, fwd = 1, {}
    for phi, lifts in stages:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rules = {p: fwd.get(p, Poly(n, {}).unit(p[1])) for p in pairs}
        if any(_sign(phi, rules[(i, j)]) != phi[j] for i, j in pairs):
            return "phi"
        # m^k w = w m^(k phi(w)), since w^-1 m w = m^phi(w)
        fwd = {p: rules[p] + (k * _sign(phi, rules[p]),) for p, k in zip(pairs, lifts)}
        for i in range(n):
            fwd[(i, n)] = Poly(n + 1, {}).unit(n, phi[i])
        n += 1
        if not Poly(n, fwd).valid():
            return "cocycle"
    return ""
