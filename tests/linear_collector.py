"""The earlier collector, kept only as a test oracle.

Conjugation by x_i^t takes |t| single steps here, so its cost grows with
the value of the exponents; the engine's collector takes the bits of t.
Both read the same rule table (the presentation), but share no code that
multiplies.
"""


def _zero_at(v, lvl):
    return v[:lvl] + (0,) + v[lvl + 1:]


def mult(p, a, b, lvl=0):
    m = p.ngens
    if lvl >= m:
        return (0,) * m
    a1, b1 = a[lvl], b[lvl]
    a_tail = _zero_at(a, lvl)
    if b1 and any(a_tail):
        a_tail = conj(p, a_tail, lvl, -b1)
    tail = mult(p, a_tail, _zero_at(b, lvl), lvl + 1)
    return tail[:lvl] + (a1 + b1,) + tail[lvl + 1:]


def conj(p, v, i, t):
    """x_i^t v x_i^-t for v supported on indices > i."""
    sign = 1 if t > 0 else -1
    for _ in range(abs(t)):
        out = (0,) * p.ngens
        for j in range(i + 1, p.ngens):
            if v[j]:
                out = mult(p, out, power(p, p.rule(i, j, sign), v[j], j), i + 1)
        v = out
    return v


def power(p, v, e, lvl=0):
    if e == 0:
        return (0,) * p.ngens
    if e < 0:
        return power(p, invert(p, v, lvl), -e, lvl)
    half = power(p, v, e // 2, lvl)
    out = mult(p, half, half, lvl)
    if e % 2:
        out = mult(p, out, v, lvl)
    return out


def invert(p, v, lvl=0):
    m = p.ngens
    if lvl >= m:
        return (0,) * m
    v1 = v[lvl]
    tail_inv = invert(p, _zero_at(v, lvl), lvl + 1)
    if v1 and any(tail_inv):
        tail_inv = conj(p, tail_inv, lvl, v1)
    return tail_inv[:lvl] + (-v1,) + tail_inv[lvl + 1:]
