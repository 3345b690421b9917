"""The earlier consistency check, kept only as a test oracle.

It collects both bracketings of every triple of signed generators
x_a^+-1 x_b^+-1 x_c^+-1, (2m)^3 triples in all, and first checks that
each derived inverse rule undoes its positive rule.  The engine decides
the same question with O(m^3) per-level rule checks.
"""

from nilbott.words import gen
from pc_oracle import ConsistencyResult, nf_to_word


def check(p) -> ConsistencyResult:
    defects = getattr(p, "_defects", ())  # only the rule-text constructor sets them
    if defects:
        i, j, msg = defects[0]
        return ConsistencyResult(False, (gen(i), gen(j), gen(i, -1)), msg)
    m = p.ngens
    units = [p._unit(i, e) for i in range(m) for e in (1, -1)]
    for i in range(m):
        for j in range(i + 1, m):
            back = p._conj(p._conj(p._unit(j), i, 1), i, -1)
            if back != p._unit(j):
                return ConsistencyResult(
                    False,
                    (gen(i), gen(j), gen(i, -1)),
                    f"inverse rule mismatch at ({p.names[i]}, {p.names[j]})",
                )
    pairs = {(b, c): p._mult(b, c) for b in units for c in units}
    for a in units:
        for b in units:
            ab = pairs[(a, b)]
            for c in units:
                left = p._mult(ab, c)
                right = p._mult(a, pairs[(b, c)])
                if left != right:
                    return ConsistencyResult(
                        False,
                        tuple(nf_to_word(x) for x in (a, b, c)),
                        f"overlap collects to {p.nf_str(left)} vs "
                        f"{p.nf_str(right)}",
                    )
    return ConsistencyResult(True)
