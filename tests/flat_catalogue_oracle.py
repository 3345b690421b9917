"""Hand-typed exact affine models of the flat catalogue groups, their
parser, and the holonomy as the closure of the linear parts: an oracle
for the engine, which solves its models from the tower
(geometry.seifert_model) and reads holonomy off the tower's signs.
"""

from fractions import Fraction

from heis_oracle import HeisAffineMap

from nilbott.exact import IntMatrix
from nilbott.geometry import FlatAffineMap

# One generator per line, aligned with the polycyclic generator order.
# lin(rows separated by ';') is the orthogonal sign matrix, t(...) the
# rational translation; 'lin I' is the identity.
FLAT_CATALOGUE = """
[S1]
t = lin I t(1)

[T2]
a = lin I t(1, 0)
b = lin I t(0, 1)

[K]
g = lin(1,0; 0,-1) t(1/2, 0)
h = lin I t(0, 1)

[T3]
t1 = lin I t(1, 0, 0)
t2 = lin I t(0, 1, 0)
t3 = lin I t(0, 0, 1)

[G2]
a = lin(1,0,0; 0,-1,0; 0,0,-1) t(1/2, 0, 0)
t2 = lin I t(0, 1, 0)
t3 = lin I t(0, 0, 1)

[B1]
e = lin(1,0,0; 0,-1,0; 0,0,1) t(1/2, 0, 0)
t2 = lin I t(0, 1, 0)
t3 = lin I t(0, 0, 1)

[B2]
# the lattice contains (1/2,1/2,1/2); the holonomy is diagonal in these
# coordinates but not in any lattice basis
e = lin(1,0,0; 0,1,0; 0,0,-1) t(1/2, 0, 0)
u = lin I t(1/2, 1/2, 1/2)
v = lin I t(0, 0, -1)

[B3]
a = lin(-1,0,0; 0,1,0; 0,0,-1) t(0, 1/2, 1)
e = lin(-1,0,0; 0,1,0; 0,0,1) t(0, 0, -1)
t = lin I t(1, 0, 0)

[B4]
a = lin(-1,0,0; 0,1,0; 0,0,-1) t(-1/2, 1/2, 1)
e = lin(-1,0,0; 0,1,0; 0,0,1) t(-1, 0, -1)
t = lin I t(-1, 0, 0)
"""


def _parse_vec(text: str):
    return [Fraction(t.strip()) for t in text.split(",")]


def _parse_map(line: str) -> FlatAffineMap:
    # 'lin(1,0,0; 0,-1,0; 0,0,1) t(1/2,0,0)' or 'lin I t(0,1,0)'
    line = line.strip()
    if not line.startswith("lin"):
        raise ValueError(f"bad map line {line!r}")
    rest = line[3:].strip()
    if rest.startswith("I"):
        lin = None
        rest = rest[1:].strip()
    else:
        if not rest.startswith("("):
            raise ValueError(f"bad linear part in {line!r}")
        close = rest.index(")")
        rows = [[int(x) for x in row.split(",")] for row in rest[1:close].split(";")]
        lin = IntMatrix(rows)
        rest = rest[close + 1:].strip()
    if not (rest.startswith("t(") and rest.endswith(")")):
        raise ValueError(f"bad translation part in {line!r}")
    trans = _parse_vec(rest[2:-1])
    if lin is None:
        lin = IntMatrix.identity(len(trans))
    return FlatAffineMap(lin, trans)


def load_flat_catalogue() -> dict[str, dict[str, FlatAffineMap]]:
    """Per label, one exact affine map per polycyclic generator name."""
    out: dict[str, dict[str, FlatAffineMap]] = {}
    label = None
    for raw in FLAT_CATALOGUE.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            label = line[1:-1]
            out[label] = {}
            continue
        name, _, rhs = line.partition("=")
        if label is None or not rhs:
            raise ValueError(f"bad catalogue line {raw!r}")
        out[label][name.strip()] = _parse_map(rhs)
    return out


def holonomy(rep: list):
    """Closure of the rotation parts of the generator maps: the linear
    parts of the flat maps, the diagonal sign matrices of the triangular
    ones (their linear parts modulo the unipotent shears) and the
    automorphisms of the nil maps.

    Returns (order, elementary-2 flag, elements).  The walk stops only if
    the closure is finite.
    """
    if all(isinstance(m, FlatAffineMap) for m in rep):
        n = rep[0].dim
        gens = [IntMatrix([[s if i == j else 0 for j in range(n)] for i, s in enumerate(m.signs)])
                for m in rep]
        ident = IntMatrix.identity(n)
    elif all(isinstance(m, HeisAffineMap) for m in rep):
        gens = [m.aut for m in rep]
        ident = rep[0].aut * rep[0].aut.inverse()
    else:
        raise ValueError("mixed or unknown representation kind")
    closure = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in closure:
                    closure.add(y)
                    nxt.append(y)
        frontier = nxt
    elementary = all(x * x == ident for x in closure)
    return len(closure), elementary, sorted(closure, key=repr)
