"""The earlier freeness walk, kept only as a test oracle.

Every nonzero vector of the (2L+1)^n box is filtered by its l1 norm and
its map is built from scratch, one letter at a time; the engine walks the
l1 ball with power tables and prefix products.  Both use the maps' own
product, inverse and fixed_point, but share no code that enumerates or
evaluates words.
"""

from itertools import product

from nilbott.geometry import FreenessReport


def evaluate(rep, syllables):
    """Product of rep[g]^e over the (g, e) syllables, |e| letters each;
    the identity for no syllables."""
    out = None
    for g, e in syllables:
        step = rep[g] if e > 0 else rep[g].inverse()
        for _ in range(abs(e)):
            out = step if out is None else out * step
    if out is None:
        return rep[0] * rep[0].inverse()
    return out


def freeness_sample(p, rep, max_word_len):
    checked = 0
    fixed = []
    for vec in product(range(-max_word_len, max_word_len + 1), repeat=p.ngens):
        if sum(abs(e) for e in vec) > max_word_len or not any(vec):
            continue
        checked += 1
        m = evaluate(rep, [(g, e) for g, e in enumerate(vec) if e])
        pt = m.fixed_point()
        if pt is not None:
            fixed.append((vec, pt))
    return FreenessReport(max_word_len, checked, fixed)
