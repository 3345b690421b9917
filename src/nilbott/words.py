"""Free-group words and their signs under a twist.

Words are the text form of maps and relators: the catalogue's witness
words are parsed here once per (case, lift) and collected into normal
forms.  Every other computation of the engine is on normal forms; the
twisted Fox rows are read off the rules' normal forms by
polycyclic.relation_rows.

Words are stored freely reduced as tuples of (generator index, exponent).
Generator names are display metadata; all logic is index based.  A twist
is a tuple of signs +1/-1, one per generator.
"""

from __future__ import annotations


class Word:
    """Freely reduced word: ((gen, exp), ...) with exp != 0 and no adjacent
    repeats."""

    __slots__ = ("syllables",)

    def __init__(self, syllables=()):
        self.syllables = _reduce(syllables)

    def __iter__(self):
        return iter(self.syllables)

    def __len__(self):
        # letter count, not syllable count
        return sum(abs(e) for _, e in self.syllables)

    def __eq__(self, other):
        return isinstance(other, Word) and self.syllables == other.syllables

    def __hash__(self):
        return hash(self.syllables)

    def __repr__(self):
        return f"Word({list(self.syllables)})"

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.syllables + other.syllables)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word(self.syllables * n)

    def max_gen(self) -> int:
        return max((g for g, _ in self.syllables), default=-1)


def _reduce(syllables):
    out = []
    for g, e in syllables:
        e = int(e)
        if e == 0:
            continue
        if out and out[-1][0] == g:
            merged = out[-1][1] + e
            out.pop()
            if merged:
                out.append((g, merged))
        else:
            out.append((int(g), e))
    return tuple(out)


def gen(i: int, e: int = 1) -> Word:
    return Word(((i, e),))


def word_str(w, names) -> str:
    """w, a Word or (generator, exponent) pairs, as 'g h^-1 ...'; "1" if
    empty."""
    return " ".join(names[g] if e == 1 else f"{names[g]}^{e}" for g, e in w) or "1"


def parse_word(text: str, names) -> Word:
    """Parse letters-with-exponents notation, e.g. 'g h g^-1 h'."""
    index = {name: i for i, name in enumerate(names)}
    syllables = []
    for token in text.split():
        if "^" in token:
            name, _, exp = token.partition("^")
            try:
                e = int(exp)
            except ValueError:
                raise ValueError(f"bad exponent in token {token!r}")
        else:
            name, e = token, 1
        if name not in index:
            raise ValueError(f"unknown generator {name!r}")
        syllables.append((index[name], e))
    return Word(syllables)


def _word_sign(w, signs) -> int:
    """The sign under signs of w, a Word or (generator, exponent) pairs."""
    s = 1
    for g, e in w:
        if signs[g] == -1 and e % 2:
            s = -s
    return s
