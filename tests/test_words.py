import random

import pytest

from conftest import parse_presentation

from nilbott.words import Word, _word_sign, parse_word, word_str
from relator_oracle import (
    Presentation,
    TwistMap,
    abelianization,
    fox_augmented,
    klein_presentation,
    torus_presentation,
)

GH = ("g", "h")


def test_free_reduce_examples():
    assert parse_word("g g^-1", GH) == Word()
    assert word_str(parse_word("g h h^-1 g", GH), GH) == "g^2"
    relator = parse_word("g h g^-1 h", GH)
    assert Word(relator.syllables) == relator  # already reduced


def test_reduce_idempotent_and_lengths():
    rng = random.Random(11)
    for _ in range(200):
        sylls = [(rng.randint(0, 1), rng.choice([-2, -1, 1, 2])) for _ in range(8)]
        w = Word(sylls)
        assert Word(w.syllables) == w
        assert len(w) <= sum(abs(e) for _, e in sylls)


def test_word_inverse_and_power():
    w = parse_word("g h^-2", GH)
    assert w * w.inverse() == Word()
    assert w ** 3 == w * w * w
    assert w ** -2 == (w.inverse()) * (w.inverse())
    conj = parse_word("g h g^-1", GH)
    assert conj ** 5 == parse_word("g h^5 g^-1", GH)
    assert conj ** -3 == parse_word("g h^-3 g^-1", GH)
    assert conj ** 0 == Word()


def test_klein_fox_values():
    p = klein_presentation()
    r = p.relators[0]
    values = {}
    for signs in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        values[signs] = tuple(fox_augmented(r, g, signs) for g in range(2))
    assert values[(1, 1)] == (0, 2)
    assert values[(1, -1)] == (2, 0)
    # spec-worked case: d/dh evaluates to phi(g) + phi(ghg^-1) = -1 + 1
    assert values[(-1, 1)] == (0, 0)
    assert values[(-1, -1)] == (2, -2)


def test_fox_single_letter():
    signs = (1, 1)
    assert fox_augmented(parse_word("g", GH), 0, signs) == 1
    assert fox_augmented(parse_word("g", GH), 1, signs) == 0
    with pytest.raises(ValueError):
        fox_augmented(parse_word("g", GH), 5, signs)


def test_fox_product_rule_random_splits():
    rng = random.Random(42)
    for signs in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        for _ in range(100):
            sylls = [(rng.randint(0, 1), rng.choice([-2, -1, 1, 2])) for _ in range(6)]
            cut = rng.randint(0, len(sylls))
            u, v = Word(sylls[:cut]), Word(sylls[cut:])
            for t in range(2):
                assert fox_augmented(u * v, t, signs) == fox_augmented(
                    u, t, signs
                ) + _word_sign(u, signs) * fox_augmented(v, t, signs)


def _fox_by_letters(r, target, signs):
    """The twisted Fox derivative summed one letter at a time."""
    total, prefix = 0, 1
    for g, e in r:
        s = signs[g]
        for _ in range(abs(e)):
            if g == target:
                total += prefix if e > 0 else -prefix * s
            prefix *= s
    return total


def test_fox_syllables_match_letters():
    rng = random.Random(17)
    for signs in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        for _ in range(100):
            w = Word([(rng.randint(0, 1), rng.randint(-9, 9)) for _ in range(6)])
            for t in range(2):
                assert fox_augmented(w, t, signs) == _fox_by_letters(w, t, signs)


def test_abelianization_examples():
    assert abelianization(klein_presentation()) == (1, [2])
    z3 = parse_presentation(
        """gens: a b c
        a b a^-1 b^-1
        a c a^-1 c^-1
        b c b^-1 c^-1"""
    )
    assert abelianization(z3) == (3, [])
    nil3 = parse_presentation(
        """gens: a b c
        a b a^-1 b^-1 c^3
        a c a^-1 c^-1
        b c b^-1 c^-1"""
    )
    assert abelianization(nil3) == (2, [3])


def test_abelianization_tietze_invariance():
    base = parse_presentation(
        """gens: a b c
        a b a^-1 b^-1 c^3
        a c a^-1 c^-1
        b c b^-1 c^-1"""
    )
    expected = abelianization(base)
    rng = random.Random(5)
    rels = list(base.relators)
    for _ in range(20):
        rng.shuffle(rels)
        flipped = [r.inverse() if rng.random() < 0.5 else r for r in rels]
        assert abelianization(Presentation(base.names, flipped)) == expected


def test_twistmap_validation():
    p = klein_presentation()
    for signs in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        TwistMap(p, signs)  # all four are homomorphisms on the Klein group
    odd = Presentation(GH, [parse_word("g h", GH)])
    with pytest.raises(ValueError):
        TwistMap(odd, (-1, 1))
    with pytest.raises(ValueError):
        TwistMap(p, (1,))
    with pytest.raises(ValueError):
        TwistMap(p, (2, 1))


def test_presentation_parsing_roundtrip():
    text = """gens: g h
    g h g^-1 h"""
    p = parse_presentation(text)
    assert p.names == GH
    assert p.relators == klein_presentation().relators
    with pytest.raises(ValueError):
        parse_presentation("g h g^-1 h")
    with pytest.raises(ValueError):
        parse_word("x", GH)


def test_torus_presentation_shape():
    p = torus_presentation()
    assert p.ngens == 2 and len(p.relators) == 1
    row = [0, 0]
    for g, e in p.relators[0]:
        row[g] += e
    assert row == [0, 0]
