import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from bfcalc import combing
from bfcalc.combing import (
    FreeWord,
    _monomial_key,
    magnus_sign,
    magnus_truncated,
    reduce_word,
)
from bfcalc.freegroup import (
    TruncationError,
    WordError,
    invert_letters,
    reduce_letters,
    reduce_onto,
)

letters_strategy = st.lists(
    st.integers(min_value=-3, max_value=3).filter(lambda v: v != 0), max_size=12)


def word_multiply(u, v):
    return FreeWord(u.rank, reduce_letters(u.letters + v.letters))


def word_inverse(u):
    return FreeWord(u.rank, invert_letters(u.letters))


def nc_from_dict(degree, coeffs):
    """The truncated polynomial with these coefficients, zero and over-degree terms dropped."""
    return {m: c for m, c in coeffs.items() if c != 0 and len(m) <= degree}


def nc_one():
    return {(): 1}


def nc_multiply(p, q, degree):
    """Oracle ring product, every monomial above the truncation degree dropped."""
    coeffs = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = ma + mb
            coeffs[m] = coeffs.get(m, 0) + ca * cb
    return nc_from_dict(degree, coeffs)


def random_word(rng, rank=3, max_len=10):
    letters = [rng.choice((1, -1)) * rng.randint(1, rank)
               for _ in range(rng.randint(0, max_len))]
    return reduce_word(rank, letters)


# --- free reduction

def test_reduce_examples():
    assert reduce_word(2, [1, -1]).letters == ()
    assert reduce_word(2, [1, 2, -2, 1]).letters == (1, 1)


def test_reduce_rejects_out_of_range():
    with pytest.raises(WordError):
        reduce_word(2, [3])
    with pytest.raises(WordError):
        reduce_word(2, [0])
    with pytest.raises(WordError):
        reduce_word(-1, [])
    # what FreeWord rejects, before any reduction could hide it
    for rank, letters in ((2.0, (1,)), (2, (True,)), (2, (1.0,)), (2, (0, 0))):
        with pytest.raises(WordError):
            reduce_word(rank, letters)


def test_reduce_onto_cancels_against_the_end_in_place():
    out = [1, 2]
    assert reduce_onto(out, [-2, 3], (-3, -1)) is out
    assert out == []
    assert reduce_onto([1], [2], [-2, -1, 3]) == [3]


def test_invert_letters_keeps_the_sequence_type():
    assert invert_letters((1, -2, 3)) == (-3, 2, -1)
    assert invert_letters([1, -2]) == [2, -1]
    assert invert_letters(()) == ()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(letters_strategy)
def test_reduce_inverse_cancels(letters):
    word = reduce_word(3, letters)
    assert word_multiply(word, word_inverse(word)).letters == ()


def test_reduce_inverse_cancels_bulk():
    rng = random.Random(0)
    for _ in range(500):
        word = random_word(rng)
        assert word_multiply(word, word_inverse(word)).letters == ()


# --- polynomial ring

def x(*indices):
    return tuple(indices)


def test_nc_multiply_truncates_to_one():
    p = nc_from_dict(2, {x(): 1, x(1): 1})
    q = nc_from_dict(2, {x(): 1, x(1): -1, x(1, 1): 1})
    assert nc_multiply(p, q, 2) == nc_one()


def test_nc_multiply_identity():
    rng = random.Random(1)
    for _ in range(50):
        coeffs = {tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 3))):
                  rng.randint(-5, 5) for _ in range(4)}
        p = nc_from_dict(3, coeffs)
        assert nc_multiply(p, nc_one(), 3) == p
        assert nc_multiply(nc_one(), p, 3) == p


def test_nc_multiply_two_variables():
    p = nc_from_dict(2, {x(): 1, x(1): 1})
    q = nc_from_dict(2, {x(): 1, x(2): 1})
    expected = nc_from_dict(2, {x(): 1, x(1): 1, x(2): 1, x(1, 2): 1})
    assert nc_multiply(p, q, 2) == expected


# --- monomial order: magnus_sign reads the least nonconstant monomial under this key

def test_monomial_compare_examples():
    assert _monomial_key(x(1)) < _monomial_key(x(2))
    assert _monomial_key(x(2)) < _monomial_key(x(1, 1))
    assert _monomial_key(x(1, 2)) < _monomial_key(x(2, 1))
    assert _monomial_key(x(1, 2)) == _monomial_key(x(1, 2))


def test_monomial_order_is_total_and_transitive():
    monomials = [m for length in range(0, 3)
                 for m in itertools.product((1, 2), repeat=length)]
    for a, b in itertools.permutations(monomials, 2):
        assert (_monomial_key(a) < _monomial_key(b)) != (_monomial_key(b) < _monomial_key(a))
    for a, b, c in itertools.permutations(monomials, 3):
        if _monomial_key(a) <= _monomial_key(b) <= _monomial_key(c):
            assert _monomial_key(a) <= _monomial_key(c)


# --- substitution

def test_magnus_truncated_examples():
    assert magnus_truncated(reduce_word(2, []), 3) == nc_one()
    assert magnus_truncated(reduce_word(2, [1]), 1) == {x(): 1, x(1): 1}
    commutator = reduce_word(2, [1, 2, -1, -2])
    assert magnus_truncated(commutator, 2) == {x(): 1, x(1, 2): 1, x(2, 1): -1}
    for degree in (2.0, True):
        with pytest.raises(WordError):
            magnus_truncated(commutator, degree)


def test_magnus_truncated_inverse_series():
    word = reduce_word(1, [-1])
    poly = magnus_truncated(word, 3)
    assert poly == {x(): 1, x(1): -1, x(1, 1): 1, x(1, 1, 1): -1}


def test_magnus_truncated_multiplicative():
    rng = random.Random(2)
    for _ in range(500):
        u = random_word(rng, rank=2, max_len=6)
        v = random_word(rng, rank=2, max_len=6)
        degree = rng.randint(1, 3)
        lhs = magnus_truncated(word_multiply(u, v), degree)
        rhs = nc_multiply(magnus_truncated(u, degree), magnus_truncated(v, degree), degree)
        assert lhs == rhs


def magnus_by_series(word, degree):
    """
    Oracle: the product of the letters' truncated series, each step a fresh
    dict of every term times every series term.
    """
    coeffs = {(): 1}
    for letter in word.letters:
        idx = abs(letter)
        if letter > 0:
            series = {(): 1, (idx,): 1}
        else:
            series = {(idx,) * k: (-1) ** k for k in range(degree + 1)}
        result = {}
        for ma, ca in coeffs.items():
            for mb, cb in series.items():
                if len(ma) + len(mb) <= degree:
                    result[ma + mb] = result.get(ma + mb, 0) + ca * cb
        coeffs = {m: c for m, c in result.items() if c != 0}
    return coeffs


def test_magnus_truncated_matches_series_product():
    rng = random.Random(15)
    for _ in range(3000):
        word = random_word(rng, rank=rng.randint(1, 5), max_len=14)
        degree = rng.randint(0, 4)
        assert magnus_truncated(word, degree) == magnus_by_series(word, degree)


# --- sign

def test_magnus_sign_examples():
    assert magnus_sign(reduce_word(2, [])) == 0
    assert magnus_sign(reduce_word(2, [1])) == 1
    assert magnus_sign(reduce_word(2, [-1])) == -1
    assert magnus_sign(reduce_word(2, [1, 2, -1, -2])) == 1


def test_magnus_sign_is_the_sign_of_the_least_series_term():
    # The sign of the least nonconstant monomial of the series-product oracle,
    # read at the first degree where one appears (residual nilpotence bounds it).
    rng = random.Random(16)
    for _ in range(300):
        word = random_word(rng, rank=rng.randint(2, 3), max_len=10)
        expected = 0
        for degree in range(1, 2 * len(word) + 1):
            series = magnus_by_series(word, degree)
            terms = [m for m in series if m]
            if terms:
                expected = 1 if series[min(terms, key=lambda m: (len(m), m))] > 0 else -1
                break
        assert magnus_sign(word) == expected


def test_magnus_sign_zero_iff_trivial_short_words():
    for length in range(0, 7):
        for letters in itertools.product((1, -1, 2, -2), repeat=length):
            word = reduce_word(2, letters)
            assert (magnus_sign(word) == 0) == word.is_trivial()


def test_magnus_sign_zero_iff_trivial_random_long_words():
    rng = random.Random(3)
    for _ in range(1000):
        word = random_word(rng, rank=2, max_len=16)
        assert (magnus_sign(word) == 0) == word.is_trivial()


def test_magnus_sign_antisymmetric():
    rng = random.Random(4)
    for _ in range(1000):
        word = random_word(rng)
        assert magnus_sign(word_inverse(word)) == -magnus_sign(word)


def test_magnus_sign_semigroup():
    rng = random.Random(5)
    done = 0
    while done < 1000:
        u = random_word(rng)
        v = random_word(rng)
        if magnus_sign(u) != 1 or magnus_sign(v) != 1:
            continue
        done += 1
        assert magnus_sign(word_multiply(u, v)) == 1


def test_magnus_sign_conjugation_invariant():
    rng = random.Random(6)
    for _ in range(1000):
        word = random_word(rng)
        g = random_word(rng)
        conjugate = word_multiply(word_multiply(g, word), word_inverse(g))
        assert magnus_sign(conjugate) == magnus_sign(word)


def test_freeword_validation():
    with pytest.raises(WordError):
        FreeWord(2, (1, -1))  # not reduced
    with pytest.raises(WordError):
        FreeWord(2, (5,))


@pytest.mark.parametrize("call, message", [
    (lambda: FreeWord(-1, ()), "rank must be a nonnegative int"),
    (lambda: magnus_truncated(reduce_word(1, (1,)), -1), "degree must be a nonnegative int"),
])
def test_word_and_polynomial_checks_raise_word_error(call, message):
    with pytest.raises(WordError) as caught:
        call()
    assert type(caught.value) is WordError and str(caught.value) == message


def test_magnus_sign_without_a_nonconstant_term_raises_truncation_error(monkeypatch):
    # Exponent sums that vanish, so the sign is read off the table.
    monkeypatch.setattr(combing, "magnus_truncated", lambda word, degree: {(): 1})
    with pytest.raises(TruncationError) as caught:
        magnus_sign(reduce_word(2, (1, 2, -1, -2)))
    assert str(caught.value) == "no nonconstant term up to degree 8 for a nontrivial word"


def test_magnus_sign_reads_nonzero_exponent_sums_at_the_first_degree(monkeypatch):
    # Truncating at degree 2 is exact at degree 1, so nonzero exponent sums decide there.
    degrees, truncated = [], combing.magnus_truncated
    monkeypatch.setattr(combing, "magnus_truncated",
                        lambda word, degree: degrees.append(degree) or truncated(word, degree))
    assert magnus_sign(reduce_word(3, (1, 2, -1, 3, 3, -2, -2))) == -1  # sums 0, -1, 2
    assert magnus_sign(reduce_word(3, (3, 1, -3))) == 1
    assert degrees == [2, 2]


@pytest.mark.parametrize("coeffs, sign", [
    ({(): 1, (2,): 5, (1,): -1}, -1),           # lexicographic within a degree
    ({(): 1, (1, 1): -1, (2,): 3}, 1),          # degree before letters
    ({(): 1, (2, 1): -2, (1, 2): 4, (1, 1, 1): -7}, 1),
])
def test_magnus_sign_reads_the_least_monomial_in_any_dict_order(monkeypatch, coeffs, sign):
    monkeypatch.setattr(combing, "magnus_truncated", lambda word, degree: coeffs)
    assert magnus_sign(reduce_word(2, (1, 2, -1, -2))) == sign  # exponent sums vanish
