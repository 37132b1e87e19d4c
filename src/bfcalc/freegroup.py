"""
Reduced words in finitely generated free groups, truncated polynomials in
noncommuting variables, and the sign of a word under the substitution
x_i -> 1 + X_i.

Words are stored as tuples of nonzero signed integers: the letter k stands
for the k-th generator and -k for its inverse.  A monomial in the
polynomial ring is a tuple of variable indices; monomials are ordered by
degree first and lexicographically within a degree.  The image of a word
under the substitution always has constant term 1, so its sign is read off
the minimal nonconstant monomial.
"""

from __future__ import annotations

import dataclasses
from operator import neg
from typing import Iterable, Mapping, TypeVar

NEGATIVE, ZERO, POSITIVE = -1, 0, 1

Monomial = tuple[int, ...]
Letters = TypeVar("Letters", list[int], tuple[int, ...])


class WordError(ValueError):
    """Raised for letters outside the declared rank."""


class TruncationError(RuntimeError):
    """Raised when sign determination exceeds its truncation-degree cap."""


def _trusted(cls, *values):
    """
    Build a frozen dataclass value, fields in declaration order, without
    running its __post_init__.  Only for values assembled from values that
    are already valid: public constructors, the parsers and from_json check
    everything else.
    """
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)
    return obj


def reduce_onto(out: list[int], *parts: Iterable[int]) -> list[int]:
    """
    Append the parts letter by letter to `out`, cancelling each letter
    against the end of the list, and return `out`.  When `out` starts
    freely reduced, it ends freely reduced.
    """
    for part in parts:
        for letter in part:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
    return out


def reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a sequence of signed letters."""
    return tuple(reduce_onto([], letters))


def invert_letters(letters: Letters) -> Letters:
    """
    The inverse word: letters reversed, each inverted, as a list for a list
    and a tuple for a tuple.
    """
    return type(letters)(map(neg, reversed(letters)))


@dataclasses.dataclass(frozen=True)
class FreeWord:
    """A freely reduced word; letter k means generator k, -k its inverse."""

    rank: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.rank < 0:
            raise WordError("rank must be nonnegative")
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.rank:
                raise WordError(f"letter {letter} out of range for rank {self.rank}")
        if self.letters != reduce_letters(self.letters):
            raise WordError("letters are not freely reduced")

    def __len__(self) -> int:
        return len(self.letters)

    def is_trivial(self) -> bool:
        return not self.letters


def reduce_word(rank: int, letters: Iterable[int]) -> FreeWord:
    """Build the freely reduced word with the given letters."""
    if rank < 0:
        raise WordError("rank must be nonnegative")
    seq = tuple(letters)
    for letter in seq:
        if letter == 0 or abs(letter) > rank:
            raise WordError(f"letter {letter} out of range for rank {rank}")
    return _trusted(FreeWord, rank, reduce_letters(seq))


def _monomial_key(monomial: Monomial) -> tuple[int, Monomial]:
    """Degree first, then lexicographic with X_1 < ... < X_n."""
    return (len(monomial), monomial)


def _sorted_terms(degree: int, coeffs: Mapping[Monomial, int]) -> tuple[tuple[Monomial, int], ...]:
    return tuple(sorted(((m, c) for m, c in coeffs.items() if c != 0 and len(m) <= degree),
                        key=lambda t: _monomial_key(t[0])))


@dataclasses.dataclass(frozen=True)
class NCPolynomial:
    """
    Integer polynomial in noncommuting variables, truncated at a fixed
    degree.  Terms are stored sorted by monomial order with no zero
    coefficients, so equality is structural.
    """

    rank: int
    degree: int
    terms: tuple[tuple[Monomial, int], ...]

    def __post_init__(self):
        if self.degree < 0:
            raise WordError("truncation degree must be nonnegative")
        for monomial, coeff in self.terms:
            if coeff == 0:
                raise WordError("zero coefficient stored")
            if len(monomial) > self.degree:
                raise WordError("monomial above truncation degree")
            if any(v < 1 or v > self.rank for v in monomial):
                raise WordError("variable index out of range")
        keys = [_monomial_key(m) for m, _ in self.terms]
        if keys != sorted(keys):
            raise WordError("terms are not sorted")


def _letter_series(letter: int, rank: int, degree: int) -> dict[Monomial, int]:
    """x_i maps to 1 + X_i; its inverse to the alternating geometric series."""
    idx = abs(letter)
    if letter > 0:
        series = {(): 1}
        if degree >= 1:
            series[(idx,)] = 1
        return series
    return {(idx,) * k: (-1) ** k for k in range(degree + 1)}


def magnus_truncated(word: FreeWord, degree: int) -> NCPolynomial:
    """Image of the word under the substitution, truncated at the given degree."""
    if degree < 0:
        raise WordError("degree must be nonnegative")
    coeffs: dict[Monomial, int] = {(): 1}
    for letter in word.letters:
        series = _letter_series(letter, word.rank, degree)
        result: dict[Monomial, int] = {}
        for ma, ca in coeffs.items():
            room = degree - len(ma)
            for mb, cb in series.items():
                if len(mb) > room:
                    continue
                m = ma + mb
                result[m] = result.get(m, 0) + ca * cb
        coeffs = {m: c for m, c in result.items() if c != 0}
    return _trusted(NCPolynomial, word.rank, degree, _sorted_terms(degree, coeffs))


def magnus_sign(word: FreeWord) -> int:
    """
    Sign of the coefficient of the minimal nonconstant monomial of the
    word's image, zero exactly for the trivial word.  The truncation degree
    is deepened 1, 2, 4, ... until a nonconstant term appears; residual
    nilpotence guarantees one below twice the word length, and the cap turns
    any violation into a loud error.
    """
    if word.is_trivial():
        return ZERO
    cap = 2 * len(word)
    degree = 1
    while True:
        poly = magnus_truncated(word, degree)
        nonconstant = [t for t in poly.terms if t[0] != ()]
        if nonconstant:
            # terms are sorted, so the first nonconstant one is minimal
            return POSITIVE if nonconstant[0][1] > 0 else NEGATIVE
        if degree >= cap:
            raise TruncationError(
                f"no nonconstant term up to degree {degree} for a nontrivial word"
            )
        degree = min(2 * degree, cap)
