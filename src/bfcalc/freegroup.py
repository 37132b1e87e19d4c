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


class SchemaError(RuntimeError):
    """Raised when a rewrite-rule instance fails its oracle check."""


def _trusted(cls):
    """
    Class decorator over a frozen slotted dataclass: add the builder
    `cls._new(*fields)`, generated from the fields, which sets each slot in
    turn without running __post_init__.  Only for values assembled from
    valid values: public constructors, parsers and from_json check the rest.
    """
    names = tuple(cls.__dataclass_fields__)
    scope = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    scope.update(_cls=cls, _make=object.__new__)
    body = "".join(f"\n    _set_{name}(_obj, {name})" for name in names)
    source = f"def _new({', '.join(names)}):\n    _obj = _make(_cls){body}\n    return _obj"
    exec(compile(source, f"<{cls.__name__}._new>", "exec"), scope)  # named in profiles
    cls._new = staticmethod(scope["_new"])
    return cls


def _is_int_tuple(value) -> bool:
    """A tuple of ints, bools excluded: what public constructors require of a word."""
    return type(value) is tuple and all(type(v) is int for v in value)


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


@_trusted
@dataclasses.dataclass(frozen=True, slots=True)
class FreeWord:
    """A freely reduced word; letter k means generator k, -k its inverse."""

    rank: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if type(self.rank) is not int or self.rank < 0:
            raise WordError("rank must be a nonnegative int")
        if not _is_int_tuple(self.letters):
            raise WordError("letters must be a tuple of ints")
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
    if type(rank) is not int or rank < 0:
        raise WordError("rank must be a nonnegative int")
    seq = tuple(letters)
    if not _is_int_tuple(seq):
        raise WordError("letters must be ints")
    for letter in seq:
        if letter == 0 or abs(letter) > rank:
            raise WordError(f"letter {letter} out of range for rank {rank}")
    return FreeWord._new(rank, reduce_letters(seq))


def _monomial_key(monomial: Monomial) -> tuple[int, Monomial]:
    """Degree first, then lexicographic with X_1 < ... < X_n."""
    return (len(monomial), monomial)


def _sorted_terms(degree: int, coeffs: Mapping[Monomial, int]) -> tuple[tuple[Monomial, int], ...]:
    return tuple(sorted(((m, c) for m, c in coeffs.items() if c != 0 and len(m) <= degree),
                        key=lambda t: _monomial_key(t[0])))


@_trusted
@dataclasses.dataclass(frozen=True, slots=True)
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
        if type(self.rank) is not int or self.rank < 0:
            raise WordError("rank must be a nonnegative int")
        if type(self.degree) is not int or self.degree < 0:
            raise WordError("truncation degree must be a nonnegative int")
        if type(self.terms) is not tuple or not all(
                type(t) is tuple and len(t) == 2 and _is_int_tuple(t[0]) and type(t[1]) is int
                for t in self.terms):
            raise WordError("terms must be a tuple of (tuple of ints, int) pairs")
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


def magnus_truncated(word: FreeWord, degree: int) -> NCPolynomial:
    """
    Image of the word under the substitution, truncated at the given degree.
    One coefficient table per degree is multiplied in place by each letter,
    x_j -> 1 + X_j and x_j^-1 -> sum of (-X_j)^t, from the top degree down,
    so every step reads lower degrees that the letter has not yet touched.
    """
    if type(degree) is not int or degree < 0:
        raise WordError("degree must be a nonnegative int")
    tables: list[dict[Monomial, int]] = [{(): 1}] + [{} for _ in range(degree)]
    for letter in word.letters:
        j, steps = abs(letter), (1 if letter > 0 else degree)
        for d in range(degree, 0, -1):
            table = tables[d]
            for t in range(1, min(steps, d) + 1):
                sign, tail = (-1 if letter < 0 and t % 2 else 1), (j,) * t
                for m, c in tables[d - t].items():
                    key = m + tail
                    value = table.get(key, 0) + sign * c
                    if value:
                        table[key] = value
                    else:
                        del table[key]
    coeffs = {m: c for table in tables for m, c in table.items()}
    return NCPolynomial._new(word.rank, degree, _sorted_terms(degree, coeffs))


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
