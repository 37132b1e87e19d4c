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

Every value class of the library is declared with `_value_class`: its
annotated fields, in order (`cls._fields`), become slots, and one compile per
class generates `__init__` (class-level defaults, then the validating
`__post_init__`), the builder `_new(*fields)`, which skips validation and is
only for values assembled from valid values, and `__eq__`, `__hash__` and
`__repr__` over the field tuple as dataclasses writes them.  Setting or
deleting an attribute raises FrozenInstanceError; pickling and copying go
through `_new`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from operator import neg

NEGATIVE, ZERO, POSITIVE = -1, 0, 1

Monomial = tuple[int, ...]
Letters = list[int] | tuple[int, ...]


class WordError(ValueError):
    """Raised for letters outside the declared rank."""


class TruncationError(RuntimeError):
    """Raised when sign determination exceeds its truncation-degree cap."""


class SchemaError(RuntimeError):
    """Raised when a rewrite-rule instance fails its oracle check."""


class FrozenInstanceError(AttributeError):
    """Raised on setting or deleting an attribute of a value."""


def _value_class(cls):
    """
    Rebuild `cls` as a value class (module docstring).  Names in its own
    __slots__ become extra slots outside the fields, for caches.
    """
    names, extra = tuple(cls.__annotations__), tuple(cls.__dict__.get("__slots__", ()))
    dropped = (*names, *extra, "__dict__", "__weakref__")
    body = {k: v for k, v in cls.__dict__.items() if k not in dropped}
    body.update(__slots__=names + extra, __qualname__=cls.__qualname__, _fields=names)
    new = type(cls)(cls.__name__, cls.__bases__, body)
    scope = {f"_set_{n}": getattr(new, n).__set__ for n in names}
    scope.update({f"_dflt_{n}": cls.__dict__[n] for n in names if n in cls.__dict__},
                 _cls=new, _make=object.__new__, _Frozen=FrozenInstanceError,
                 __name__=cls.__module__)
    sets = "".join(f"\n    _set_{n}(self, {n})" for n in names)
    own, other = (", ".join(f"{obj}.{n}" for n in names) + "," for obj in ("self", "other"))
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    params = ", ".join(n + (f"=_dflt_{n}" if f"_dflt_{n}" in scope else "") for n in names)
    source = (f"def __init__(self, {params}):{sets}\n    self.__post_init__()\n"
              f"def _new({', '.join(names)}):\n    self = _make(_cls){sets}\n    return self\n"
              f"def __eq__(self, other):\n    if other.__class__ is self.__class__:\n"
              f"        return ({own}) == ({other})\n    return NotImplemented\n"
              f"def __hash__(self):\n    return hash(({own}))\n"
              f"def __repr__(self):\n    return self.__class__.__qualname__ + f'({shown})'\n"
              f"def __reduce__(self):\n    return _cls._new, ({own})\n"
              "def __setattr__(self, name, value):\n"
              "    raise _Frozen(f'cannot assign to field {name!r}')\n"
              "def __delattr__(self, name):\n    raise _Frozen(f'cannot delete field {name!r}')\n")
    exec(compile(source, f"<{cls.__name__}>", "exec"), scope, made := {})  # named in profiles
    for name, function in made.items():
        function.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(new, name, staticmethod(function) if name == "_new" else function)
    return new


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


@_value_class
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


@_value_class
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
