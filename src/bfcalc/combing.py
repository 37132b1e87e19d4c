"""
The free-group side of the braid layer: reduced free words (letter k is
generator k, -k its inverse); the image of a word under x_i -> 1 + X_i,
truncated at a degree, as a dict from monomial (a tuple of variable
indices) to nonzero coefficient; the Magnus sign of a word, read off the
minimal nonconstant monomial of that image, monomials ordered by degree,
then lexicographically; the Artin action, the independent oracle of braid
equality; and Artin combing of pure braids into a tuple of free-group
coordinates, through a table of conjugation rules whose instances are each
checked by braid equality before their first use and kept in a memo (the
rule is in freegroup), keyed by the instance and sized by the letters of its
conjugator, at most 4, so each is checked once per process.
braid.kr_sign loads this module only to comb the level that decides a
sign, the deepest that is not the trivial braid, when its linking numbers
all vanish.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .braid import (AWord, BraidError, CombingLimitError, SigmaWord, _level_word, a_to_sigma,
                    braids_equal)
from .freegroup import (NEGATIVE, POSITIVE, ZERO, Memo, SchemaError, TruncationError,
                        WordError, _is_int_tuple, _value_class, invert_letters, reduce_letters,
                        reduce_onto)

Monomial = tuple[int, ...]

# Longest free-group coordinate the combing routine will build before it
# gives up; combing word growth is exponential in the worst case and this
# library only promises desk-scale inputs.
COMB_LETTER_LIMIT = 1_000_000


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


def magnus_truncated(word: FreeWord, degree: int) -> dict[Monomial, int]:
    """
    Image of the word under the substitution, truncated at the given degree,
    as monomial -> nonzero coefficient, the constant term (): 1 included.
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
    return {m: c for table in tables for m, c in table.items()}


def magnus_sign(word: FreeWord) -> int:
    """
    Sign of the coefficient of the minimal nonconstant monomial of the
    word's image, zero exactly for the trivial word.  The truncation degree
    is deepened 2, 3, ... until a nonconstant term appears; residual
    nilpotence guarantees one below twice the word length, and the cap turns
    any violation into a loud error.  Truncating at degree d gives every
    coefficient of degree at most d exactly, degree 1 included, and the
    least monomial is read degree first, so the first degree with a
    nonconstant term decides.
    """
    if word.is_trivial():
        return ZERO
    cap = 2 * len(word)
    for degree in range(2, cap + 1):
        coeffs = magnus_truncated(word, degree)
        least = min((m for m in coeffs if m), key=_monomial_key, default=None)
        if least is not None:
            return POSITIVE if coeffs[least] > 0 else NEGATIVE
    raise TruncationError(f"no nonconstant term up to degree {cap} for a nontrivial word")


def _artin_images(strands: int, letters: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """
    Images of the free generators x_1..x_m under the automorphism of the
    word.  The word acts with its leftmost letter outermost, which makes the
    map a homomorphism under concatenation.  A crossing q sends x_q to
    x_q x_{q+1} x_q^-1 and x_{q+1} to x_q; its inverse sends x_q to x_{q+1}
    and x_{q+1} to x_{q+1}^-1 x_q x_{q+1}.
    """
    images: list[list[int]] = [[k] for k in range(1, strands + 1)]
    for letter in letters:
        q = abs(letter) - 1
        a, b = images[q], images[q + 1]
        if letter > 0:
            images[q] = reduce_onto(list(a), b, invert_letters(a))
            images[q + 1] = a
        else:
            images[q] = b
            images[q + 1] = reduce_onto(invert_letters(b), a, b)
    return tuple(tuple(img) for img in images)


def artin_image(word: SigmaWord | AWord) -> tuple[tuple[int, ...], ...]:
    """Reduced images of x_1..x_m; the identity braid gives (x_1,),..,(x_m,)."""
    sigma = a_to_sigma(word) if isinstance(word, AWord) else word
    return _artin_images(sigma.strands, sigma.letters)


# How A[r,s]^e conjugates a kernel letter A[1,j] with r <= j <= s: into
# u A[1,j] u^-1, u spelled over the kernel letters A[1,r], A[1,s], A[1,j]
# named "r", "s", "j".  These are the relations of Artin's presentation of
# the pure braid group (the linked case conjugates by a commutator); for j
# outside [r, s] the two letters commute.
_CONJ_RULES: dict[tuple[str, int], tuple[tuple[str, int], ...]] = {
    ("j=r", 1): (("r", -1), ("s", -1)),
    ("j=r", -1): (("s", 1),),
    ("j=s", 1): (("r", -1),),
    ("j=s", -1): (("s", 1), ("r", 1)),
    ("r<j<s", 1): (("r", -1), ("s", -1), ("r", 1), ("s", 1)),
    ("r<j<s", -1): (("s", 1), ("r", 1), ("s", -1), ("r", -1)),
}

def _kernel_word_to_aword(letters: Iterable[int], strands: int) -> AWord:
    """Kernel free word (generator d = A[1, d+1]) as an AWord."""
    return AWord(strands, tuple((1, abs(x) + 1, 1 if x > 0 else -1) for x in letters))


def _rule_holds(r: int, s: int, e: int, j: int, u: Sequence[int]) -> bool:
    """
    Check A[r,s]^e A[1,j] A[r,s]^-e == u A[1,j] u^-1 by braid equality, which
    never reads the conjugation rules.
    """
    k = max(s, j)
    conjugate = reduce_onto([], u, (j - 1,), invert_letters(u))
    return braids_equal(AWord(k, ((r, s, e), (1, j, 1), (r, s, -e))),
                        _kernel_word_to_aword(conjugate, k))


def _conjugation_case(r: int, s: int, j: int) -> str | None:
    if j < r or j > s:
        return None
    if j == r:
        return "j=r"
    if j == s:
        return "j=s"
    return "r<j<s"


def _conjugator(key: tuple[int, int, int, int]) -> tuple[tuple[int, ...], int]:
    """The checked conjugator u of instance (r, s, e, j) as kernel letters, and its letters."""
    r, s, e, j = key
    case = _conjugation_case(r, s, j)
    values = {"r": r - 1, "s": s - 1, "j": j - 1}
    u = () if case is None else tuple(values[name] * sign for name, sign in _CONJ_RULES[case, e])
    if not _rule_holds(r, s, e, j, u):
        raise SchemaError(f"conjugation rule failed validation at {key}")
    return u, len(u)


# Checked rule instances: (r, s, e, j) -> u as kernel letters.
_CONJUGATORS = Memo(_conjugator)


def _conjugate_kernel_word_reversed(front_rev: list[int], r: int, s: int, e: int) -> list[int]:
    """
    Apply A[r,s]^e (.) A[r,s]^-e letterwise to a kernel free word held in
    reversed letter order (reversal commutes with free reduction).
    """
    out: list[int] = []
    for x in front_rev:
        u = _CONJUGATORS[r, s, e, abs(x) + 1]
        reduce_onto(out, reversed(u + (x,) + invert_letters(u)))
        if len(out) > COMB_LETTER_LIMIT:
            raise CombingLimitError(
                f"combing coordinate exceeded {COMB_LETTER_LIMIT} letters; "
                "input is outside the supported envelope"
            )
    return out


def _peel_front(word: AWord) -> FreeWord:
    """
    The kernel coordinate of one level: the unique reduced word f over the
    kernel basis with  word == f * rest  and rest free of strand-1 letters.
    Letters are swept right to left; every letter not touching strand 1
    conjugates the front built so far through the conjugation rules.
    """
    front_rev: list[int] = []
    for i, j, sign in reversed(word.letters):
        if i == 1:
            reduce_onto(front_rev, ((j - 1) * sign,))
        else:
            front_rev = _conjugate_kernel_word_reversed(front_rev, i, j, sign)
    return FreeWord._new(word.strands - 1, tuple(reversed(front_rev)))


def comb(word: AWord) -> tuple[FreeWord, ...]:
    """
    Artin combing: the coordinates (w_m, ..., w_2) of a pure braid in the
    iterated splitting of strand-forgetting maps.  The coordinate at level k
    is a free word of rank k-1, whose generator d stands for the kernel
    element A[1, d+1] of the k-strand group: the front of the letters
    touching the first strand of the level word.  The level words are the
    iterated strand-1 deletions of the input, because deleting strand 1
    kills exactly the front of the level above.
    """
    return tuple(_peel_front(_level_word(word, i)) for i in range(1, word.strands))


def reconstruct(coordinates: tuple[FreeWord, ...]) -> AWord:
    """Reassemble an AWord from combing coordinates (inverse of comb, up to equality)."""
    if type(coordinates) is not tuple:
        raise BraidError("combing coordinates must be a tuple")
    acc = AWord.identity(1)
    for level, coord in enumerate(reversed(coordinates), start=2):
        if not isinstance(coord, FreeWord) or coord.rank != level - 1:
            raise BraidError(f"coordinate at level {level} is not a rank-{level - 1} free word")
        front = _kernel_word_to_aword(coord.letters, level)
        shifted = AWord(level, tuple((i + 1, j + 1, s) for i, j, s in acc.letters))
        acc = front * shifted
    return acc
