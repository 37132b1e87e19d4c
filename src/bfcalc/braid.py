"""
Braid words, braid equality, strand deletion and cabling, and the sign of
pure braids.

Two alphabets are used.  A SigmaWord is a word in the standard crossing
generators: the letter q (resp. -q) crosses the strands in positions q and
q+1 with the strand in position q passing under (resp. over).  An AWord is
a word in the pure generators, each letter a triple (i, j, sign) standing
for the braid

    A[i,j] = s_i^-1 ... s_{j-2}^-1  s_{j-1}^-2  s_{j-2} ... s_i

in which strands i and j link once and every other strand is left alone.
AWords are pure by construction and are the only alphabet the group layer
above ever stores; sigma words are what equality is decided on, and oracle
material.

Equality of braids is decided by comparing Dynnikov coordinates, the images
of one vector of Z^2m under a faithful action of the braid group, after
cheap checks on pure words (cancelled letters, linking numbers); the Artin
action, the independent oracle, lives in the combing module.  Cabling
(cable_letters) reads a memo per split strand t and width n, keyed by the
pair and sized by t + n - 1 (not read past its bound), of letter images,
keyed by the letter and sized by the strands j + n - 1 of its image: a
letter off strand t only shifts, one on it becomes a fixed descending
product, checked against diagram cabling per width before its first use,
in a memo keyed by the width and sized by the one width it holds, so each
width is checked once per process.  The two strand bounds cap the tables at
528 and the images of a table at 992, and so cap their memory (50.7 MiB
when full).  Every memo follows the one rule in freegroup.

The sign of a pure braid is read level by level from its linking numbers,
the degree-1 Magnus coefficients of the combing coordinates; only a level
whose linking numbers all vanish and whose letters do not cancel loads the
combing module and is combed.
The benchmark's per-layer tracer reads comb and artin_image here (__getattr__).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import partial

from .freegroup import (MEMO_LEAVES, NEGATIVE, POSITIVE, ZERO, Memo, SchemaError, _is_int_tuple,
                        _lazy_getattr, _value_class, invert_letters)

ALetter = tuple[int, int, int]
combing = None  # the combing module, bound when kr_sign first combs a level


class BraidError(ValueError):
    """Raised for malformed words or strand-count violations."""


class CombingLimitError(RuntimeError):
    """Raised when a combing coordinate exceeds combing.COMB_LETTER_LIMIT letters."""


@_value_class
class SigmaWord:
    """Word over the crossing generators of the braid group on m strands."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if type(self.strands) is not int or self.strands < 1:
            raise BraidError("strand count must be a positive int")
        if not _is_int_tuple(self.letters):
            raise BraidError("crossing letters must be a tuple of ints")
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.strands - 1:
                raise BraidError(f"crossing index {letter} out of range")

    def inverse(self) -> SigmaWord:
        return SigmaWord(self.strands, invert_letters(self.letters))

    def __mul__(self, other: SigmaWord) -> SigmaWord:
        if self.strands != other.strands:
            raise BraidError("strand count mismatch")
        return SigmaWord(self.strands, self.letters + other.letters)


@_value_class
class AWord:
    """Word over the pure generators A[i,j] of the braid group on m strands."""

    strands: int
    letters: tuple[ALetter, ...]

    def __post_init__(self):
        if type(self.strands) is not int or self.strands < 1:
            raise BraidError("strand count must be a positive int")
        if type(self.letters) is not tuple or not all(
                _is_int_tuple(l) and len(l) == 3 for l in self.letters):
            raise BraidError("pure letters must be a tuple of (i, j, sign) int tuples")
        for i, j, sign in self.letters:
            if not (1 <= i < j <= self.strands):
                raise BraidError(f"pure generator indices ({i},{j}) out of range")
            if sign not in (1, -1):
                raise BraidError(f"invalid sign {sign}")

    @staticmethod
    def identity(strands: int) -> AWord:
        return AWord(strands, ())

    def inverse(self) -> AWord:
        return AWord._new(self.strands,
                          tuple([(i, j, -s) for i, j, s in reversed(self.letters)]))

    def __mul__(self, other: AWord) -> AWord:
        if self.strands != other.strands:
            raise BraidError("strand count mismatch")
        return AWord._new(self.strands, self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)


def a_to_sigma(word: AWord) -> SigmaWord:
    """Letterwise substitution of the defining formula for A[i,j] and its inverse."""
    letters: list[int] = []
    for i, j, sign in word.letters:
        middle = (1 - j) * sign
        letters += range(-i, 1 - j, -1)
        letters += (middle, middle)
        letters += range(j - 2, i - 1, -1)
    return SigmaWord._new(word.strands, tuple(letters))


def permutation(word: SigmaWord) -> tuple[int, ...]:
    """The underlying permutation: entry k is the end position of strand k (1-based)."""
    position = list(range(word.strands + 1))  # position[strand]; index 0 unused
    occupant = list(range(word.strands + 1))  # occupant[position]
    for letter in word.letters:
        q = abs(letter)
        a, b = occupant[q], occupant[q + 1]
        occupant[q], occupant[q + 1] = b, a
        position[a], position[b] = q + 1, q
    return tuple(position[1:])


def is_pure(word: SigmaWord) -> bool:
    return permutation(word) == tuple(range(1, word.strands + 1))


# ---------------------------------------------------------------------------
# Equality: Dynnikov coordinates
# ---------------------------------------------------------------------------

def linking_numbers(word: AWord) -> dict[tuple[int, int], int]:
    """Exponent sums per strand pair; a complete abelian invariant."""
    out: dict[tuple[int, int], int] = {}
    for i, j, sign in word.letters:
        key = (i, j)
        total = out.get(key, 0) + sign
        if total:
            out[key] = total
        elif key in out:
            del out[key]
    return out


def _cancelled(letters: Iterable[ALetter]) -> list[ALetter]:
    """Drop syntactically adjacent inverse pairs of letters (free reduction), in one pass."""
    out: list[ALetter] = []
    for i, j, s in letters:
        if out and out[-1] == (i, j, -s):
            out.pop()
        else:
            out.append((i, j, s))
    return out


def _dynnikov(strands: int, letters: Iterable[int]) -> tuple[int, ...]:
    """
    Image of the start vector (a_k, b_k) = (0, 1), k = 1..m, under the
    Dynnikov action of the word on Z^2m.  The action is faithful, so two
    words are the same braid exactly when their images agree.  The crossing
    q changes only pairs q and q+1; with x+ = max(x, 0), x- = min(x, 0),
    (a, b) = pair q and (c, d) = pair q+1, the letter s_q sends them to

        a + b+ + (d+ - t)+,  d - t+,  c + d- + (b- + t)-,  b + t+,
        where t = a - b- - c + d+,

    and s_q^-1 acts as s_q conjugated by negating a and c.  Each letter
    costs O(1) integer operations, and the bit length of the coordinates
    grows at most linearly with the word length (Dynnikov, On a Yang-Baxter
    map and the Dehornoy ordering, Russian Math. Surveys 57, 2002; Dehornoy,
    Efficient solutions to the braid isotopy problem, Discrete Appl. Math.
    156, 2008).
    """
    a = [0] * strands
    b = [1] * strands
    for x in letters:
        e = 1 if x > 0 else -1
        q = x * e  # pairs q-1 and q, counted from 0
        p = q - 1
        a0, b0, a1, b1 = a[p] * e, b[p], a[q] * e, b[q]
        b0p, b0m = (b0, 0) if b0 > 0 else (0, b0)
        b1p, b1m = (b1, 0) if b1 > 0 else (0, b1)
        t = a0 - b0m - a1 + b1p
        tp = t if t > 0 else 0
        u, w = b1p - t, b0m + t
        a[p] = (a0 + b0p + (u if u > 0 else 0)) * e
        a[q] = (a1 + b1m + (w if w < 0 else 0)) * e
        b[p], b[q] = b1 - tp, b0 + tp
    return tuple(a + b)


def braids_equal(u: SigmaWord | AWord, v: SigmaWord | AWord) -> bool:
    """
    Decide u == v in the braid group.  Pure words are first compared after
    cancelling adjacent inverse letters, letter for letter, then, with their
    common prefix and suffix dropped, by linking numbers; otherwise the
    braids are equal exactly when their crossing words have the same
    Dynnikov coordinates.
    """
    if u.strands != v.strands:
        raise BraidError("strand count mismatch")
    if isinstance(u, AWord) and isinstance(v, AWord):
        x, y = _cancelled(u.letters), _cancelled(v.letters)
        if x == y:
            return True
        p = s = 0  # p a s == p b s exactly when a == b
        shorter = min(len(x), len(y))
        while p < shorter and x[p] == y[p]:
            p += 1
        while s < shorter - p and x[-1 - s] == y[-1 - s]:
            s += 1
        u, v = (AWord._new(u.strands, tuple(x[p:len(x) - s])),
                AWord._new(v.strands, tuple(y[p:len(y) - s])))
        if linking_numbers(u) != linking_numbers(v):
            return False
    su = a_to_sigma(u) if isinstance(u, AWord) else u
    sv = a_to_sigma(v) if isinstance(v, AWord) else v
    return _dynnikov(u.strands, su.letters) == _dynnikov(v.strands, sv.letters)


def is_trivial(word: SigmaWord | AWord) -> bool:
    return not word.letters or braids_equal(word, AWord._new(word.strands, ()))


# ---------------------------------------------------------------------------
# Strand deletion and block embedding
# ---------------------------------------------------------------------------

def delete_strand(word: AWord, d: int) -> AWord:
    """
    The forget-strand homomorphism: letters touching strand d die, all
    other indices above d shift down.
    """
    if type(d) is not int or not 1 <= d <= word.strands:
        raise BraidError(f"strand {d!r} is not an int in 1..{word.strands}")
    if word.strands == 1:
        raise BraidError("cannot delete the only strand")
    letters: list[ALetter] = []
    for i, j, sign in word.letters:
        if d in (i, j):
            continue
        letters.append((i - (i > d), j - (j > d), sign))
    return AWord._new(word.strands - 1, tuple(letters))


def shift_embed(word: AWord, offset: int, total: int) -> AWord:
    """Embed an n-strand word at the block offset..offset+n-1 of a larger braid."""
    if not _is_int_tuple((offset, total)) or not 1 <= offset <= total - word.strands + 1:
        raise BraidError(f"block embedding at {offset!r} in {total!r} strands out of bounds")
    letters = tuple((i + offset - 1, j + offset - 1, s) for i, j, s in word.letters)
    return AWord._new(total, letters)


# ---------------------------------------------------------------------------
# Cabling
# ---------------------------------------------------------------------------

def _cable_block(base: int, wa: int, wb: int, sign: int) -> Sequence[int]:
    """
    Crossing block for two parallel cables of widths wa (left) and wb
    (right) whose leftmost new position is `base`.  Every strand of one
    cable crosses every strand of the other exactly once, all with the given
    sign, and strands within a cable do not cross.
    """
    if sign > 0:
        return [base + x + y for y in range(wb) for x in range(wa - 1, -1, -1)]
    return invert_letters(_cable_block(base, wb, wa, 1))


def split_sigma(word: SigmaWord, t: int, n: int) -> SigmaWord:
    """
    Diagram cabling: replace the strand starting in position t by n parallel
    strands.  The input must be pure so that the strand is unambiguous; the
    result has m+n-1 strands.  This is the reference oracle for split_a.
    """
    if type(t) is not int or not 1 <= t <= word.strands:
        raise BraidError(f"strand {t!r} is not an int in 1..{word.strands}")
    if type(n) is not int or n < 1:
        raise BraidError("cable width must be a positive int")
    if not is_pure(word):
        raise BraidError("only pure braids can be split unambiguously")
    occupant = list(range(word.strands + 1))  # occupant[position], index 0 unused
    widths = {s: (n if s == t else 1) for s in range(1, word.strands + 1)}
    letters: list[int] = []
    for letter in word.letters:
        q = abs(letter)
        a, b = occupant[q], occupant[q + 1]
        base = 1 + sum(widths[occupant[p]] for p in range(1, q))
        letters.extend(_cable_block(base, widths[a], widths[b], 1 if letter > 0 else -1))
        occupant[q], occupant[q + 1] = b, a
    return SigmaWord(word.strands + n - 1, tuple(letters))


def _cable_product(i: int, j: int, t: int, n: int) -> list[ALetter]:
    """
    Splitting strand t = i (resp. j) of A[i,j] into n strands links each
    cable strand once with the other end, the rightmost cable strand first.
    """
    if t == i:
        return [(r, j + n - 1, 1) for r in range(i + n - 1, i - 1, -1)]
    return [(i, r, 1) for r in range(j + n - 1, j - 1, -1)]


def _check_cable_width(n: int) -> tuple[int, int]:
    """Check both cable cases of A[1,2] at width n, on n + 1 strands, against diagram cabling."""
    single = a_to_sigma(AWord(2, ((1, 2, 1),)))
    for t in (1, 2):
        if not braids_equal(AWord(n + 1, tuple(_cable_product(1, 2, t, n))),
                            split_sigma(single, t, n)):
            raise SchemaError(f"cable rule failed validation at width {n}, strand {t}")
    return n, 1


# Cable widths whose rule has passed its check against diagram cabling.
_CABLE_WIDTHS = Memo(_check_cable_width)


def _cable_image(t: int, n: int, letter: ALetter) -> tuple[tuple[ALetter, ...], int]:
    """A letter's image when strand t is split into n strands, and its size j + n - 1."""
    i, j, sign = letter
    if i != t and j != t:
        image = ((i + (n - 1) * (i > t), j + (n - 1) * (j > t), sign),)
    else:
        _CABLE_WIDTHS[n]  # the rule at width n is checked before its first use
        product = _cable_product(i, j, t, n)
        image = tuple(product if sign > 0 else [(a, b, -1) for a, b, _ in reversed(product)])
    return image, j + n - 1


# (t, n) -> the memo of letter images when strand t is split into n strands.
_CABLES = Memo(lambda pair: (Memo(partial(_cable_image, *pair)), pair[0] + pair[1] - 1))


def cable_letters(letters: Iterable[ALetter], t: int, n: int) -> list[ALetter]:
    """Split strand t of a pure word into n strands: shift letters off t, cable those on it."""
    if t + n - 1 > MEMO_LEAVES:  # no table is kept: make each image
        return [b for a in letters for b in _cable_image(t, n, a)[0]]
    table = _CABLES[t, n]
    return [b for a in letters for b in table[a]]


def split_a(word: AWord, t: int, n: int, inner: AWord) -> AWord:
    """
    Split strand t of a pure word into n strands braided internally by
    `inner`: substitute every letter through the cable rules, then append
    the embedded inner braid.  Satisfies, per the diagram oracle,

        split_a(w, t, n, inner)  ==  split_sigma(w, t, n) * embed(inner).
    """
    if type(t) is not int or not 1 <= t <= word.strands:
        raise BraidError(f"strand {t!r} is not an int in 1..{word.strands}")
    if type(n) is not int or inner.strands != n:
        raise BraidError(f"inner braid must have {n} strands, has {inner.strands}")
    total = word.strands + n - 1
    letters = cable_letters(word.letters, t, n)
    letters += shift_embed(inner, t, total).letters
    return AWord._new(total, tuple(letters))


def kr_sign(word: AWord) -> int:
    """
    Sign of a pure braid: the Magnus sign of the first nontrivial combing
    coordinate, reading the deepest level first (strand m-1, then m-2, ...).
    The level of strand i is the word with strands 1..i-1 deleted, and its
    coordinate's exponent sums are the linking numbers of strand i with
    strands i+d, because the conjugation rules of combing act trivially on
    the abelianization.  Those sums are the coordinate's degree-1 Magnus
    coefficients, so one pass over the letters decides every level with
    nonzero linking; only a level with zero linking whose letters do not
    cancel is combed.
    """
    global combing
    m = word.strands
    linking: dict[int, dict[int, int]] = {}  # strand i -> strand j -> linking number
    for i, j, sign in word.letters:
        if (row := linking.get(i)) is None:
            row = linking[i] = {}
        row[j] = row.get(j, 0) + sign
    for i in sorted(linking, reverse=True):
        row = linking[i]
        for j in sorted(row):
            if total := row[j]:
                return POSITIVE if total > 0 else NEGATIVE
        if i < m - 1 and (level := _level_word(word, i)).letters:  # else rank 1 or cancelled
            if combing is None:
                from . import combing
            coord = combing._peel_front(level)
            if not coord.is_trivial():
                return combing.magnus_sign(coord)
    return ZERO


def _level_word(word: AWord, i: int) -> AWord:
    """The level of strand i: strands 1..i-1 deleted, letters cancelled, strand i first."""
    out = _cancelled([l for l in word.letters if l[0] >= i])
    if out and i > 1:
        out = [(a - i + 1, b - i + 1, s) for a, b, s in out]
    return AWord._new(word.strands - i + 1, tuple(out))


__getattr__ = _lazy_getattr(__name__, dict.fromkeys(("comb", "artin_image"), "combing"))

