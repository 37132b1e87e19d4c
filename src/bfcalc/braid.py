"""
Braid words, the Artin-action equality oracle, strand deletion and cabling,
combing of pure braids into free-group coordinates, and the resulting sign
on pure braids.

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
cheap checks on pure words (cancelled letters, linking numbers).  The
induced automorphism of the free group on the strand generators (the Artin
action, also faithful) is kept as the independent oracle.  Cabling is one
loop, cable_letters: a letter off the split strand only shifts, and one on
it becomes a fixed descending product, checked against diagram cabling
once per cable width before its first use.  The conjugation rules used by
combing are a table, and each instance is checked by braid equality, which
does not use them, before its first use.

The sign of a pure braid is read level by level from its linking numbers,
which are the degree-1 Magnus coefficients of the combing coordinates;
combing runs only on a level whose linking numbers all vanish.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .freegroup import (NEGATIVE, POSITIVE, ZERO, FreeWord, SchemaError, _is_int_tuple,
                        _value_class, invert_letters, magnus_sign, reduce_onto)

ALetter = tuple[int, int, int]


class BraidError(ValueError):
    """Raised for malformed words or strand-count violations."""


class CombingLimitError(RuntimeError):
    """Raised when a combing coordinate exceeds COMB_LETTER_LIMIT letters."""


# Longest free-group coordinate the combing routine will build before it
# gives up; combing word growth is exponential in the worst case and this
# library only promises desk-scale inputs.
COMB_LETTER_LIMIT = 1_000_000


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
        return AWord._new(self.strands, tuple((i, j, -s) for i, j, s in reversed(self.letters)))

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
# Equality: Dynnikov coordinates, with the Artin action as its oracle
# ---------------------------------------------------------------------------

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


def _cancel_adjacent(word: AWord) -> AWord:
    """Drop syntactically adjacent inverse pairs of letters (free reduction)."""
    out: list[ALetter] = []
    for i, j, s in word.letters:
        if out and out[-1] == (i, j, -s):
            out.pop()
        else:
            out.append((i, j, s))
    return AWord._new(word.strands, tuple(out)) if len(out) != len(word.letters) else word


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
        u = _cancel_adjacent(u)
        v = _cancel_adjacent(v)
        if u.letters == v.letters:
            return True
        x, y = u.letters, v.letters  # p a s == p b s exactly when a == b
        p = s = 0
        shorter = min(len(x), len(y))
        while p < shorter and x[p] == y[p]:
            p += 1
        while s < shorter - p and x[-1 - s] == y[-1 - s]:
            s += 1
        u, v = AWord._new(u.strands, x[p:len(x) - s]), AWord._new(v.strands, y[p:len(y) - s])
        if linking_numbers(u) != linking_numbers(v):
            return False
    su = a_to_sigma(u) if isinstance(u, AWord) else u
    sv = a_to_sigma(v) if isinstance(v, AWord) else v
    return _dynnikov(u.strands, su.letters) == _dynnikov(v.strands, sv.letters)


def is_trivial(word: SigmaWord | AWord) -> bool:
    if not word.letters:
        return True
    return braids_equal(word, AWord._new(word.strands, ()))


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


# Cable widths whose rule has passed its check against diagram cabling.
_CABLE_WIDTHS: set[int] = set()


def _cable_product(i: int, j: int, t: int, n: int) -> list[ALetter]:
    """
    Splitting strand t = i (resp. j) of A[i,j] into n strands links each
    cable strand once with the other end, the rightmost cable strand first.
    """
    if t == i:
        return [(r, j + n - 1, 1) for r in range(i + n - 1, i - 1, -1)]
    return [(i, r, 1) for r in range(j + n - 1, j - 1, -1)]


def _check_cable_width(n: int) -> None:
    """Check both cable cases of A[1,2] at width n against diagram cabling."""
    single = a_to_sigma(AWord(2, ((1, 2, 1),)))
    for t in (1, 2):
        if not braids_equal(AWord(n + 1, tuple(_cable_product(1, 2, t, n))),
                            split_sigma(single, t, n)):
            raise SchemaError(f"cable rule failed validation at width {n}, strand {t}")
    _CABLE_WIDTHS.add(n)


def cable_letters(letters: Iterable[ALetter], t: int, n: int) -> list[ALetter]:
    """Split strand t of a pure word into n strands: shift letters off t, cable those on it."""
    shift, out = n - 1, []
    for i, j, sign in letters:
        if i != t and j != t:
            out.append((i + shift * (i > t), j + shift * (j > t), sign))
            continue
        if n not in _CABLE_WIDTHS:
            _check_cable_width(n)
        product = _cable_product(i, j, t, n)
        out += product if sign > 0 else [(a, b, -1) for a, b, _ in reversed(product)]
    return out


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


# ---------------------------------------------------------------------------
# Combing
# ---------------------------------------------------------------------------

@_value_class
class CombedForm:
    """
    Coordinates (w_m, ..., w_2) of a pure braid in the iterated splitting of
    strand-forgetting maps.  The coordinate at level k is a free word of
    rank k-1; its generator d stands for the kernel element A[1, d+1] of the
    k-strand group.
    """

    strands: int
    coordinates: tuple[FreeWord, ...]

    def __post_init__(self):
        if type(self.strands) is not int or type(self.coordinates) is not tuple:
            raise BraidError("a combed form holds an int strand count and a tuple")
        if len(self.coordinates) != max(self.strands - 1, 0):
            raise BraidError("wrong number of combing coordinates")
        for level, coord in zip(range(self.strands, 1, -1), self.coordinates):
            if not isinstance(coord, FreeWord) or coord.rank != level - 1:
                raise BraidError(f"coordinate at level {level} is not a rank-{level - 1} free word")

    def is_trivial(self) -> bool:
        return all(c.is_trivial() for c in self.coordinates)


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

# Checked rule instances: (r, s, e, j) -> u as kernel letters.
_CONJUGATORS: dict[tuple[int, int, int, int], tuple[int, ...]] = {}


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


def _conjugator_for(r: int, s: int, e: int, j: int) -> tuple[int, ...]:
    """
    The conjugator u of the rule instance at concrete indices, as kernel
    letters; the instance is checked by braid equality before its first use.
    """
    key = (r, s, e, j)
    u = _CONJUGATORS.get(key)
    if u is None:
        case = _conjugation_case(r, s, j)
        values = {"r": r - 1, "s": s - 1, "j": j - 1}
        u = () if case is None else tuple(
            values[name] * sign for name, sign in _CONJ_RULES[case, e])
        if not _rule_holds(r, s, e, j, u):
            raise SchemaError(f"conjugation rule failed validation at {key}")
        _CONJUGATORS[key] = u
    return u


def _conjugate_kernel_word_reversed(front_rev: list[int], r: int, s: int, e: int) -> list[int]:
    """
    Apply A[r,s]^e (.) A[r,s]^-e letterwise to a kernel free word held in
    reversed letter order (reversal commutes with free reduction).
    """
    out: list[int] = []
    for x in front_rev:
        u = _conjugator_for(r, s, e, abs(x) + 1)
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


def _level_word(word: AWord, i: int) -> AWord:
    """
    The level of strand i: the word with strands 1..i-1 deleted, so that
    strand i comes first, and adjacent inverse letters cancelled.  The
    letters of a conjugator often cancel at the levels the conjugated braid
    does not touch, and then combing never sees them.
    """
    return _cancel_adjacent(AWord._new(word.strands - i + 1, tuple(
        (a - i + 1, b - i + 1, s) for a, b, s in word.letters if a >= i)))


def comb(word: AWord) -> CombedForm:
    """
    Artin combing.  The coordinate at level k is the front of the letters
    touching the first strand of the level word; the level words are the
    iterated strand-1 deletions of the input, because deleting strand 1
    kills exactly the front of the level above.
    """
    coords = [_peel_front(_level_word(word, i)) for i in range(1, word.strands)]
    return CombedForm(word.strands, tuple(coords))


def reconstruct(form: CombedForm) -> AWord:
    """Reassemble an AWord from combing coordinates (inverse of comb, up to equality)."""
    acc = AWord.identity(1)
    for level in range(2, form.strands + 1):
        coord = form.coordinates[form.strands - level]
        front = _kernel_word_to_aword(coord.letters, level)
        shifted = AWord(level, tuple((i + 1, j + 1, s) for i, j, s in acc.letters))
        acc = front * shifted
    return acc


def kr_sign(word: AWord) -> int:
    """
    Sign of a pure braid: the Magnus sign of the first nontrivial combing
    coordinate, reading the deepest level first (strand m-1, then m-2, ...).
    The level of strand i is the word with strands 1..i-1 deleted, and its
    coordinate's exponent sums are the linking numbers of strand i with
    strands i+d, because the conjugation rules of combing act trivially on
    the abelianization.  Those sums are the coordinate's degree-1 Magnus
    coefficients, so one pass over the letters decides every level with
    nonzero linking; only a level with letters but zero linking is combed.
    """
    m = word.strands
    linking: dict[int, dict[int, int]] = {}  # strand i -> strand j -> linking number
    for i, j, sign in word.letters:
        row = linking.setdefault(i, {})
        row[j] = row.get(j, 0) + sign
    for i in sorted(linking, reverse=True):
        row = linking[i]
        totals = [row[j] for j in sorted(row) if row[j]]
        if totals:
            return POSITIVE if totals[0] > 0 else NEGATIVE
        if i < m - 1:  # the deepest level has rank 1: zero linking makes it trivial
            coord = _peel_front(_level_word(word, i))
            if not coord.is_trivial():
                return magnus_sign(coord)
    return ZERO

