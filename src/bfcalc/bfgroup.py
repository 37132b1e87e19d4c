"""
Elements of the pure braided Thompson groups over an H-context: expansion,
composition, inverses, equality, reduction to smaller representatives, and
the two-level bi-order sign.

An element is a quadruple (t1, braid, labels, t2): two full n-ary trees
with m leaves, a pure braid on m strands connecting the leaves of t1 to the
leaves of t2, and one label per strand.  Labels are words over the named
generators of the context subgroup H, never raw braid words, so membership
in H holds by construction.  Expanding at leaf i attaches a caret to both
trees, splits strand i into n strands braided internally by the label
there, and copies that label n times; an element equals all of its
expansions.  Composition expands each factor along its whole script to the
join of the middle trees in one pass, and keeps only the outer trees.
"""

from __future__ import annotations

import dataclasses
import json
import random
from typing import Iterable

from . import braid as br
from . import trees as tr
from .braid import AWord, braids_equal, cable_letter, is_trivial
from .freegroup import (NEGATIVE, POSITIVE, ZERO, _is_int_tuple, _trusted, invert_letters,
                        reduce_onto)
from .trees import Tree, TreePair, fn_sign, join, tree_from_nested, tree_to_json

Label = tuple[int, ...]


class ContextError(ValueError):
    """Raised for malformed contexts or context mismatches."""


class ElementError(ValueError):
    """Raised when the quadruple invariants fail."""


class GeneratorSetError(ValueError):
    """Raised for malformed generating sets or member lookup failures."""


class VerificationError(RuntimeError):
    """Raised when a decomposition round trip fails."""


@dataclasses.dataclass(frozen=True)
class HContext:
    """Arity plus the named generators of the label subgroup H <= P_n."""

    arity: int
    generators: tuple[tuple[str, AWord], ...] = ()

    def __post_init__(self):
        if type(self.arity) is not int or self.arity < 2:
            raise ContextError("arity must be an int >= 2")
        if type(self.generators) is not tuple or not all(
                type(g) is tuple and len(g) == 2 for g in self.generators):
            raise ContextError("generators must be a tuple of (name, word) tuples")
        seen: set[str] = set()
        for name, word in self.generators:
            if not isinstance(name, str) or not name or name in seen:
                raise ContextError(f"bad or duplicate generator name {name!r}")
            seen.add(name)
            if not isinstance(word, AWord):
                raise ContextError(f"generator {name!r} is not a pure braid word")
            if word.strands != self.arity:
                raise ContextError(
                    f"generator {name!r} has {word.strands} strands, expected {self.arity}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.generators)

    def generator_index(self, name: str) -> int:
        """1-based index of a named generator."""
        for k, (gname, _) in enumerate(self.generators, start=1):
            if gname == name:
                return k
        raise ContextError(f"unknown H-generator {name!r}")


def trivial_context(arity: int) -> HContext:
    return HContext(arity)


def pn_context(arity: int) -> HContext:
    """The full pure braid group on n strands with its standard generators."""
    gens = tuple(
        (f"a{i}_{j}", AWord(arity, ((i, j, 1),)))
        for i in range(1, arity) for j in range(i + 1, arity + 1)
    )
    return HContext(arity, gens)


def label_to_braid(label: Label, context: HContext) -> AWord:
    """Substitute every H-generator of the label word by its braid."""
    gens = context.generators
    return AWord._new(context.arity, tuple(
        a for letter in label
        for a in (gens[letter - 1][1] if letter > 0 else gens[-letter - 1][1].inverse()).letters))


@_trusted
@dataclasses.dataclass(frozen=True, slots=True)
class BFElement:
    """A representative (t1, braid, labels, t2) over an H-context."""

    context: HContext
    t1: Tree
    braid: AWord
    labels: tuple[Label, ...]
    t2: Tree

    def __post_init__(self):
        if not (isinstance(self.context, HContext) and isinstance(self.braid, AWord)
                and isinstance(self.t1, Tree) and isinstance(self.t2, Tree)):
            raise ElementError("expected an HContext, two Trees and an AWord")
        if type(self.labels) is not tuple or not all(map(_is_int_tuple, self.labels)):
            raise ElementError("labels must be a tuple of tuples of ints")
        n = self.context.arity
        if self.t1.arity != n or self.t2.arity != n:
            raise ElementError("tree arity does not match the context")
        m = self.t1.leaf_count
        if self.t2.leaf_count != m:
            raise ElementError("leaf counts of the two trees differ")
        if self.braid.strands != m:
            raise ElementError(f"braid has {self.braid.strands} strands, expected {m}")
        if len(self.labels) != m:
            raise ElementError(f"expected {m} labels, got {len(self.labels)}")
        k = len(self.context.generators)
        for label in self.labels:
            for letter in label:
                if letter == 0 or abs(letter) > k:
                    raise ElementError(f"label letter {letter} outside the context")

    @property
    def arity(self) -> int:
        return self.context.arity

    @property
    def leaf_count(self) -> int:
        return self.t1.leaf_count


def identity_element(context: HContext, tree: Tree | None = None) -> BFElement:
    tree = tree if tree is not None else Tree.single(context.arity)
    m = tree.leaf_count
    return BFElement(context, tree, AWord.identity(m), ((),) * m, tree)


def from_tree_pair(context: HContext, pair: TreePair) -> BFElement:
    m = pair.leaf_count
    return BFElement(context, pair.domain, AWord.identity(m), ((),) * m, pair.codomain)


def expand(x: BFElement, i: int) -> BFElement:
    """
    The defining expansion at leaf i: attach carets to both trees, split
    strand i into n strands braided by the label there, copy the label n
    times.  The result represents the same group element.
    """
    m = x.leaf_count
    if not 1 <= i <= m:
        raise ElementError(f"leaf index {i} out of range 1..{m}")
    t1, braid, labels = _expanded(x, (i,), x.t1)
    return BFElement._new(x.context, t1, braid, labels, x.t2.attach(i))


def _expanded(x: BFElement, script: tuple[int, ...], outer: Tree):
    """
    The outer tree (x.t1 or x.t2), braid and labels of x expanded at each
    leaf of the script in turn, on lists, with one Tree and one AWord made.
    """
    if not script:
        return outer, x.braid, x.labels
    n, context = x.arity, x.context
    letters, labels = x.braid.letters, list(x.labels)
    for t in script:
        label = labels[t - 1]
        labels[t - 1 : t] = (label,) * n
        cabled = []
        for letter in letters:
            cabled += cable_letter(letter, t, n)
        cabled += [(i + t - 1, j + t - 1, s) for i, j, s in label_to_braid(label, context).letters]
        letters = cabled
    braid = AWord._new(len(labels), tuple(letters))
    return tr.attach_script(outer, script), braid, tuple(labels)


def multiply(x: BFElement, y: BFElement) -> BFElement:
    """Compose two elements by expanding both to the join of the middle trees."""
    if x.context != y.context:
        raise ContextError("elements live over different contexts")
    _, script_x, script_y = join(x.t2, y.t1)
    t1, braid_x, labels_x = _expanded(x, script_x, x.t1)
    t2, braid_y, labels_y = _expanded(y, script_y, y.t2)
    labels = tuple(tuple(reduce_onto(list(a), b)) for a, b in zip(labels_x, labels_y))
    return BFElement._new(x.context, t1, braid_x * braid_y, labels, t2)


def inverse(x: BFElement) -> BFElement:
    return BFElement._new(x.context, x.t2, x.braid.inverse(),
                          tuple(invert_letters(l) for l in x.labels), x.t1)


def is_identity(x: BFElement) -> bool:
    """
    True exactly for representatives of the identity: equal trees, trivial
    braid, trivial labels.  All three properties are preserved both ways
    along expansions (cabling is injective), so they characterize the class.
    """
    if x.t1 != x.t2:
        return False
    for label in x.labels:
        if label and not is_trivial(label_to_braid(label, x.context)):
            return False
    return is_trivial(x.braid)


def equal(x: BFElement, y: BFElement) -> bool:
    if x.context != y.context:
        raise ContextError("elements live over different contexts")
    return is_identity(multiply(x, inverse(y)))


def _labels_oracle_equal(x: BFElement, a: Label, b: Label) -> bool:
    if a == b:
        return True
    word = label_to_braid(a, x.context) * label_to_braid(b, x.context).inverse()
    return is_trivial(word)


def _reduction_at(x: BFElement, i: int) -> BFElement | None:
    """
    Try to undo an expansion at leaf window i: both trees need a caret over
    leaves i..i+n-1, the n labels there must agree in H, and the braid must
    be a cable at those strands: re-expanding the smaller element gives it.
    """
    n = x.arity
    if not (x.t1.caret_window(i) and x.t2.caret_window(i)):
        return None
    window = x.labels[i - 1 : i - 1 + n]
    if any(not _labels_oracle_equal(x, window[0], l) for l in window[1:]):
        return None
    inner = label_to_braid(window[0], x.context)
    candidate = x.braid * br.shift_embed(inner, i, x.leaf_count).inverse()
    for _ in range(n - 1):
        candidate = br.delete_strand(candidate, i + 1)
    labels = x.labels[: i - 1] + (window[0],) + x.labels[i - 1 + n :]
    smaller = BFElement._new(x.context, x.t1.remove_caret(i), candidate, labels,
                             x.t2.remove_caret(i))
    return smaller if braids_equal(x.braid, expand(smaller, i).braid) else None


def reduce(x: BFElement) -> BFElement:
    """Greedily undo expansions until no leaf window admits one."""
    n = x.arity
    changed = True
    while changed:
        changed = False
        for i in range(1, x.leaf_count - n + 2):
            smaller = _reduction_at(x, i)
            if smaller is not None:
                x = smaller
                changed = True
                break
    return x


def pvb_sign(x: BFElement) -> int:
    """
    Sign of an equal-trees element: the braid sign of the first label that
    is nontrivial in H, and the braid sign of the strand braid when every
    label is trivial.
    """
    if x.t1 != x.t2:
        raise ElementError("pvb_sign needs a representative with equal trees")
    for label in x.labels:
        if not label:
            continue
        word = label_to_braid(label, x.context)
        sign = br.kr_sign(word)
        if sign != ZERO:
            return sign
    return br.kr_sign(x.braid)


def bf_sign(x: BFElement) -> int:
    """Quotient-first sign: the slope sign of the tree pair, refined by pvb_sign."""
    if x.t1 != x.t2:
        return fn_sign(TreePair(x.t1, x.t2))
    return pvb_sign(x)


LESS, EQUAL, GREATER = -1, 0, 1


def compare(x: BFElement, y: BFElement) -> int:
    """Total order: x < y when x^-1 y is positive."""
    sign = bf_sign(multiply(inverse(x), y))
    return LESS if sign == POSITIVE else GREATER if sign == NEGATIVE else EQUAL


# ---------------------------------------------------------------------------
# Random elements
# ---------------------------------------------------------------------------

def random_tree(rng: random.Random, arity: int, carets: int) -> Tree:
    tree = Tree.single(arity)
    for _ in range(carets):
        tree = tree.attach(rng.randint(1, tree.leaf_count))
    return tree


def random_element(
    context: HContext,
    seed: int | random.Random,
    *,
    max_leaves: int = 9,
    max_braid_letters: int = 16,
    max_label_letters: int = 4,
) -> BFElement:
    """Seed-deterministic element within the given size ceilings."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = context.arity
    carets = rng.randint(0, max(0, (max_leaves - 1) // (n - 1)))
    t1 = random_tree(rng, n, carets)
    t2 = random_tree(rng, n, carets)
    return _fill_random(context, rng, t1, t2, max_braid_letters, max_label_letters)


def random_pvb_element(
    context: HContext,
    seed: int | random.Random,
    *,
    max_leaves: int = 9,
    max_braid_letters: int = 16,
    max_label_letters: int = 4,
) -> BFElement:
    """Random representative with equal trees."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = context.arity
    carets = rng.randint(0, max(0, (max_leaves - 1) // (n - 1)))
    tree = random_tree(rng, n, carets)
    return _fill_random(context, rng, tree, tree, max_braid_letters, max_label_letters)


def _fill_random(context: HContext, rng: random.Random, t1: Tree, t2: Tree,
                 max_braid_letters: int, max_label_letters: int) -> BFElement:
    m = t1.leaf_count
    letters = []
    if m >= 2:
        for _ in range(rng.randint(0, max_braid_letters)):
            i = rng.randint(1, m - 1)
            j = rng.randint(i + 1, m)
            letters.append((i, j, rng.choice((1, -1))))
    k = len(context.generators)
    labels = []
    for _ in range(m):
        length = rng.randint(0, max_label_letters) if k else 0
        labels.append(tuple(rng.choice((1, -1)) * rng.randint(1, k) for _ in range(length)))
    return BFElement(context, t1, AWord(m, tuple(letters)), tuple(labels), t2)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def to_json(x: BFElement) -> str:
    """Canonical JSON document mirroring the element fields."""
    doc = {
        "arity": x.arity,
        "hgens": [[name, [list(l) for l in word.letters]]
                  for name, word in x.context.generators],
        "braid": [list(l) for l in x.braid.letters],
        "labels": [list(l) for l in x.labels],
    }
    head = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    # "t1" and "t2" sort after every other key; the trees are written
    # iteratively because json.dumps recurses once per tree level.
    return f'{head[:-1]},"t1":{tree_to_json(x.t1)},"t2":{tree_to_json(x.t2)}}}'


def _json_int(value) -> int:
    # json.loads gives bool for true/false and float for 2.9: neither is read as an int.
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def from_json(text: str) -> BFElement:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an integer over the digit limit
        raise ElementError(f"invalid JSON: {exc}") from exc
    try:
        arity = _json_int(doc["arity"])
        gens = tuple(
            (name, AWord(arity, tuple(tuple(map(_json_int, l)) for l in letters)))
            for name, letters in doc["hgens"]
        )
        context = HContext(arity, gens)
        t1 = tree_from_nested(doc["t1"], arity)
        t2 = tree_from_nested(doc["t2"], arity)
        m = t1.leaf_count
        braid = AWord(m, tuple(tuple(map(_json_int, l)) for l in doc["braid"]))
        labels = tuple(tuple(map(_json_int, l)) for l in doc["labels"])
    except (KeyError, TypeError, ValueError, OverflowError, br.BraidError) as exc:
        raise ElementError(f"malformed element document: {exc}") from exc
    return BFElement(context, t1, braid, labels, t2)


# ---------------------------------------------------------------------------
# Word evaluation over generating sets
# ---------------------------------------------------------------------------

# Representatives are reduced whenever their trees outgrow this leaf count;
# reduction keeps long products of generators at desk scale.
REDUCE_LEAF_THRESHOLD = 25


def evaluate_product(factors: Iterable[BFElement], context: HContext) -> BFElement:
    """
    Multiply out a sequence of elements, folding runs of braid-free
    label-free factors at the tree level and reducing oversized
    representatives along the way.
    """
    single = Tree._new(context.arity, ((),))  # built unchecked: valid by construction
    acc = BFElement._new(context, single, AWord._new(1, ()), ((),), single)
    pending: TreePair | None = None

    def flush(acc: BFElement) -> BFElement:
        nonlocal pending
        if pending is not None:
            pair = tr.pair_reduce(pending)
            m = pair.leaf_count
            acc = multiply(acc, BFElement._new(context, pair.domain, AWord._new(m, ()),
                                               ((),) * m, pair.codomain))
            pending = None
        return acc

    for factor in factors:
        plain = not factor.braid.letters and all(not l for l in factor.labels)
        if plain:
            pair = TreePair(factor.t1, factor.t2)
            pending = pair if pending is None else tr.pair_multiply(pending, pair)
            continue
        acc = flush(acc)
        acc = multiply(acc, factor)
        if acc.leaf_count > REDUCE_LEAF_THRESHOLD:
            acc = reduce(acc)
    acc = flush(acc)
    return reduce(acc)
