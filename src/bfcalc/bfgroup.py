"""
Elements of the pure braided Thompson groups over an H-context: expansion,
composition, inverses, equality, reduction to smaller representatives, and
the two-level bi-order sign.  equal, compare, bf_sign, pvb_sign and
is_identity read the order's layers through one reader, _layers: the trees,
then the labels, and the braid only when both tie; equal and compare read
x^-1 y at join(x.t1, y.t1) without building it or cabling its labels.

An element is a quadruple (t1, braid, labels, t2): two full n-ary trees
with m leaves, a pure braid on m strands connecting the leaves of t1 to the
leaves of t2, and one label per strand.  Labels are words over the named
generators of the context subgroup H, never raw braid words, so membership
in H holds by construction.  Expanding at leaf i attaches a caret to both
trees, splits strand i into n strands braided internally by the label
there, and copies that label n times; an element equals all of its
expansions.  Composition expands each factor along its whole script to the
join of the middle trees in one pass, and keeps only the outer trees; join
gives just the two scripts, since the middle tree is never read; bare
factors, empty labels and shared trees pass through (see multiply).  A
factor's trees are often one object: trees.join and trees.attach_script
hand back stored objects for small trees, so equal products share trees,
and a product of two such factors has one object for both of its trees.
Equality is the case of the order where every layer ties: labels tie
when they are equal in H, braids when braids_equal says so.  Reduction
screens each window by its linking numbers first.

Each context keeps four memos outside its fields (the rule is in
freegroup): _labels, keyed by a label, holds its braid, the braid's
kr_sign and Dynnikov key (a complete invariant: labels are equal in H
exactly when their keys are), sized by the braid's letters; _leaf_letters,
keyed by a label and a leaf, the braid's letters on that leaf, sized alike;
_products, keyed by a label pair, their product (multiply), sized by the
longer label; _inverses, keyed by a label, its inverse (inverse), sized by
its letters.  trivial_context and pn_context keep one context per arity
in the memo _CONTEXTS, so equal contexts share these memos.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from functools import partial

from . import braid as br
from . import trees as tr
from .braid import AWord, braids_equal, is_trivial
from .freegroup import (NEGATIVE, POSITIVE, ZERO, Memo, _is_int_tuple, _value_class,
                        invert_letters, reduce_onto)
from .trees import Tree, fn_sign, join, tree_from_nested, tree_to_json

Label = tuple[int, ...]
NAME = re.compile(r"[^\s,\]]{2,}(?<!\^-1)|[^\s,\]1]")  # an H-generator name (cli docstring)
A_LETTER = re.compile(r"A\[([0-9]+),([0-9]+)\](\^-1)?")  # a braid letter, printed by format_braid


class ContextError(ValueError):
    """Raised for malformed contexts or context mismatches."""


class ElementError(ValueError):
    """Raised when the quadruple invariants fail."""


class GeneratorSetError(ValueError):
    """Raised for malformed generating sets or member lookup failures."""


class VerificationError(RuntimeError):
    """Raised when a decomposition round trip fails."""


@_value_class
class HContext:
    """Arity plus the named generators of the label subgroup H <= P_n."""

    arity: int
    generators: tuple[tuple[str, AWord], ...] = ()
    # Memos outside the fields (module docstring): equality and hash are unchanged.
    __slots__ = ("_labels", "_leaf_letters", "_products", "_inverses")

    def __post_init__(self):
        if type(self.arity) is not int or self.arity < 2:
            raise ContextError("arity must be an int >= 2")
        if type(self.generators) is not tuple or not all(
                type(g) is tuple and len(g) == 2 for g in self.generators):
            raise ContextError("generators must be a tuple of (name, word) tuples")
        seen: set[str] = set()
        for name, word in self.generators:
            if not isinstance(name, str) or not NAME.fullmatch(name) or name in seen:
                raise ContextError(f"bad or duplicate generator name {name!r}")
            seen.add(name)
            if not isinstance(word, AWord):
                raise ContextError(f"generator {name!r} is not a pure braid word")
            if word.strands != self.arity:
                raise ContextError(
                    f"generator {name!r} has {word.strands} strands, expected {self.arity}")

    def _fill_slots(self):
        """Fresh, empty memos for every built context, copies and unpickled ones too."""
        labels = Memo(partial(_label_facts, self.arity, self.generators))
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_leaf_letters", Memo(partial(_on_leaf, labels)))
        object.__setattr__(self, "_products", Memo(_label_product))
        object.__setattr__(self, "_inverses", Memo(_label_inverse))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.generators)

    def generator_index(self, name: str) -> int:
        """1-based index of a named generator."""
        for k, (gname, _) in enumerate(self.generators, start=1):
            if gname == name:
                return k
        raise ContextError(f"unknown H-generator {name!r}")


def _label_facts(arity: int, generators: tuple, label: Label) -> tuple[list, int]:
    """A label -> [its braid, kr_sign, key], the last two filled on first read."""
    if bad := [g for g in label if not 0 < abs(g) <= len(generators)]:
        raise ElementError(f"label letter {bad[0]} outside the context")
    braid = AWord._new(arity, tuple(a for g in label for a in (  # g names a generator
        generators[g - 1][1] if g > 0 else generators[-g - 1][1].inverse()).letters))
    return [braid, None, None], len(braid)


def _on_leaf(labels: Memo, key: tuple[Label, int]) -> tuple[tuple, int]:
    """(label, t) -> the label's braid letters on leaf t."""
    label, t = key
    letters = tuple((i + t - 1, j + t - 1, s) for i, j, s in labels[label][0].letters)
    return letters, len(letters)


def _label_product(pair: tuple[Label, Label]) -> tuple[Label, int]:
    """(a, b) -> a·b, freely reduced onto a as reduce_onto(list(a), b) does."""
    a, b = pair
    return tuple(reduce_onto(list(a), b)), max(len(a), len(b))


def _label_inverse(label: Label) -> tuple[Label, int]:
    return invert_letters(label), len(label)


def _label_sign(context: HContext, label: Label) -> int:
    """kr_sign of the label's braid, kept in its facts."""
    facts = context._labels[label]
    if facts[1] is None:
        facts[1] = br.kr_sign(facts[0])
    return facts[1]


def _label_key(context: HContext, label: Label) -> tuple[int, ...]:
    """The Dynnikov coordinates of the label's braid, kept in its facts."""
    facts = context._labels[label]
    if facts[2] is None:
        facts[2] = br._coordinates(facts[0])
    return facts[2]


def _context(key: tuple[int, bool]) -> tuple[HContext, int]:
    """(n, full) -> trivial H on n strands, or all of P_n with its standard generators."""
    n, full = key
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)] if full else []
    return HContext(n, tuple((f"a{i}_{j}", AWord(n, ((i, j, 1),))) for i, j in pairs)), n


_CONTEXTS = Memo(_context)  # one context per arity, so equal contexts share their memos


def trivial_context(arity: int) -> HContext:
    return _CONTEXTS[arity, False] if type(arity) is int else HContext(arity)


def pn_context(arity: int) -> HContext:
    """The full pure braid group on n strands with its standard generators."""
    return _CONTEXTS[arity, True] if type(arity) is int else HContext(arity)


def label_to_braid(label: Label, context: HContext) -> AWord:
    """Substitute every H-generator of the label word by its braid; refuse what BFElement does."""
    if not _is_int_tuple(label):
        raise ElementError("labels must be a tuple of tuples of ints")
    return context._labels[label][0]


def format_braid(word: AWord) -> str:
    """Letters A[i,j] and A[i,j]^-1 separated by spaces; empty for no letters."""
    return " ".join(f"A[{i},{j}]" + ("^-1" if s < 0 else "") for i, j, s in word.letters)


def format_label(label: Label, context: HContext) -> str:
    """Generator names, name^-1 for an inverse letter; empty for no letters."""
    label_to_braid(label, context)  # refuses a label outside the context
    return " ".join(context.generators[abs(v) - 1][0] + ("^-1" if v < 0 else "")
                    for v in label)


@_value_class
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
    """The identity over `tree`; the default one-leaf identity is built without re-validation."""
    if tree is None and isinstance(context, HContext):
        one = Tree._new(context.arity, (0,))
        return BFElement._new(context, one, AWord._new(1, ()), ((),), one)
    return from_tree_pair(context, tree, tree)


def from_tree_pair(context: HContext, domain: Tree, codomain: Tree) -> BFElement:
    """The braid-free element of the tree pair (domain, codomain)."""
    m = domain.leaf_count if isinstance(domain, Tree) else 1  # BFElement refuses a non-tree
    return BFElement(context, domain, AWord.identity(m), ((),) * m, codomain)


def expand(x: BFElement, i: int) -> BFElement:
    """
    The defining expansion at leaf i: attach carets to both trees, split
    strand i into n strands braided by the label there, copy the label n
    times.  The result represents the same group element.
    """
    m = x.leaf_count
    if type(i) is not int or not 1 <= i <= m:
        raise ElementError(f"leaf index {i!r} out of range 1..{m}")
    letters, labels = _expanded(x, (i,))
    return BFElement._new(x.context, tr.attach_script(x.t1, (i,)),
                          AWord._new(len(labels), letters), labels, x.t2.attach(i))


def _expanded(x: BFElement, script: tuple[int, ...]) -> tuple[tuple, tuple[Label, ...]]:
    """
    The braid letters and labels of x expanded at each leaf of the script in
    turn: each step is one cabling pass and the label's braid on the cable.
    """
    if not script:
        return x.braid.letters, x.labels
    n = x.arity
    if not x.braid.letters and not any(x.labels):  # bare: nothing to cable
        return (), ((),) * (x.leaf_count + (n - 1) * len(script))
    letters, labels, on_leaf = x.braid.letters, list(x.labels), x.context._leaf_letters
    for t in script:
        label = labels[t - 1]
        labels[t - 1 : t] = (label,) * n
        letters = br.cable_letters(letters, t, n)
        if label:
            letters += on_leaf[label, t]
    return tuple(letters), tuple(labels)


def multiply(x: BFElement, y: BFElement) -> BFElement:
    """
    Compose two elements by expanding both to the join of the middle trees.
    A bare factor (no braid letters or labels) expands without cabling, empty
    right labels keep the left ones, and a factor whose two trees are one
    object lends the join as its outer tree when the other is not expanded;
    when both factors' trees are, the product's two trees are one object.
    A factor that is not expanded lends its braid when the other adds no letters.
    """
    if x.context is not y.context and x.context != y.context:
        raise ContextError("elements live over different contexts")
    script_x, script_y = join(x.t2, y.t1)
    letters_x, labels_x = _expanded(x, script_x) if script_x else (x.braid.letters, x.labels)
    letters_y, labels_y = _expanded(y, script_y) if script_y else (y.braid.letters, y.labels)
    labels = labels_x
    if any(labels_y):
        labels = tuple(map(x.context._products.__getitem__, zip(labels_x, labels_y)))
    shared_x, shared_y = x.t1 is x.t2, y.t1 is y.t2
    t1 = (y.t1 if shared_x and not script_y
          else tr.attach_script(x.t1, script_x) if script_x else x.t1)
    t2 = (t1 if shared_x and shared_y else x.t2 if shared_y and not script_x
          else tr.attach_script(y.t2, script_y) if script_y else y.t2)
    braid = (x.braid if not (script_x or letters_y) else y.braid if not (script_y or letters_x)
             else AWord._new(len(labels), letters_x + letters_y))
    return BFElement._new(x.context, t1, braid, labels, t2)


def inverse(x: BFElement) -> BFElement:
    labels = x.labels
    if any(labels):
        labels = tuple(map(x.context._inverses.__getitem__, labels))
    return BFElement._new(x.context, x.t2, x.braid.inverse(), labels, x.t1)


def is_identity(x: BFElement) -> bool:
    """
    True exactly for representatives of the identity: equal trees, trivial
    braid, trivial labels.  All three properties are preserved both ways
    along expansions (cabling is injective), so they characterize the class.
    """
    empty = ((),) * len(x.labels)
    return _layers(x.context, x.t1, x.t2, empty, x.labels) is None and is_trivial(x.braid)


def _labels_oracle_equal(context: HContext, a: Label, b: Label) -> bool:
    """Labels equal in H: their braids have the same Dynnikov key."""
    return a == b or _label_key(context, a) == _label_key(context, b)


def reduce(x: BFElement) -> BFElement:
    """
    Undo expansions leftmost first, in one pass over the leaves (see
    trees.caret_top).  A window both trees share is undone when its n labels
    agree in H and the braid is a cable there: deleting all its strands but
    the first, then splitting that one by the label, gives the braid back.
    The label's braid needs no dividing out: each of its letters touches a
    deleted strand.  Linking numbers screen each window first.
    """
    n, context, s1, s2 = x.arity, x.context, x.t1._starts, x.t2._starts
    braid, labels, stack, links = x.braid, [], [], None
    for f, d1, d2, label in zip(range(x.leaf_count), x.t1.depths, x.t2.depths, x.labels):
        stack.append((f, d1, d2))
        labels.append(label)
        while (parent := tr.caret_top(stack, n, s1, s2)) is not None:
            i = len(stack) - n + 1
            head = labels[i - 1]
            if any(not _labels_oracle_equal(context, head, l) for l in labels[i:]):
                break
            inner = context._labels[head][0]
            links = br.linking_numbers(braid) if links is None else links  # once per braid
            if not _links_like_cable(links, i, n, inner):
                break
            smaller = braid
            for _ in range(n - 1):
                smaller = br.delete_strand(smaller, i + 1)
            if not braids_equal(braid, br.split_a(smaller, i, n, inner)):
                break
            braid, links = smaller, None
            stack[-n:] = [parent]
            labels[-n:] = [head]
    if len(stack) == x.leaf_count:
        return x
    _, t1, t2 = zip(*stack)
    return BFElement._new(context, Tree._new(n, t1), braid, tuple(labels), Tree._new(n, t2))


def _links_like_cable(links: dict, i: int, n: int, inner: AWord) -> bool:
    """
    Whether linking numbers can be a cable's at strands i..i+n-1: every other
    strand links equally with the n, which link among themselves as inner.
    """
    window, inside = range(i, i + n), {}
    for (a, b), v in links.items():
        if a in window and b in window:
            inside[a - i + 1, b - i + 1] = v
        elif a in window or b in window:
            c = b if a in window else a
            if any(links.get((c, w) if c < i else (w, c), 0) != v for w in window):
                return False
    return inside == br.linking_numbers(inner)


def pvb_sign(x: BFElement) -> int:
    """
    Sign of an equal-trees element: the braid sign of the first label that
    is nontrivial in H, and the braid sign of the strand braid when every
    label is trivial.
    """
    if x.t1 is not x.t2 and x.t1 != x.t2:
        raise ElementError("pvb_sign needs a representative with equal trees")
    return bf_sign(x)


def bf_sign(x: BFElement) -> int:
    """Quotient-first sign: _layers on the element's trees and labels, else the braid's kr_sign."""
    sign = _layers(x.context, x.t1, x.t2, ((),) * len(x.labels), x.labels)
    return br.kr_sign(x.braid) if sign is None else sign


LESS, EQUAL, GREATER = -1, 0, 1


def _layers(context: HContext, t_x: Tree, t_y: Tree, labels_x, labels_y) -> int | None:
    """
    The layers of the order above the braid, of an element with trees
    (t_x, t_y) and labels a^-1 b for the aligned labels a, b: the slope sign
    of the trees if they differ; else the sign of the first a^-1 b nontrivial
    in H (b's own sign for an empty a, else screened by the Dynnikov keys);
    else None: only the braid can decide.
    """
    if t_x is not t_y and t_x != t_y:
        return fn_sign(t_x, t_y)
    if labels_x != labels_y:
        for a, b in zip(labels_x, labels_y):
            if not a:
                if b and (sign := _label_sign(context, b)) != ZERO:
                    return sign
            elif not _labels_oracle_equal(context, a, b):
                return _label_sign(context, context._products[context._inverses[a], b])
    return None


def _reading(x: BFElement, y: BFElement, braids) -> int:
    """
    The sign of x^-1 y, read at join(x.t1, y.t1) without building it: the
    slope sign of x.t2 and y.t2 along the join if they differ; else _layers
    on the labels of x and y copied along it (an expansion copies a label:
    no cabling); on a tie, braids(m, u, v) on the cabled letters u of x and
    v of y, u^-1 v being its braid.
    """
    if x.context is not y.context and x.context != y.context:
        raise ContextError("elements live over different contexts")
    script_x, script_y = join(x.t1, y.t1)
    t_x = tr.attach_script(x.t2, script_x) if script_x else x.t2
    t_y = tr.attach_script(y.t2, script_y) if script_y else y.t2
    if t_x is not t_y and t_x != t_y:  # the trees decide before any label is copied
        return fn_sign(t_x, t_y)
    labels_x, labels_y = x.labels, y.labels
    if (script_x or script_y) and (any(labels_x) or any(labels_y)):
        labels_x, labels_y = list(labels_x), list(labels_y)
        for script, labels in ((script_x, labels_x), (script_y, labels_y)):
            for t in script:  # an expansion copies the label n times
                labels[t - 1 : t] = (labels[t - 1],) * x.arity
    sign = _layers(x.context, t_x, t_x, labels_x, labels_y)  # one tree twice: they tie
    if sign is None:
        return braids(t_x.leaf_count, _expanded(x, script_x)[0], _expanded(y, script_y)[0])
    return sign


def equal(x: BFElement, y: BFElement) -> bool:
    """x = y: x^-1 y, read at join(x.t1, y.t1) by _reading, ties in trees, labels and braid."""
    return _reading(x, y, _braids_differ) == ZERO


def _braids_differ(m: int, u: tuple, v: tuple) -> bool:
    return u != v and not braids_equal(AWord._new(m, u), AWord._new(m, v))


def compare(x: BFElement, y: BFElement) -> int:
    """Total order: x < y when x^-1 y, read at join(x.t1, y.t1) by _reading, is positive."""
    sign = _reading(x, y, _braid_sign)
    return LESS if sign == POSITIVE else GREATER if sign == NEGATIVE else EQUAL


def _braid_sign(m: int, u: tuple, v: tuple) -> int:
    return br.kr_sign(AWord._new(m, AWord._new(m, u).inverse().letters + v))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def to_json(x: BFElement) -> str:
    """Canonical JSON document mirroring the element fields."""
    import json
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
    import json
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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ElementError(f"malformed element document: {exc}") from exc
    return BFElement(context, t1, braid, labels, t2)


# ---------------------------------------------------------------------------
# Word evaluation over generating sets
# ---------------------------------------------------------------------------

def evaluate_product(factors: Iterable[BFElement], context: HContext) -> BFElement:
    """
    Multiply out a sequence of elements as a balanced product: multiply
    the aligned pairs (0,1), (2,3), ... and carry an odd last factor over,
    level by level, so each factor is cabled about log2(L) times for L
    factors; the one result is reduced.  generators.evaluate_word builds
    the first level from a memo and relies on this pairing.
    """
    layer = list(factors) or [identity_element(context)]
    while len(layer) > 1:
        paired = [multiply(a, b) for a, b in zip(layer[::2], layer[1::2])]
        layer = paired + layer[-1:] if len(layer) % 2 else paired
    return reduce(layer[0])
