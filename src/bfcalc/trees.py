"""
Full n-ary trees, caret expansions, tree joins and the slope order on tree
pairs.

A tree is stored by the sorted tuple of its leaf addresses, an address being
a tuple of child indices in 0..n-1 (the root is the empty tuple).  For a
full tree the leaf set determines everything else: the internal nodes are
exactly the proper prefixes of the leaves, and tree equality is structural.
The sorted leaves obey one successor rule: a leaf's trailing run of n-1
digits closes the nodes it completes, and the next leaf adds one to the
digit before that run, then descends by zeros.  Tree validation, tree text,
join (with its caret scripts) and caret_top each read the leaves once by it.

A TreePair (domain, codomain) with equal leaf counts represents the
piecewise-affine homeomorphism of [0,1] sending the k-th leaf interval of
the domain tree affinely onto the k-th leaf interval of the codomain tree.
The sign of such a pair is read off the first pair of corresponding leaf
intervals of different length.

join and attach_script keep one memo each, keyed by the arity and the leaves
(and, for attach_script, the script).  A computation meets few trees again
and again (combs, generating-set members and their expansions), and the
results are immutable, so a hit hands back the stored scripts or Tree and
equal results share objects.  Errors are never stored.  Only trees of at
most MEMO_LEAVES leaves enter a memo or are looked up in it: a tuple does
not cache its hash, so a key costs the sum of its leaf depths on every
call, which grows with the square of the leaf count for a comb while the
merge it saves grows with the leaf count.  A memo keeps its MEMO_ENTRIES
most recently used entries.  The two constants cap the memory: both memos
full of distinct 32-leaf binary caterpillars, the deepest trees allowed,
held 37 MiB, while a 20-second run of a benchmark workload, whose trees
have at most 10 leaves, leaves at most 1,704 entries in either.
"""

from __future__ import annotations

import functools

from .freegroup import (NEGATIVE, POSITIVE, ZERO, SchemaError, _is_int_tuple, _value_class,
                        invert_letters, reduce_letters)

Address = tuple[int, ...]

MEMO_LEAVES = 32  # no tree with more leaves enters or is read from a memo
MEMO_ENTRIES = 2048  # per memo; the least recently used entry goes first


class TreeError(ValueError):
    """Raised for malformed trees or invalid leaf indices."""


class ExpansionError(ValueError):
    """Raised when a tree is not an expansion of another."""


@_value_class
class Tree:
    """A finite full n-ary tree, given by its sorted leaf addresses."""

    arity: int
    leaves: tuple[Address, ...]

    def __post_init__(self):
        n = self.arity
        if type(n) is not int:
            raise TreeError(f"arity must be an int, got {n!r}")
        if n < 2:
            raise TreeError(f"arity must be >= 2, got {n}")
        if type(self.leaves) is not tuple or not all(map(_is_int_tuple, self.leaves)):
            raise TreeError("leaves must be a tuple of tuples of ints")
        if not self.leaves:
            raise TreeError("a tree has at least one leaf")
        # The successor rule from the all-zeros leaf to the all-(n-1) one;
        # follow is the next leaf less its zeros, None past the last leaf.
        last, follow = n - 1, ()
        for leaf in self.leaves:
            if follow is None or leaf[: len(follow)] != follow or any(leaf[len(follow):]):
                raise TreeError(f"leaf {leaf} does not follow the leaf before it in a full tree")
            s = len(leaf)
            while s and leaf[s - 1] == last:
                s -= 1
            follow = leaf[: s - 1] + (leaf[s - 1] + 1,) if s else None
        if follow is not None:
            raise TreeError(f"the last leaf of a full tree is all {last}s")

    @staticmethod
    def single(arity: int) -> Tree:
        """The one-leaf tree."""
        return Tree(arity, ((),))

    @staticmethod
    def caret(arity: int) -> Tree:
        """The one-caret tree R with n leaves."""
        return Tree(arity, tuple((d,) for d in range(arity)))

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    def nodes(self) -> frozenset[Address]:
        """All addresses of the tree: leaves plus every proper prefix."""
        out: set[Address] = set()
        for addr in self.leaves:
            for k in range(len(addr) + 1):
                out.add(addr[:k])
        return frozenset(out)

    def depths(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.leaves)

    def attach(self, i: int) -> Tree:
        """Attach a caret to the i-th leaf (1-based), written T[i]."""
        return attach_caret(self, i)


def attach_caret(tree: Tree, i: int) -> Tree:
    """Return T[i]: the tree with a caret attached to the i-th leaf (1-based)."""
    if type(i) is not int:
        raise TreeError(f"leaf index must be an int, got {i!r}")
    return attach_script(tree, (i,))


def attach_script(tree: Tree, script: tuple[int, ...]) -> Tree:
    """The tree after attaching a caret at each leaf index of the script in turn."""
    if not script:
        return tree
    n, leaves = tree.arity, tree.leaves
    small = len(leaves) + (n - 1) * len(script) <= MEMO_LEAVES
    return (_attach_memo if small else _attach_script)(n, leaves, script)


def _attach_script(n: int, leaves: tuple[Address, ...], script: tuple[int, ...]) -> Tree:
    out = list(leaves)
    for i in script:
        if not 1 <= i <= len(out):
            raise TreeError(f"leaf index {i} out of range 1..{len(out)}")
        addr = out[i - 1]
        out[i - 1 : i] = [addr + (d,) for d in range(n)]
    return Tree._new(n, tuple(out))


_attach_memo = functools.lru_cache(MEMO_ENTRIES)(_attach_script)


def right_comb(arity: int, leaf_count: int) -> Tree:
    """The right comb, carets on the last leaf: leaves (n-1)^d c for c < n-1, then (n-1)^k."""
    if type(arity) is not int or type(leaf_count) is not int:
        raise TreeError("arity and leaf count must be ints")
    if arity < 2:
        raise TreeError(f"arity must be >= 2, got {arity}")
    k, rest = divmod(leaf_count - 1, arity - 1)
    if k < 0 or rest:
        raise TreeError(f"{leaf_count} is not a valid leaf count for arity {arity}")
    spine = (arity - 1,)
    leaves = [spine * d + (c,) for d in range(k) for c in range(arity - 1)] + [spine * k]
    return Tree._new(arity, tuple(leaves))


def expansion_script(tree: Tree, target: Tree) -> tuple[int, ...]:
    """
    join's script for `tree` when `target` is an expansion of it: the leaf
    indices whose successive caret attachments turn `tree` into `target`,
    leftmost leaf first.  Raises ExpansionError otherwise.
    """
    if tree.arity != target.arity:
        raise ExpansionError("arity mismatch")
    script, rest = join(tree, target)
    if rest:
        raise ExpansionError("target is not an expansion of the tree")
    return script


def join(tree: Tree, other: Tree) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """
    The caret scripts that turn each of two trees into their minimal common
    expansion, attach_script(tree, script_x) == attach_script(other,
    script_y).  One merge of the sorted leaf lists: of the two current leaves
    (nested) the deeper, w, is the k-th leaf of the join, and each list moves
    on once the rest of w past its leaf is all n-1.  The script of the side
    whose leaf u is shorter gains k once per new inner node w[:e],
    len(u) <= e < len(w), w[e:] all zeros.
    """
    n = tree.arity
    if n != other.arity:
        raise TreeError("arity mismatch")
    xs, ys = tree.leaves, other.leaves
    small = len(xs) <= MEMO_LEAVES and len(ys) <= MEMO_LEAVES
    return (_join_memo if small else _join)(n, xs, ys)


def _join(n: int, xs: tuple[Address, ...], ys: tuple[Address, ...]
          ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if xs == ys:
        return (), ()
    last = n - 1
    i = j = k = 0
    script_x, script_y = [], []
    while i < len(xs):  # both lists end with the all-(n-1) leaf, together
        u, v = xs[i], ys[j]
        lu, lv = len(u), len(v)
        w, depth, script = (u, lv, script_y) if lu >= lv else (v, lu, script_x)
        k += 1
        s = d = len(w)
        while d > depth and w[d - 1] == 0:
            d -= 1
        script += [k] * (s - d)
        while s and w[s - 1] == last:  # w[s:] is the run of n-1 that w ends in
            s -= 1
        i += lu >= s
        j += lv >= s
    return tuple(script_x), tuple(script_y)


_join_memo = functools.lru_cache(MEMO_ENTRIES)(_join)


def tree_to_json(tree: Tree) -> str:
    """
    The JSON form of a tree: nested lists, [] for a leaf and the list of
    its n children for an inner node, written compactly ("[[],[]]" for a
    caret).  The command line spells the same structure with "*" and
    parentheses.  One pass over the leaves, so any depth can be written.
    """
    last = tree.arity - 1
    out: list[str] = []
    opened = 0  # how many of the leaf's ancestors, from the root down, are open
    for leaf in tree.leaves:
        s = len(leaf)
        out.append("[" * (s - opened) + "[]")
        while s and leaf[s - 1] == last:
            s -= 1
        out.append("]" * (len(leaf) - s) + ("," if s else ""))
        opened = s
    return "".join(out)


def tree_from_nested(nested, arity: int) -> Tree:
    """
    Inverse of tree_to_json, on the parsed nested lists.  Lists and tuples
    are both accepted; a node that is not a leaf must have exactly `arity`
    children.
    """
    leaves: list[Address] = []
    stack = [((), nested)]
    while stack:
        prefix, node = stack.pop()
        if not isinstance(node, (list, tuple)):
            raise TreeError("malformed nested tree")
        if not node:
            leaves.append(prefix)
        elif len(node) != arity:
            raise TreeError(f"tree has a node of width {len(node)}, expected arity {arity}")
        else:
            stack.extend((prefix + (d,), child) for d, child in enumerate(node))
    return Tree(arity, tuple(sorted(leaves)))


@_value_class
class TreePair:
    """An element representative of the slope group: two trees, equal leaf counts."""

    domain: Tree
    codomain: Tree

    def __post_init__(self):
        if not (isinstance(self.domain, Tree) and isinstance(self.codomain, Tree)):
            raise TreeError("a tree pair holds two trees")
        if self.domain.arity != self.codomain.arity:
            raise TreeError("arity mismatch in tree pair")
        if self.domain.leaf_count != self.codomain.leaf_count:
            raise TreeError("leaf count mismatch in tree pair")

    @property
    def arity(self) -> int:
        return self.domain.arity

    @property
    def leaf_count(self) -> int:
        return self.domain.leaf_count


def fn_sign(pair: TreePair) -> int:
    """
    Sign of a tree pair under the slope order: scan corresponding leaves in
    order and look at the first pair whose intervals have different lengths.
    The pair is positive when the domain leaf is deeper, i.e. when the slope
    there is a positive power of n.  Zero forces equal trees, since the
    left-to-right depth sequence determines a full n-ary tree.
    """
    for d_dom, d_cod in zip(pair.domain.depths(), pair.codomain.depths()):
        if d_dom != d_cod:
            return POSITIVE if d_dom > d_cod else NEGATIVE
    return ZERO


def pair_multiply(f: TreePair, g: TreePair) -> TreePair:
    """
    Compose two pairs, f first then g: expand both along the join of
    f.codomain and g.domain and drop the matched middle tree.  The result is
    not reduced.
    """
    if f.arity != g.arity:
        raise TreeError("arity mismatch")
    script_f, script_g = join(f.codomain, g.domain)
    return TreePair(attach_script(f.domain, script_f), attach_script(g.codomain, script_g))


def pair_inverse(f: TreePair) -> TreePair:
    return TreePair(f.codomain, f.domain)


def caret_top(stack: list[tuple[Address, ...]], n: int) -> tuple[Address, ...] | None:
    """
    The parents of the top n entries of a stack of leaves (one address per
    tree in each entry) when in every tree they are one node's n children,
    else None.  Pushing the leaves in order and merging the top while this
    answers undoes windows leftmost first: a window below the top was checked
    when its last leaf was on top, and has not changed since.
    """
    if len(stack) < n:
        return None
    parents = []
    # If the n-th leaf from last is pd and the last is p(n-1), then d = 0:
    # the n-2 leaves between cover p(d+1)..p(n-2), each 1 mod n-1 leaves.
    for first, last in zip(stack[-n], stack[-1]):
        parent = first[:-1]
        if last != parent + (n - 1,):
            return None
        parents.append(parent)
    return tuple(parents)


def pair_reduce(f: TreePair) -> TreePair:
    """Cancel every caret the two trees share at the same leaf window, in one pass."""
    n = f.arity
    stack: list[tuple[Address, ...]] = []
    for entry in zip(f.domain.leaves, f.codomain.leaves):
        stack.append(entry)
        while (parents := caret_top(stack, n)) is not None:
            stack[-n:] = [parents]
    if len(stack) == f.leaf_count:
        return f
    domain, codomain = zip(*stack)
    return TreePair(Tree._new(n, domain), Tree._new(n, codomain))


def pair_is_identity(f: TreePair) -> bool:
    """A pair is the identity exactly when its leaf intervals, so its trees, coincide."""
    return f.domain == f.codomain


def brown_generator_pairs(arity: int) -> tuple[TreePair, ...]:
    """
    The n standard generating pairs: (R[n], R[i]) for i = 1..n-1 together
    with (R[n][2n-1], R[n][n]), where R is the one-caret tree.
    """
    n = arity
    caret = Tree.caret(n)
    pairs = [TreePair(caret.attach(n), caret.attach(i)) for i in range(1, n)]
    base = caret.attach(n)
    pairs.append(TreePair(base.attach(2 * n - 1), base.attach(n)))
    return tuple(pairs)


def evaluate_brown_word(arity: int, word: tuple[int, ...]) -> TreePair:
    """Multiply out a word of signed 1-based indices into the n generating pairs."""
    bad = [letter for letter in word if type(letter) is not int or not 1 <= abs(letter) <= arity]
    if bad:
        raise TreeError(f"letter {bad[0]!r} names none of the {arity} generating pairs")
    gens = brown_generator_pairs(arity)
    acc = TreePair(Tree.single(arity), Tree.single(arity))
    for letter in word:
        g = gens[abs(letter) - 1]
        acc = pair_multiply(acc, g if letter > 0 else pair_inverse(g))
        acc = pair_reduce(acc)
    return acc


def _elementary_pair(arity: int, i: int) -> TreePair:
    """The pair (C[i], C[last]) over the smallest comb C with more than i leaves."""
    m = max(i + 1, arity)
    m += (1 - m) % (arity - 1)  # up to the next leaf count m = 1 mod n-1
    comb = right_comb(arity, m)
    return TreePair(comb.attach(i), comb.attach(m))


_XI_WORDS: dict[tuple[int, int], tuple[int, ...]] = {}


def _xi_word(arity: int, i: int) -> tuple[int, ...]:
    """
    The elementary pair E(i) with index i written over the n generating
    pairs g_1..g_n: g_i^-1 for i <= n, else through the conjugation identity
    E(i) = g_1 E(i-n+1) g_1^-1.  Each instance is checked once by that
    relation, against the checked E(i-n+1), in at most three pair products.
    """
    key = (arity, i)
    if key in _XI_WORDS:
        return _XI_WORDS[key]
    g = brown_generator_pairs(arity)
    if i <= arity:
        word, value = (-i,), pair_inverse(g[i - 1])
    else:
        word = reduce_letters((1,) + _xi_word(arity, i - arity + 1) + (-1,))
        value = pair_multiply(pair_multiply(g[0], _elementary_pair(arity, i - arity + 1)),
                              pair_inverse(g[0]))
    check = pair_multiply(value, pair_inverse(_elementary_pair(arity, i)))
    if not pair_is_identity(check):
        raise SchemaError(f"elementary-pair rewrite failed for index {i}, arity {arity}")
    _XI_WORDS[key] = word
    return word


def comb_conjugator_word(tree: Tree) -> tuple[int, ...]:
    """
    Word over the generating pairs evaluating to (tree, comb with the same
    leaf count).  Carets are peeled off the tree leftmost first, and a peel
    at leaf window i contributes the elementary pair with index i.  Peeling
    stops when the leftmost caret is the last one: the tree is then a comb.
    """
    n = tree.arity
    removed: list[int] = []
    stack: list[tuple[Address, ...]] = []
    for leaf in tree.leaves[:-1]:  # a window on the last leaf is the comb's
        stack.append((leaf,))
        while (parents := caret_top(stack, n)) is not None:
            removed.append(len(stack) - n + 1)
            stack[-n:] = [parents]
    return reduce_letters([x for i in reversed(removed) for x in _xi_word(n, i)])


def fn_factorize(pair: TreePair) -> tuple[int, ...]:
    """
    Write a tree pair as a word in the n generating pairs (signed 1-based
    indices).  The word is finite but not minimal; evaluating it with
    pair_multiply gives back the input pair up to reduction.
    """
    reduced = pair_reduce(pair)
    if reduced.domain == reduced.codomain:
        return ()
    left = comb_conjugator_word(reduced.domain)
    right = comb_conjugator_word(reduced.codomain)
    return reduce_letters(left + invert_letters(right))
