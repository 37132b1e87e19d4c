"""
Full n-ary trees, caret expansions, tree joins and the slope order on tree
pairs.

A tree is stored by its leaf depths, left to right, which fix a full n-ary
tree; its memory and hash cost grow linearly with its leaf count.  One
stack pass reads them: push each depth, and while the top n entries are
one positive depth d, replace them by one d - 1.  The depths are a full
tree's exactly when the pass ends with the root alone.  A leaf's start
depth is the top of the stack just before it is pushed (0 for the first
leaf, and past the last): the nodes that begin at a leaf are its
ancestors from that depth down.  Validation, tree text, the sibling test
of caret_top and the leaf addresses (Tree.leaves, derived for printing
only) read the start depths; join, attach_script, right_comb and fn_sign
read or build the depths directly.

A tree pair is a tuple (domain, codomain) of two trees of one arity and
leaf count.  It represents the piecewise-affine homeomorphism of [0,1]
sending the k-th leaf interval of the domain tree affinely onto the k-th
leaf interval of the codomain tree, an element of the slope group F_n.  The
sign of such a pair is read off the first pair of corresponding leaf
intervals of different length.  The tree-pair calculator (composition,
reduction, the generating pairs and factorization over them) lives in the
treepairs module, which loads on first use; expansion_script, fn_factorize,
pair_multiply and pair_reduce are read through this module's __getattr__
for the benchmark's per-layer tracer, which names them here.

join and attach_script keep one Memo each (the rule is in freegroup), keyed
by the arity and the depths (and, for attach_script, the script), sized by
the leaves of the largest tree and not read past its bound; a hit hands
back the stored immutable scripts or Tree, so equal results share objects.
"""

from __future__ import annotations

from .freegroup import (MEMO_LEAVES, NEGATIVE, POSITIVE, ZERO, Memo, _is_int_tuple, _lazy_getattr,
                        _value_class)


class TreeError(ValueError):
    """Raised for malformed trees or invalid leaf indices."""


class ExpansionError(ValueError):
    """Raised when a tree is not an expansion of another."""


def _check_arity(n) -> None:
    if type(n) is not int:
        raise TreeError(f"arity must be an int, got {n!r}")
    if n < 2:
        raise TreeError(f"arity must be >= 2, got {n}")


def _start_depths(n: int, depths: tuple[int, ...]) -> list[int]:
    """Each leaf's start depth, then 0, by the stack pass; TreeError if no full tree's."""
    stack, starts = [], []
    for f, d in enumerate(depths):
        top = stack[-1] if stack else 0
        if d < top:  # so the stack never descends, and its top n are one depth when the n-th is
            raise TreeError(f"leaf {f + 1} of depth {d} is shallower than the node before it")
        starts.append(top)
        stack.append(d)
        while d > 0 and len(stack) >= n and stack[-n] == d:
            del stack[-n:]
            d -= 1
            stack.append(d)
    if stack != [0]:
        raise TreeError("the depths do not close a full tree")
    starts.append(0)
    return starts


@_value_class
class Tree:
    """A finite full n-ary tree, given by its leaf depths, left to right."""

    arity: int
    depths: tuple[int, ...]
    __slots__ = ("_start_memo",)  # outside the fields: equality and hash are unchanged

    def __post_init__(self):
        _check_arity(self.arity)
        if not _is_int_tuple(self.depths):
            raise TreeError("depths must be a tuple of ints")
        if not self.depths:
            raise TreeError("a tree has at least one leaf")
        object.__setattr__(self, "_start_memo", _start_depths(self.arity, self.depths))

    @staticmethod
    def single(arity: int) -> Tree:
        """The one-leaf tree."""
        return Tree(arity, (0,))

    @staticmethod
    def caret(arity: int) -> Tree:
        """The one-caret tree R with n leaves."""
        return Tree(arity, (1,) * arity)

    @property
    def leaf_count(self) -> int:
        return len(self.depths)

    @property
    def _starts(self) -> list[int]:
        """The start depths (module docstring), kept after the first read."""
        try:
            return self._start_memo
        except AttributeError:  # built by _new: fill the slot on this first read
            object.__setattr__(self, "_start_memo", _start_depths(self.arity, self.depths))
            return self._start_memo

    @property
    def leaves(self) -> tuple[tuple[int, ...], ...]:
        """The leaf addresses, child indices from the root (which is ()), left to right."""
        out, leaf = [], ()
        for d, s in zip(self.depths, self._starts):  # keep s - 1 digits, add one, descend by 0s
            leaf = leaf[: s - 1] + (leaf[s - 1] + 1,) + (0,) * (d - s) if s else (0,) * d
            out.append(leaf)
        return tuple(out)

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
    n, depths = tree.arity, tree.depths
    if len(depths) + (n - 1) * len(script) <= MEMO_LEAVES:
        return _ATTACHED[n, depths, script]
    return _attach_script((n, depths, script))[0]  # never kept: no key to hash


def _attach_script(key: tuple[int, tuple[int, ...], tuple[int, ...]]) -> tuple[Tree, int]:
    """attach_script's make: the tree and its leaf count."""
    n, depths, script = key
    out = list(depths)
    for i in script:
        if not 1 <= i <= len(out):
            raise TreeError(f"leaf index {i} out of range 1..{len(out)}")
        out[i - 1 : i] = [out[i - 1] + 1] * n
    return Tree._new(n, tuple(out)), len(out)


_ATTACHED = Memo(_attach_script)


def right_comb(arity: int, leaf_count: int) -> Tree:
    """The right comb, carets on the last leaf: n-1 leaves at each depth 1..k, then one at k."""
    if type(arity) is not int or type(leaf_count) is not int:
        raise TreeError("arity and leaf count must be ints")
    if arity < 2:
        raise TreeError(f"arity must be >= 2, got {arity}")
    k, rest = divmod(leaf_count - 1, arity - 1)
    if k < 0 or rest:
        raise TreeError(f"{leaf_count} is not a valid leaf count for arity {arity}")
    return Tree._new(arity, tuple(d for d in range(1, k + 1) for _ in range(arity - 1)) + (k,))


def join(tree: Tree, other: Tree) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """
    The caret scripts that turn each of two trees into their minimal common
    expansion, attach_script(tree, script_x) == attach_script(other,
    script_y).  Both depth sequences are read in step as two stacks, next
    leaf on top: of the two current leaves, the shallower one is replaced
    by n leaves one deeper, and the k-th leaf of the join joins that side's
    script, until the two agree.
    """
    n = tree.arity
    if n != other.arity:
        raise TreeError("arity mismatch")
    xs, ys = tree.depths, other.depths
    if len(xs) <= MEMO_LEAVES and len(ys) <= MEMO_LEAVES:
        return _JOINS[n, xs, ys]
    return _join((n, xs, ys))[0]  # never kept: no key to hash


def _join(key: tuple[int, tuple[int, ...], tuple[int, ...]]
          ) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], int]:
    """join's make: the two scripts and the larger leaf count."""
    n, xs, ys = key
    size = max(len(xs), len(ys))
    if xs == ys:
        return ((), ()), size
    xs, ys = list(reversed(xs)), list(reversed(ys))
    script_x, script_y, k = [], [], 0
    while xs:  # both stacks empty together: each side covers the same interval
        u, v = xs.pop(), ys.pop()
        k += 1
        while u != v:
            if u < v:
                u += 1
                xs += [u] * (n - 1)
                script_x.append(k)
            else:
                v += 1
                ys += [v] * (n - 1)
                script_y.append(k)
    return (tuple(script_x), tuple(script_y)), size


_JOINS = Memo(_join)


def tree_to_json(tree: Tree) -> str:
    """
    The JSON form of a tree: nested lists, [] for a leaf and the list of
    its n children for an inner node, written compactly ("[[],[]]" for a
    caret), as the command line spells it with "*" and parentheses.  A leaf
    of depth d opens d - s brackets for its start depth s and closes d - t
    for the next leaf's, so any depth can be written.
    """
    starts = tree._starts
    return "".join("[" * (d - s) + "[]" + "]" * (d - t) + ("," if t else "")
                   for d, s, t in zip(tree.depths, starts, starts[1:]))


def tree_from_nested(nested, arity: int) -> Tree:
    """
    Inverse of tree_to_json, on the parsed nested lists.  Lists and tuples
    are both accepted; a node that is not a leaf must have exactly `arity`
    children.  The arity is checked first, as Tree checks it.
    """
    _check_arity(arity)
    depths, stack = [], [(0, nested)]  # depths right to left
    while stack:
        depth, node = stack.pop()
        if not isinstance(node, (list, tuple)):
            raise TreeError("malformed nested tree")
        if not node:
            depths.append(depth)
        elif len(node) != arity:
            raise TreeError(f"tree has a node of width {len(node)}, expected arity {arity}")
        else:
            stack.extend((depth + 1, child) for child in node)
    return Tree._new(arity, tuple(reversed(depths)))


def _check_pair(domain: Tree, codomain: Tree) -> None:
    """Refuse two trees that are not a tree pair: of one arity and leaf count."""
    if domain.arity != codomain.arity:
        raise TreeError("arity mismatch in tree pair")
    if domain.leaf_count != codomain.leaf_count:
        raise TreeError("leaf count mismatch in tree pair")


def fn_sign(domain: Tree, codomain: Tree) -> int:
    """
    Sign of the tree pair (domain, codomain) under the slope order: scan
    corresponding leaves in order and look at the first pair whose intervals
    have different lengths.  The pair is positive when the domain leaf is
    deeper, i.e. when the slope there is a positive power of n.  It reads
    the two depth sequences, and zero forces equal trees, since a tree is
    its depth sequence.
    """
    _check_pair(domain, codomain)
    for d_dom, d_cod in zip(domain.depths, codomain.depths):
        if d_dom != d_cod:
            return POSITIVE if d_dom > d_cod else NEGATIVE
    return ZERO


def caret_top(stack: list[tuple[int, int, int]], n: int, s1: list[int], s2: list[int]
              ) -> tuple[int, int, int] | None:
    """
    The parent of the top n entries of a stack of nodes of two trees when in
    both trees they are one node's n children, else None.  An entry is (its
    first leaf, 0-based, its depth in each tree); s1 and s2 hold the trees'
    start depths.  A node of depth d from leaf f is a first child exactly
    when s[f] < d, and the n entries from a first child are its siblings
    exactly when the last has depth d too: an entry inside a later sibling
    is deeper.  Pushing the leaves in order and merging the top while this
    answers undoes windows leftmost first: a window below the top was
    checked when its last entry was on top, and has not changed since.
    """
    if len(stack) < n:
        return None
    f, d1, d2 = stack[-n]
    _, e1, e2 = stack[-1]
    if s1[f] < d1 == e1 and s2[f] < d2 == e2:
        return f, d1 - 1, d2 - 1
    return None


__getattr__ = _lazy_getattr(__name__, dict.fromkeys(
    ("expansion_script", "fn_factorize", "pair_multiply", "pair_reduce"), "treepairs"))
