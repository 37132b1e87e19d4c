"""
The tree-pair calculator of F_n (trees module docstring): composition and
reduction of tree pairs, the n generating pairs and words over them.  An
elementary-pair word of comb_conjugator_word has a closed form, used once
each identity of its chain is checked by pair_multiply and kept in a memo
(the rule is in freegroup), keyed by arity and index at size 0.  expansion_script,
fn_factorize and pair_reduce have no caller in the package: they, and
pair_multiply's public name, stay only because perfbench's per-layer
tracer wraps all four by name.  A tree pair of two arities or leaf counts
is refused as fn_sign refuses it.
"""

from __future__ import annotations

from .freegroup import Memo, SchemaError, invert_letters, reduce_letters
from .trees import (ExpansionError, Tree, _check_pair, attach_script, caret_top, join,
                    right_comb)


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


def pair_multiply(f: tuple[Tree, Tree], g: tuple[Tree, Tree]) -> tuple[Tree, Tree]:
    """
    Compose two tree pairs, f first then g: expand both along the join of
    f's codomain and g's domain and drop the matched middle tree.  The
    result is not reduced.
    """
    (f_domain, f_codomain), (g_domain, g_codomain) = f, g
    _check_pair(f_domain, f_codomain)
    _check_pair(g_domain, g_codomain)
    script_f, script_g = join(f_codomain, g_domain)
    return attach_script(f_domain, script_f), attach_script(g_codomain, script_g)


def pair_reduce(f: tuple[Tree, Tree]) -> tuple[Tree, Tree]:
    """Cancel every caret the two trees share at the same leaf window, in one pass."""
    domain, codomain = f
    _check_pair(domain, codomain)
    n, s1, s2 = domain.arity, domain._starts, codomain._starts
    stack: list[tuple[int, int, int]] = []
    for entry in zip(range(domain.leaf_count), domain.depths, codomain.depths):
        stack.append(entry)
        while (parent := caret_top(stack, n, s1, s2)) is not None:
            stack[-n:] = [parent]
    if len(stack) == domain.leaf_count:
        return f
    return tuple(Tree._new(n, depths) for depths in list(zip(*stack))[1:])


def brown_generator_pairs(arity: int) -> tuple[tuple[Tree, Tree], ...]:
    """
    The n standard generating pairs: (R[n], R[i]) for i = 1..n-1 together
    with (R[n][2n-1], R[n][n]), where R is the one-caret tree.
    """
    n = arity
    caret = Tree.caret(n)
    pairs = [(caret.attach(n), caret.attach(i)) for i in range(1, n)]
    base = caret.attach(n)
    pairs.append((base.attach(2 * n - 1), base.attach(n)))
    return tuple(pairs)


def _elementary_pair(arity: int, i: int) -> tuple[Tree, Tree]:
    """The pair (C[i], C[last]) over the smallest comb C with more than i leaves."""
    m = max(i + 1, arity)
    m += (1 - m) % (arity - 1)  # up to the next leaf count m = 1 mod n-1
    comb = right_comb(arity, m)
    return comb.attach(i), comb.attach(m)


def _check_xi_identity(key: tuple[int, int]) -> tuple[None, int]:
    """
    For key (n, j), check E(j) = g_j^-1 when j <= n, else E(j) = g_1 E(j-n+1)
    g_1^-1, over the generating pairs g_1..g_n: three pair products, one for j <= n.
    """
    n, j = key
    g = brown_generator_pairs(n)
    if j <= n:
        value = g[j - 1][::-1]
    else:
        value = pair_multiply(pair_multiply(g[0], _elementary_pair(n, j - n + 1)), g[0][::-1])
    domain, codomain = pair_multiply(value, _elementary_pair(n, j)[::-1])
    if domain != codomain:
        raise SchemaError(f"elementary-pair rewrite failed for index {j}, arity {n}")
    return None, 0


_XI_IDENTITIES = Memo(_check_xi_identity)  # checked identities: (n, j) -> None


def _xi_word(n: int, i: int) -> tuple[int, ...]:
    """E(i) over the generating pairs, g_1^q g_r^-1 g_1^-q, once its chain's identities hold."""
    q = max(0, -((n - i) // (n - 1)))  # ceil((i-n)/(n-1)), so that r <= n
    r = i - q * (n - 1)
    for j in range(r, i + 1, n - 1):
        _XI_IDENTITIES[n, j]
    return (1,) * q + (-r,) + (-1,) * q


def comb_conjugator_word(tree: Tree) -> tuple[int, ...]:
    """
    Word over the generating pairs evaluating to (tree, comb with the same
    leaf count).  Carets are peeled off the tree leftmost first, and a peel
    at leaf window i contributes the elementary pair with index i.  Peeling
    stops when the leftmost caret is the last one: the tree is then a comb.
    """
    n, starts = tree.arity, tree._starts
    removed: list[int] = []
    stack: list[tuple[int, int, int]] = []  # the pair (tree, tree)
    for f, d in enumerate(tree.depths[:-1]):  # a window on the last leaf is the comb's
        stack.append((f, d, d))
        while (parent := caret_top(stack, n, starts, starts)) is not None:
            removed.append(len(stack) - n + 1)
            stack[-n:] = [parent]
    return reduce_letters([x for i in reversed(removed) for x in _xi_word(n, i)])


def fn_factorize(pair: tuple[Tree, Tree]) -> tuple[int, ...]:
    """
    Write a tree pair as a word in the n generating pairs (signed 1-based
    indices).  The word is finite but not minimal; evaluating it with
    pair_multiply gives back the input pair up to reduction.
    """
    domain, codomain = pair_reduce(pair)
    if domain == codomain:
        return ()
    left, right = comb_conjugator_word(domain), comb_conjugator_word(codomain)
    return reduce_letters(left + invert_letters(right))
