import dataclasses
import hashlib
import json
import random
from fractions import Fraction

import pytest

from bfcalc import trees as tr
from bfcalc.freegroup import invert_letters, reduce_letters
from bfcalc.trees import (
    ExpansionError,
    Tree,
    TreeError,
    TreePair,
    _elementary_pair,
    _xi_word,
    attach_caret,
    attach_script,
    brown_generator_pairs,
    caret_top,
    comb_conjugator_word,
    evaluate_brown_word,
    expansion_script,
    fn_factorize,
    fn_sign,
    join,
    pair_inverse,
    pair_is_identity,
    pair_multiply,
    pair_reduce,
    right_comb,
    tree_from_nested,
    tree_to_json,
)


def addresses(tree):
    return ["".join(map(str, a)) for a in tree.leaves]


@dataclasses.dataclass(frozen=True)
class NAdicInterval:
    """The interval [num/n^depth, (num+1)/n^depth] assigned to a leaf."""

    numerator: int
    depth: int

    def length(self, arity):
        return Fraction(1, arity**self.depth)

    def left(self, arity):
        return Fraction(self.numerator, arity**self.depth)


def leaf_interval(tree, i):
    """The n-adic interval of the i-th leaf: the address read base n."""
    addr = tree.leaves[i - 1]
    num = 0
    for d in addr:
        num = num * tree.arity + d
    return NAdicInterval(num, len(addr))


def random_tree(rng, arity, carets):
    tree = Tree.single(arity)
    for _ in range(carets):
        tree = tree.attach(rng.randint(1, tree.leaf_count))
    return tree


def random_pair(rng, arity, max_carets=4):
    carets = rng.randint(0, max_carets)
    return TreePair(random_tree(rng, arity, carets), random_tree(rng, arity, carets))


# --- slope-sign oracle: compare actual interval lengths as exact fractions

def interval_sign_oracle(pair):
    n = pair.arity
    for k in range(1, pair.leaf_count + 1):
        dom = leaf_interval(pair.domain, k)
        cod = leaf_interval(pair.codomain, k)
        slope = Fraction(cod.length(n)) / Fraction(dom.length(n))
        if slope != 1:
            return 1 if slope > 1 else -1
    return 0


# --- construction and caret attachment

def test_attach_caret_root_expansion():
    assert attach_caret(Tree.single(3), 1) == Tree.caret(3)


def test_attach_caret_addresses_ternary():
    tree = attach_caret(Tree.caret(3), 3)
    assert addresses(tree) == ["0", "1", "20", "21", "22"]
    assert tree.leaf_count == 5


def test_attach_caret_addresses_binary():
    tree = attach_caret(attach_caret(Tree.caret(2), 1), 2)
    assert addresses(tree) == ["00", "010", "011", "1"]


def test_attach_caret_index_errors():
    with pytest.raises(TreeError):
        attach_caret(Tree.caret(2), 0)
    with pytest.raises(TreeError):
        attach_caret(Tree.caret(2), 4)


@pytest.mark.parametrize("index", [1.0, "1", True], ids=["float", "str", "bool"])
def test_attach_rejects_non_int_leaf_indices(index):
    with pytest.raises(TreeError, match="must be an int"):
        Tree.caret(2).attach(index)
    with pytest.raises(TreeError, match="must be an int"):
        attach_caret(Tree.caret(2), index)


def attach_oracle(tree, i):
    """The leaf set with leaf i replaced by its n children, through the public constructor."""
    addr = tree.leaves[i - 1]
    leaves = set(tree.leaves) - {addr} | {addr + (d,) for d in range(tree.arity)}
    return Tree(tree.arity, tuple(sorted(leaves)))


def test_attach_script_matches_attach_caret_chain():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.choice((2, 3, 4))
        tree = random_tree(rng, n, rng.randint(0, 5))
        script, chain, oracle = [], tree, tree
        for _ in range(rng.randint(0, 6)):
            i = rng.randint(1, chain.leaf_count)
            script.append(i)
            chain, oracle = attach_caret(chain, i), attach_oracle(oracle, i)
        assert attach_script(tree, tuple(script)) == chain == oracle
    tree = Tree.caret(3)
    assert attach_script(tree, ()) is tree


def test_attach_script_index_errors():
    tree = Tree.caret(2)
    # Each index is checked against the leaves of the tree grown so far.
    for script in ((0,), (3,), (-1,), (2, 4), (1, 1, 5)):
        with pytest.raises(TreeError, match="out of range"):
            attach_script(tree, script)
    assert attach_script(tree, (2, 3, 4)).leaf_count == 5


def test_leaf_count_mod_invariant():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.choice((2, 3, 4))
        tree = random_tree(rng, n, rng.randint(0, 5))
        assert (tree.leaf_count - 1) % (n - 1) == 0
        bigger = tree.attach(rng.randint(1, tree.leaf_count))
        assert bigger.leaf_count == tree.leaf_count + n - 1


def test_invalid_trees_rejected():
    with pytest.raises(TreeError):
        Tree(2, ((0,),))  # not a complete cover
    with pytest.raises(TreeError):
        Tree(2, ((), (0,), (1,)))  # root is a prefix of its children
    with pytest.raises(TreeError):
        Tree(1, ((),))


def tree_rules_oracle(n, leaves):
    """A full tree's leaf list by four rules: sorted, digits in range, prefix-free, Kraft sum one."""
    if list(leaves) != sorted(leaves):
        return False
    if any(d < 0 or d >= n for leaf in leaves for d in leaf):
        return False
    if any(b[: len(a)] == a for a, b in zip(leaves, leaves[1:])):
        return False
    depth = max(map(len, leaves))
    return sum(n ** (depth - len(a)) for a in leaves) == n**depth


def mutate_leaves(rng, n, leaves):
    """One random edit of a tree's leaf list, which may or may not leave a tree."""
    leaves = list(leaves)
    i = rng.randrange(len(leaves))
    kind = rng.randrange(8)
    if kind == 0 and len(leaves) > 1:  # drop
        del leaves[i]
    elif kind == 1:  # swap
        j = rng.randrange(len(leaves))
        leaves[i], leaves[j] = leaves[j], leaves[i]
    elif kind == 2:  # duplicate
        leaves.insert(i, leaves[i])
    elif kind == 3:  # truncate
        leaves[i] = leaves[i][:-1]
    elif kind == 4:  # extend
        leaves[i] += (rng.randrange(-1, n + 1),)
    elif kind == 5 and leaves[i]:  # change one digit
        k = rng.randrange(len(leaves[i]))
        leaves[i] = leaves[i][:k] + (rng.randrange(-1, n + 1),) + leaves[i][k + 1 :]
    elif kind == 6:  # insert a random address
        leaves.insert(i, tuple(rng.randrange(n) for _ in range(rng.randint(0, 4))))
    else:  # re-sort
        leaves.sort()
    return tuple(leaves)


def test_tree_validation_matches_rules_oracle():
    rng = random.Random(48)
    verdicts = {True: 0, False: 0}
    for _ in range(6000):
        n = rng.choice((2, 3, 4))
        leaves = mutate_leaves(rng, n, random_tree(rng, n, rng.randint(0, 6)).leaves)
        valid = tree_rules_oracle(n, leaves)
        verdicts[valid] += 1
        if valid:
            assert Tree(n, leaves).leaves == leaves
        else:
            with pytest.raises(TreeError):
                Tree(n, leaves)
    assert min(verdicts.values()) >= 1000, verdicts


def test_leaf_addresses_examples():
    assert Tree.single(5).leaves == ((),)
    assert addresses(Tree.caret(3)) == ["0", "1", "2"]
    assert addresses(attach_caret(Tree.caret(2), 1)) == ["00", "01", "1"]


# --- join

def joined_tree(tree, other):
    """The join built from join's scripts, which must give one tree from either side."""
    s1, s2 = join(tree, other)
    joined = attach_script(tree, s1)
    assert joined == attach_script(other, s2)
    return joined, s1, s2


def test_join_idempotent():
    rng = random.Random(2)
    for _ in range(20):
        tree = random_tree(rng, rng.choice((2, 3)), rng.randint(0, 4))
        joined, s1, s2 = joined_tree(tree, tree)
        assert joined == tree and s1 == () and s2 == ()


def test_join_example_binary():
    caret = Tree.caret(2)
    joined, s1, s2 = joined_tree(caret.attach(1), caret.attach(2))
    assert addresses(joined) == ["00", "01", "10", "11"]
    assert len(s1) == 1 and len(s2) == 1


def test_join_containment_case():
    caret = Tree.caret(3)
    joined, s1, s2 = joined_tree(caret, caret.attach(2))
    assert joined == caret.attach(2)
    assert s1 == (2,) and s2 == ()


def all_expansions(tree, carets):
    """Every expansion of `tree` by at most `carets` caret attachments."""
    seen = {tree}
    frontier = [tree]
    for _ in range(carets):
        new = []
        for current in frontier:
            for i in range(1, current.leaf_count + 1):
                grown = current.attach(i)
                if grown not in seen:
                    seen.add(grown)
                    new.append(grown)
        frontier = new
    return seen


def test_join_minimality_brute_force():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.choice((2, 3))
        base = random_tree(rng, n, 1)
        t1 = base.attach(rng.randint(1, base.leaf_count))
        t2 = base.attach(rng.randint(1, base.leaf_count))
        joined, _, _ = joined_tree(t1, t2)
        common = all_expansions(t1, 2) & all_expansions(t2, 2)
        for tree in common:
            assert joined.nodes() <= tree.nodes()
        assert t1.nodes() <= joined.nodes() and t2.nodes() <= joined.nodes()


def test_expansion_script_rejects_non_expansion():
    with pytest.raises(ExpansionError):
        expansion_script(Tree.caret(2).attach(1), Tree.caret(2).attach(2))


# --- set-based and attach-chain oracles for the linear-time tree code

def expansion_script_oracle(tree, target):
    """Attach at the leftmost leaf that is an inner node of `target`, until equal."""
    if tree.arity != target.arity:
        raise ExpansionError("arity mismatch")
    target_nodes = target.nodes()
    if not tree.nodes() <= target_nodes:
        raise ExpansionError("target is not an expansion of the tree")
    script = []
    cur = tree
    while cur != target:
        idx = next(k for k, leaf in enumerate(cur.leaves, 1) if leaf + (0,) in target_nodes)
        cur = cur.attach(idx)
        script.append(idx)
    return tuple(script)


def join_oracle(tree, other):
    """The union of the two node sets, whose leaves are the nodes without a child."""
    if tree.arity != other.arity:
        raise TreeError("arity mismatch")
    nodes = tree.nodes() | other.nodes()
    joined = Tree(tree.arity, tuple(sorted(a for a in nodes if a + (0,) not in nodes)))
    return joined, expansion_script_oracle(tree, joined), expansion_script_oracle(other, joined)


def right_comb_oracle(arity, leaf_count):
    tree = Tree.single(arity)
    while tree.leaf_count < leaf_count:
        tree = tree.attach(tree.leaf_count)
    if tree.leaf_count != leaf_count:
        raise TreeError(f"{leaf_count} is not a valid leaf count for arity {arity}")
    return tree


def caret_window_oracle(tree, i):
    """Compare all n leaves of the window with the children of its first leaf's parent."""
    n = tree.arity
    if not 1 <= i <= tree.leaf_count - n + 1 or not tree.leaves[i - 1]:
        return False
    parent = tree.leaves[i - 1][:-1]
    return all(tree.leaves[i - 1 + d] == parent + (d,) for d in range(n))


def remove_caret(tree, i):
    """Merge the caret at leaves i..i+n-1 into its parent, through the public constructor."""
    parent = tree.leaves[i - 1][:-1]
    return Tree(tree.arity, tree.leaves[: i - 1] + (parent,) + tree.leaves[i - 1 + tree.arity :])


def pair_reduce_oracle(f):
    """Cancel the leftmost matching caret window, then start again from window 1."""
    cur = f
    while True:
        for i in range(1, cur.leaf_count - f.arity + 2):
            if caret_window_oracle(cur.domain, i) and caret_window_oracle(cur.codomain, i):
                cur = TreePair(remove_caret(cur.domain, i), remove_caret(cur.codomain, i))
                break
        else:
            return cur


def outcome(fn, *args):
    try:
        return fn(*args)
    except (TreeError, ExpansionError) as exc:
        return type(exc), str(exc)


def test_join_matches_oracle():
    rng = random.Random(42)
    for _ in range(1500):
        n = rng.choice((2, 3, 4))
        t1 = random_tree(rng, n, rng.randint(0, 8))
        equal_size = rng.random() < 0.5
        t2 = random_tree(rng, n, (t1.leaf_count - 1) // (n - 1) if equal_size else rng.randint(0, 8))
        joined, s1, s2 = joined_tree(t1, t2)
        assert (joined, s1, s2) == join_oracle(t1, t2)
        assert joined_tree(joined, t1) == join_oracle(joined, t1) == (joined, (), s1)
    with pytest.raises(TreeError):
        join(Tree.caret(2), Tree.caret(3))


def test_join_scripts_match_expansion_script():
    # join builds its scripts inside the merge; the set-based expansion
    # script onto the tree they build is the oracle.
    rng = random.Random(44)
    for _ in range(1500):
        n = rng.choice((2, 3, 4))
        t1 = random_tree(rng, n, rng.randint(0, 8))
        equal_size = rng.random() < 0.5
        t2 = random_tree(rng, n, (t1.leaf_count - 1) // (n - 1) if equal_size else rng.randint(0, 8))
        for tree, other in ((t1, t2), (t2, t1)):
            joined, s1, s2 = joined_tree(tree, other)
            assert s1 == expansion_script_oracle(tree, joined)
            assert s2 == expansion_script_oracle(other, joined)
            assert join(tree, joined) == (s1, ())
            assert join(joined, other) == ((), s2)


def test_expansion_script_matches_oracle():
    rng = random.Random(43)
    raised = 0
    for _ in range(1500):
        n = rng.choice((2, 3, 4))
        tree = random_tree(rng, n, rng.randint(0, 6))
        if rng.random() < 0.5:
            target = tree
            for _ in range(rng.randint(0, 4)):
                target = target.attach(rng.randint(1, target.leaf_count))
        else:
            target = random_tree(rng, n, rng.randint(0, 8))
        expected = outcome(expansion_script_oracle, tree, target)
        assert outcome(expansion_script, tree, target) == expected
        raised += expected[:1] == (ExpansionError,)
    assert raised > 300
    mismatch = (ExpansionError, "arity mismatch")
    assert outcome(expansion_script, Tree.caret(2), Tree.caret(3)) == mismatch


def test_right_comb_matches_oracle():
    for n in (-1, 0, 1, 2, 3, 4, 5):
        for m in range(-1, 40):
            assert outcome(right_comb, n, m) == outcome(right_comb_oracle, n, m)


def comb_conjugator_word_oracle(tree):
    """Peel the leftmost caret, found from window 1, until the tree equals a comb."""
    n = tree.arity
    removed = []
    cur = tree
    while cur != right_comb_oracle(n, cur.leaf_count):
        i = next(k for k in range(1, cur.leaf_count - n + 2) if caret_window_oracle(cur, k))
        cur = remove_caret(cur, i)
        if i != cur.leaf_count:
            removed.append(i)
    return reduce_letters([x for i in reversed(removed) for x in _xi_word(n, i)])


def test_comb_conjugator_word_matches_oracle():
    # It is also the factorization of (tree, comb).  A comb with one caret
    # attached shares spine carets with the comb of its size, which the
    # reduction of that pair cancels.
    rng = random.Random(45)
    trees = []
    for _ in range(600):
        n = rng.choice((2, 3, 4))
        trees.append(random_tree(rng, n, rng.randint(0, 10)))
    for _ in range(200):
        n = rng.choice((2, 3, 4))
        tree = right_comb(n, 1 + (n - 1) * rng.randint(0, 4))
        trees.append(tree.attach(rng.randint(1, tree.leaf_count)))
    for n in (2, 3, 4):  # long chains of peels
        trees.append(random_tree(rng, n, rng.randint(40, 60)))
    cancelled = 0
    for tree in trees:
        word = comb_conjugator_word(tree)
        assert word == comb_conjugator_word_oracle(tree)
        comb = right_comb(tree.arity, tree.leaf_count)
        assert fn_factorize(TreePair(tree, comb)) == word
        assert fn_factorize(TreePair(comb, tree)) == invert_letters(word)
        cancelled += pair_reduce(TreePair(tree, comb)).leaf_count < tree.leaf_count
    assert cancelled > 200
    for n in (2, 3):
        for m in range(1, 12, n - 1):
            assert comb_conjugator_word(right_comb(n, m)) == ()


def test_elementary_pair_over_smallest_comb():
    for n in (2, 3, 4, 5):
        for i in range(1, 30):
            m = next(m for m in range(i + 1, 99) if m >= n and (m - 1) % (n - 1) == 0)
            comb = right_comb_oracle(n, m)
            assert _elementary_pair(n, i) == TreePair(comb.attach(i), comb.attach(m))


XI_WORDS_DIGEST = "144c3a60877e63ff861497ad1561fea97f4d7bfb5292de9e527911c147cddba6"


def test_xi_words_evaluate_to_their_elementary_pairs(monkeypatch):
    # evaluate_brown_word is the oracle: each word multiplies out to its pair.
    monkeypatch.setattr(tr, "_XI_WORDS", {})
    words = {f"{n},{i}": _xi_word(n, i) for n in (2, 3, 4) for i in range(1, 61)}
    for key, word in words.items():
        n, i = map(int, key.split(","))
        value = evaluate_brown_word(n, word)
        assert pair_is_identity(pair_multiply(value, pair_inverse(_elementary_pair(n, i))))
    digest = hashlib.sha256(json.dumps(words).encode()).hexdigest()
    assert digest == XI_WORDS_DIGEST


def test_xi_word_checks_a_new_instance_in_at_most_three_products(monkeypatch):
    products = []

    def counting_multiply(f, g):
        products.append((f, g))
        return pair_multiply(f, g)

    monkeypatch.setattr(tr, "_XI_WORDS", {})
    monkeypatch.setattr(tr, "pair_multiply", counting_multiply)
    for n in (2, 3, 4):
        _xi_word(n, 200)
    expected = sum(1 if i <= n else 3 for n, i in tr._XI_WORDS)
    assert len(products) == expected and len(tr._XI_WORDS) > 250
    _xi_word(2, 200)
    assert len(products) == expected


def test_caret_top_matches_caret_window_oracle():
    # Stacks of one tree and of two trees grown alike: push the leaves, merge
    # the top while caret_top answers, and check every answer against the
    # windows of the trees the stack and the leaves still to push make.
    rng = random.Random(46)
    for _ in range(600):
        n = rng.choice((2, 3, 4))
        carets = rng.randint(0, 10)
        trees = [random_tree(rng, n, carets) for _ in range(rng.choice((1, 2)))]
        for _ in range(rng.randint(0, 6)):
            i = rng.randint(1, trees[0].leaf_count)
            trees = [tree.attach(i) for tree in trees]
        stack, rest = [], list(zip(*(tree.leaves for tree in trees)))
        while rest:
            stack.append(rest.pop(0))
            while True:
                current = [Tree(n, leaves) for leaves in zip(*(stack + rest))]
                i = len(stack) - n + 1
                expected = None
                if all(caret_window_oracle(tree, i) for tree in current):
                    expected = tuple(tree.leaves[i - 1][:-1] for tree in current)
                parents = caret_top(stack, n)
                assert parents == expected
                if parents is None:
                    break
                stack[-n:] = [parents]


def test_pair_reduce_matches_oracle():
    rng = random.Random(44)
    for _ in range(1500):
        n = rng.choice((2, 3, 4))
        pair = random_pair(rng, n, max_carets=rng.randint(0, 8))
        if rng.random() < 0.5:  # grow both trees alike so that carets cancel
            for _ in range(rng.randint(1, 4)):
                i = rng.randint(1, pair.leaf_count)
                pair = TreePair(pair.domain.attach(i), pair.codomain.attach(i))
        assert pair_reduce(pair) == pair_reduce_oracle(pair)
    for n in (2, 3, 4):  # long chains of merges: 40-60 carets grown alike
        for base in (random_pair(rng, n), TreePair(Tree.single(n), Tree.single(n))):
            pair = base
            for _ in range(rng.randint(40, 60)):
                i = rng.randint(1, pair.leaf_count)
                pair = TreePair(pair.domain.attach(i), pair.codomain.attach(i))
            assert pair_reduce(pair) == pair_reduce_oracle(pair)
            assert pair_reduce(pair).leaf_count <= base.leaf_count


# --- leaf intervals

def test_leaf_interval_examples():
    assert leaf_interval(Tree.single(4), 1) == NAdicInterval(0, 0)
    tree = attach_caret(Tree.caret(2), 1)
    assert leaf_interval(tree, 2) == NAdicInterval(1, 2)
    assert leaf_interval(Tree.caret(3), 3) == NAdicInterval(2, 1)


def test_leaf_intervals_tile_unit_interval():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.choice((2, 3, 4))
        tree = random_tree(rng, n, rng.randint(0, 4))
        left = Fraction(0)
        for k in range(1, tree.leaf_count + 1):
            iv = leaf_interval(tree, k)
            assert iv.left(n) == left
            left += iv.length(n)
        assert left == 1


# --- slope sign

def test_fn_sign_zero_on_equal_trees():
    rng = random.Random(5)
    for _ in range(20):
        tree = random_tree(rng, rng.choice((2, 3)), rng.randint(0, 4))
        assert fn_sign(TreePair(tree, tree)) == 0


def test_fn_sign_examples():
    caret = Tree.caret(2)
    assert fn_sign(TreePair(caret.attach(1), caret.attach(2))) == 1
    assert fn_sign(TreePair(caret.attach(2), caret.attach(1))) == -1


def test_fn_sign_matches_interval_oracle():
    rng = random.Random(6)
    for _ in range(500):
        pair = random_pair(rng, rng.choice((2, 3)))
        assert fn_sign(pair) == interval_sign_oracle(pair)


def test_fn_sign_trichotomy():
    rng = random.Random(7)
    for _ in range(500):
        pair = random_pair(rng, rng.choice((2, 3)))
        sign = fn_sign(pair)
        assert sign == -fn_sign(pair_inverse(pair))
        assert (sign == 0) == (pair.domain == pair.codomain)


def test_fn_sign_bi_invariant():
    rng = random.Random(8)
    checked = 0
    while checked < 500:
        n = rng.choice((2, 3))
        a, f, g = (random_pair(rng, n) for _ in range(3))
        if fn_sign(pair_multiply(pair_inverse(f), g)) != 1:
            continue
        checked += 1
        left = pair_multiply(pair_inverse(pair_multiply(a, f)), pair_multiply(a, g))
        right = pair_multiply(pair_inverse(pair_multiply(f, a)), pair_multiply(g, a))
        assert fn_sign(left) == 1
        assert fn_sign(right) == 1


# --- pair algebra

def test_pair_multiply_trivial_join_case():
    # When the middle trees already agree no expansion happens at all.
    caret = Tree.caret(2)
    middle = caret.attach(2)
    f = TreePair(caret.attach(1), middle)
    g = TreePair(middle, caret.attach(1))
    result = pair_multiply(f, g)
    assert result == TreePair(caret.attach(1), caret.attach(1))
    assert pair_is_identity(result)


def test_pair_inverse_cancels():
    rng = random.Random(9)
    for _ in range(100):
        pair = random_pair(rng, rng.choice((2, 3)))
        assert pair_is_identity(pair_multiply(pair, pair_inverse(pair)))


def test_pair_multiply_associative():
    rng = random.Random(10)
    for _ in range(200):
        n = rng.choice((2, 3))
        a, b, c = (random_pair(rng, n) for _ in range(3))
        left = pair_multiply(pair_multiply(a, b), c)
        right = pair_multiply(a, pair_multiply(b, c))
        assert pair_is_identity(pair_multiply(left, pair_inverse(right)))


def test_pair_is_identity_examples():
    caret = Tree.caret(2)
    assert pair_is_identity(TreePair(caret, caret))
    assert not pair_is_identity(TreePair(caret.attach(1), caret.attach(2)))
    rng = random.Random(47)
    for n in (2, 3, 4):
        tree = random_tree(rng, n, 5)
        for i in range(1, tree.leaf_count + 1):  # unreduced identities
            assert pair_is_identity(TreePair(tree.attach(i), tree.attach(i)))
    for _ in range(300):
        pair = random_pair(rng, rng.choice((2, 3)))
        assert pair_is_identity(pair_multiply(pair, pair_inverse(pair)))
        for p in (pair, pair_multiply(pair, pair_inverse(pair)),
                  pair_multiply(pair, random_pair(rng, pair.arity))):
            reduced = pair_reduce(p)  # the reduce-then-compare rule
            assert pair_is_identity(p) == (reduced.domain == reduced.codomain)


def test_pair_reduce_cancels_matched_carets():
    caret = Tree.caret(2)
    pair = TreePair(caret.attach(1).attach(1), caret.attach(2).attach(1))
    reduced = pair_reduce(pair)
    assert reduced == TreePair(caret.attach(1), caret.attach(2))


# --- generating pairs and factorization

def test_brown_pairs_shapes():
    for n in (2, 3, 4):
        pairs = brown_generator_pairs(n)
        assert len(pairs) == n
        caret = Tree.caret(n)
        assert pairs[0] == TreePair(caret.attach(n), caret.attach(1))
        for pair in pairs:
            assert fn_sign(pair) != 0
    pairs3 = brown_generator_pairs(3)
    base = Tree.caret(3).attach(3)
    assert pairs3[-1] == TreePair(base.attach(5), base.attach(3))


def test_fn_factorize_identity_and_generators():
    for n in (2, 3):
        assert fn_factorize(TreePair(Tree.single(n), Tree.single(n))) == ()
        for k, pair in enumerate(brown_generator_pairs(n), start=1):
            word = fn_factorize(pair)
            value = evaluate_brown_word(n, word)
            assert pair_is_identity(pair_multiply(value, pair_inverse(pair)))
            assert len(word) == 1


def test_evaluate_brown_word_rejects_letters_out_of_range():
    for n in (2, 3):
        for letter in (0, n + 1, -(n + 1), 1.0, True):
            with pytest.raises(TreeError):
                evaluate_brown_word(n, (1, letter))


def test_fn_factorize_round_trip():
    rng = random.Random(11)
    for n in (2, 3):
        for _ in range(100):
            pair = random_pair(rng, n, max_carets=5)
            word = fn_factorize(pair)
            value = evaluate_brown_word(n, word)
            assert pair_is_identity(pair_multiply(value, pair_inverse(pair)))


def test_right_comb_rejects_bad_leaf_count():
    with pytest.raises(TreeError):
        right_comb(3, 4)


# --- nested codec

def tree_to_nested(tree):
    """Oracle: the nested-list form of a tree, [] for a leaf."""
    leaves = set(tree.leaves)
    root = []
    stack = [((), root)]
    while stack:
        prefix, node = stack.pop()
        if prefix not in leaves:
            for d in range(tree.arity):
                child = []
                node.append(child)
                stack.append((prefix + (d,), child))
    return root


def test_nested_codec_examples():
    assert tree_to_nested(Tree.single(2)) == []
    assert tree_to_nested(Tree.caret(3)) == [[], [], []]
    assert tree_to_nested(Tree.caret(2).attach(2)) == [[], [[], []]]
    assert tree_from_nested(((), ((), ())), 2) == Tree.caret(2).attach(2)
    assert tree_to_json(Tree.single(2)) == "[]"
    assert tree_to_json(Tree.caret(3)) == "[[],[],[]]"
    assert tree_to_json(Tree.caret(2).attach(2)) == "[[],[[],[]]]"


def test_tree_to_json_matches_json_dumps():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.choice((2, 3, 4))
        tree = Tree.single(n)
        for _ in range(rng.randint(0, 12)):
            tree = tree.attach(rng.randint(1, tree.leaf_count))
        text = tree_to_json(tree)
        assert text == json.dumps(tree_to_nested(tree), separators=(",", ":"))
        assert tree_from_nested(json.loads(text), n) == tree


def test_nested_codec_rejects_malformed():
    for nested, arity in (([[], []], 3), ([[], 5], 2), ("*", 2), ([[[]], []], 2)):
        with pytest.raises(TreeError):
            tree_from_nested(nested, arity)


def test_nested_codec_handles_deep_trees():
    depth = 3000
    tree = Tree.single(2)
    for _ in range(depth):
        tree = tree.attach(1)
    nested = tree_to_nested(tree)
    assert tree_from_nested(nested, 2) == tree
    assert tree_to_json(tree) == "[" * depth + "[]" + ",[]]" * depth
    comb = right_comb(2, depth + 1)
    assert tree_to_json(comb) == "[[]," * depth + "[]" + "]" * depth


@pytest.mark.parametrize("call, message", [
    (lambda: Tree(2, ()), "a tree has at least one leaf"),
    (lambda: TreePair(Tree.caret(2), Tree.caret(3)), "arity mismatch in tree pair"),
    (lambda: TreePair(Tree.caret(2), Tree.caret(2).attach(1)), "leaf count mismatch in tree pair"),
    (lambda: pair_multiply(TreePair(Tree.caret(2), Tree.caret(2)),
                           TreePair(Tree.caret(3), Tree.caret(3))), "arity mismatch"),
])
def test_tree_checks_raise_tree_error(call, message):
    with pytest.raises(TreeError) as caught:
        call()
    assert type(caught.value) is TreeError and str(caught.value) == message


# --- the join and attach_script memos

MEMOS = (tr._join_memo, tr._attach_memo)


@pytest.fixture
def cold_memos():
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
        memo.cache_clear()


def memo_sizes():
    return tuple(memo.cache_info().currsize for memo in MEMOS)


def seeded_memo_inputs(n, count=150):
    rng = random.Random(60 + n)
    out = []
    for _ in range(count):
        t1 = random_tree(rng, n, rng.randint(0, 6))
        t2 = random_tree(rng, n, rng.randint(0, 6))
        script = tuple(rng.randint(1, t1.leaf_count + (n - 1) * k) for k in range(rng.randint(1, 4)))
        out.append((t1, t2, script))
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_memoized_join_and_attach_match_uncached_code(cold_memos, n):
    inputs = seeded_memo_inputs(n)
    cold = []
    for t1, t2, script in inputs:
        scripts = join(t1, t2)
        attached = attach_script(t1, script)
        assert scripts == tr._join(n, t1.leaves, t2.leaves) == join_oracle(t1, t2)[1:]
        assert attached == tr._attach_script(n, t1.leaves, script)
        assert attached == Tree(n, attached.leaves)
        cold.append((scripts, attached))
    assert min(memo_sizes()) > 0
    # Warm: equal trees built apart hit the memo and get the stored objects back.
    for (t1, t2, script), (scripts, attached) in zip(inputs, cold):
        u1, u2 = Tree(n, t1.leaves), Tree(n, t2.leaves)
        assert join(u1, u2) is scripts
        assert attach_script(u1, script) is attached
        assert joined_tree(u1, u2) == join_oracle(t1, t2)


def test_memo_keys_carry_the_arity(cold_memos):
    # The one-leaf trees of all arities have the same leaves.
    for n in (2, 3, 4, 2):
        assert attach_script(Tree.single(n), (1, 1)) == attach_oracle(Tree.caret(n), 1)
        assert join(Tree.single(n), Tree.caret(n)) == ((1,), ())


def test_memo_stores_no_errors(cold_memos):
    for _ in range(3):
        with pytest.raises(TreeError) as caught:
            join(Tree.caret(2), Tree.caret(3))
        assert str(caught.value) == "arity mismatch"
        for script, leaves in (((0,), 3), ((4,), 3), ((1, 2, 8), 7)):
            with pytest.raises(TreeError) as caught:
                attach_script(Tree.caret(3), script)
            assert str(caught.value) == f"leaf index {script[-1]} out of range 1..{leaves}"
    assert memo_sizes() == (0, 0)


def test_full_memo_evicts_and_stays_right(cold_memos):
    # Distinct binary trees: the right comb with one more caret at each leaf.
    trees_seen = [right_comb(2, m).attach(i) for m in range(2, 20) for i in range(1, m + 1)]
    pairs = [(a, b) for a in trees_seen for b in trees_seen[:15]]
    calls = [(a, b, (1 + p % a.leaf_count, 1)) for p, (a, b) in enumerate(pairs)]
    assert len(calls) > tr.MEMO_ENTRIES + 10
    for memo in MEMOS:  # building the trees filled the attach_script memo
        memo.cache_clear()
    for a, b, script in calls:
        assert join(a, b) == tr._join(2, a.leaves, b.leaves)
        assert attach_script(a, script) == attach_oracle(attach_oracle(a, script[0]), 1)
    assert memo_sizes() == (tr.MEMO_ENTRIES, tr.MEMO_ENTRIES)
    misses = tr._join_memo.cache_info().misses
    assert misses == len(calls)
    for a, b, script in calls[::50]:  # the first calls were evicted, the last are held
        assert joined_tree(a, b) == join_oracle(a, b)
        assert attach_script(a, script) == attach_oracle(attach_oracle(a, script[0]), 1)
    assert tr._join_memo.cache_info().misses > misses
    a, b, script = calls[-1]
    assert join(a, b) is join(a, b) and attach_script(a, script) is attach_script(a, script)
    assert memo_sizes() == (tr.MEMO_ENTRIES, tr.MEMO_ENTRIES)


def test_memo_holds_no_tree_above_its_leaf_limit(cold_memos):
    # Keys of deep trees cost the sum of their leaf depths to hash: a deep
    # comb grown one caret at a time must leave at most the limit's worth.
    limit = tr.MEMO_LEAVES
    tree = Tree.single(2)
    for _ in range(500):
        tree = tree.attach(1)
    assert memo_sizes() == (0, limit - 1)  # results of 2..limit leaves
    big, small = right_comb(2, limit + 1), right_comb(2, limit)
    assert join(big, small) == ((), (limit,)) and join(small, big) == ((limit,), ())
    assert attach_script(small, (1,)) == attach_oracle(small, 1)
    assert attach_script(right_comb(2, limit - 2), (1, 1, 1)).leaf_count == limit + 1
    assert memo_sizes() == (0, limit - 1)
    assert [memo.cache_info().hits for memo in MEMOS] == [0, 0]
