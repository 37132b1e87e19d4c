import dataclasses
import hashlib
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from bfcalc import treepairs as tp
from bfcalc import trees as tr
from bfcalc.freegroup import Memo, invert_letters, reduce_letters
from bfcalc.treepairs import (
    _elementary_pair,
    brown_generator_pairs,
    comb_conjugator_word,
    expansion_script,
    fn_factorize,
    pair_multiply,
    pair_reduce,
)
from bfcalc.trees import (
    ExpansionError,
    Tree,
    TreeError,
    attach_caret,
    attach_script,
    caret_top,
    fn_sign,
    join,
    right_comb,
    tree_from_nested,
    tree_to_json,
)


def addresses(tree):
    return ["".join(map(str, a)) for a in tree.leaves]


# --- the address oracle: a tree as its sorted leaf addresses

def successor_rule_leaves(n, leaves):
    """
    Refuse a leaf tuple that is no full tree's by the successor rule: a
    leaf's trailing run of n-1 digits closes the nodes it completes, and the
    next leaf adds one to the digit before that run, then descends by zeros.
    """
    follow = ()
    for leaf in leaves:
        if follow is None or leaf[: len(follow)] != follow or any(leaf[len(follow):]):
            raise TreeError(f"leaf {leaf} does not follow the leaf before it in a full tree")
        follow = next_prefix(n, leaf)
    if follow is not None:
        raise TreeError(f"the last leaf of a full tree is all {n - 1}s")
    return leaves


def next_prefix(n, leaf):
    """The leaf after `leaf` less its trailing zeros, None past the last leaf."""
    s = len(leaf)
    while s and leaf[s - 1] == n - 1:
        s -= 1
    return leaf[: s - 1] + (leaf[s - 1] + 1,) if s else None


def placed_leaves(n, depths):
    """Each leaf placed at its depth by the successor rule, or None when one cannot be."""
    leaves, follow = [], ()
    for d in depths:
        if follow is None or d < len(follow):
            return None
        leaves.append(follow + (0,) * (d - len(follow)))
        follow = next_prefix(n, leaves[-1])
    return tuple(leaves)


def tree_from_leaves(n, leaves):
    """The tree of a sorted leaf-address tuple, checked by the successor rule."""
    return Tree(n, tuple(map(len, successor_rule_leaves(n, leaves))))


def nodes(tree):
    """All addresses of the tree: leaves plus every proper prefix."""
    return frozenset(leaf[:k] for leaf in tree.leaves for k in range(len(leaf) + 1))


def replayed_leaves(n, script):
    """The sorted leaf addresses after attaching carets by the script, on address lists alone."""
    leaves = [()]
    for i in script:
        leaves[i - 1 : i] = [leaves[i - 1] + (d,) for d in range(n)]
    return tuple(leaves)


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
    """A tree pair: a (domain, codomain) tuple of two random trees of one size."""
    carets = rng.randint(0, max_carets)
    return random_tree(rng, arity, carets), random_tree(rng, arity, carets)


# --- the pair algebra's oracles: inverse, identity test and word evaluation

def pair_inverse(f):
    domain, codomain = f
    return codomain, domain


def pair_is_identity(f):
    """A pair is the identity exactly when its leaf intervals, so its trees, coincide."""
    domain, codomain = f
    return domain == codomain


def evaluate_brown_word(arity, word):
    """Multiply out a word of signed 1-based indices into the n generating pairs."""
    bad = [letter for letter in word if type(letter) is not int or not 1 <= abs(letter) <= arity]
    if bad:
        raise TreeError(f"letter {bad[0]!r} names none of the {arity} generating pairs")
    gens = brown_generator_pairs(arity)
    acc = (Tree.single(arity), Tree.single(arity))
    for letter in word:
        g = gens[abs(letter) - 1]
        acc = pair_multiply(acc, g if letter > 0 else pair_inverse(g))
        acc = pair_reduce(acc)
    return acc


# --- slope-sign oracle: compare actual interval lengths as exact fractions

def interval_sign_oracle(pair):
    domain, codomain = pair
    n = domain.arity
    for k in range(1, domain.leaf_count + 1):
        dom = leaf_interval(domain, k)
        cod = leaf_interval(codomain, k)
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
    return tree_from_leaves(tree.arity, tuple(sorted(leaves)))


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
        Tree(2, (1,))  # not a complete cover
    with pytest.raises(TreeError):
        Tree(2, (0, 1, 1))  # root is a prefix of its children
    with pytest.raises(TreeError):
        Tree(1, (0,))


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


def mutate_depths(rng, n, depths):
    """One random edit of a tree's depths, which may or may not leave a tree."""
    depths = list(depths)
    i = rng.randrange(len(depths))
    kind = rng.randrange(8)
    if kind == 0 and len(depths) > 1:  # drop
        del depths[i]
    elif kind == 1:  # swap
        j = rng.randrange(len(depths))
        depths[i], depths[j] = depths[j], depths[i]
    elif kind == 2:  # duplicate
        depths.insert(i, depths[i])
    elif kind == 3:  # one shallower or one deeper
        depths[i] += rng.choice((-1, 1))
    elif kind == 4:  # merge n depths from i into one, a caret's removal when they are one
        depths[i : i + n] = [depths[i] - 1]
    elif kind == 5:  # insert a random depth
        depths.insert(i, rng.randint(-1, 6))
    elif kind == 6:  # attach a caret
        depths[i : i + 1] = [depths[i] + 1] * n
    else:  # re-sort
        depths.sort()
    return tuple(depths)


def test_tree_validation_matches_rules_oracle():
    # The oracle places each leaf by the successor rule and checks the four
    # address rules; a valid tree's derived leaves are the placed ones.
    rng = random.Random(48)
    verdicts = {True: 0, False: 0}
    for _ in range(6000):
        n = rng.choice((2, 3, 4))
        depths = mutate_depths(rng, n, random_tree(rng, n, rng.randint(0, 6)).depths)
        leaves = placed_leaves(n, depths)
        valid = bool(leaves) and tree_rules_oracle(n, leaves)
        verdicts[valid] += 1
        if valid:
            tree = Tree(n, depths)
            assert tree.depths == depths and tree.leaves == leaves
            assert tree_from_leaves(n, leaves) == tree
        else:
            with pytest.raises(TreeError):
                Tree(n, depths)
    assert min(verdicts.values()) >= 1000, verdicts


def test_leaves_match_replayed_attachments():
    # Tree.leaves is derived from the depths; replaying the attachments on
    # address lists alone gives the addresses independently.
    rng = random.Random(49)
    for _ in range(600):
        n = rng.choice((2, 3, 4))
        tree, script = Tree.single(n), []
        for _ in range(rng.randint(0, 12)):
            script.append(rng.randint(1, tree.leaf_count))
            tree = tree.attach(script[-1])
        leaves = replayed_leaves(n, script)
        assert tree.leaves == leaves and tree.depths == tuple(map(len, leaves))
        assert successor_rule_leaves(n, leaves) == leaves


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
            assert nodes(joined) <= nodes(tree)
        assert nodes(t1) <= nodes(joined) and nodes(t2) <= nodes(joined)


def test_expansion_script_rejects_non_expansion():
    with pytest.raises(ExpansionError):
        expansion_script(Tree.caret(2).attach(1), Tree.caret(2).attach(2))


# --- set-based and attach-chain oracles for the linear-time tree code

def expansion_script_oracle(tree, target):
    """Attach at the leftmost leaf that is an inner node of `target`, until equal."""
    if tree.arity != target.arity:
        raise ExpansionError("arity mismatch")
    target_nodes = nodes(target)
    if not nodes(tree) <= target_nodes:
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
    union = nodes(tree) | nodes(other)
    joined = tree_from_leaves(tree.arity, tuple(sorted(a for a in union if a + (0,) not in union)))
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
    return tree_from_leaves(tree.arity,
                            tree.leaves[: i - 1] + (parent,) + tree.leaves[i - 1 + tree.arity :])


def pair_reduce_oracle(f):
    """Cancel the leftmost matching caret window, then start again from window 1."""
    domain, codomain = f
    while True:
        for i in range(1, domain.leaf_count - domain.arity + 2):
            if caret_window_oracle(domain, i) and caret_window_oracle(codomain, i):
                domain, codomain = remove_caret(domain, i), remove_caret(codomain, i)
                break
        else:
            return domain, codomain


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
    return reduce_letters([x for i in reversed(removed) for x in xi_word_oracle(n, i)])


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
        assert fn_factorize((tree, comb)) == word
        assert fn_factorize((comb, tree)) == invert_letters(word)
        cancelled += pair_reduce((tree, comb))[0].leaf_count < tree.leaf_count
    assert cancelled > 200
    for n in (2, 3):
        for m in range(1, 12, n - 1):
            assert comb_conjugator_word(right_comb(n, m)) == ()


def test_elementary_pair_over_smallest_comb():
    for n in (2, 3, 4, 5):
        for i in range(1, 30):
            m = next(m for m in range(i + 1, 99) if m >= n and (m - 1) % (n - 1) == 0)
            comb = right_comb_oracle(n, m)
            assert _elementary_pair(n, i) == (comb.attach(i), comb.attach(m))


def xi_word_oracle(n, i):
    """The recursive definition: E(i) = g_i^-1 for i <= n, else g_1 E(i-n+1) g_1^-1, reduced."""
    return (-i,) if i <= n else reduce_letters((1,) + xi_word_oracle(n, i - n + 1) + (-1,))


def test_xi_word_matches_its_recursive_definition():
    for n in (2, 3, 4, 5):
        for i in range(1, 151):
            assert tp._xi_word(n, i) == xi_word_oracle(n, i)


XI_WORDS_DIGEST = "144c3a60877e63ff861497ad1561fea97f4d7bfb5292de9e527911c147cddba6"


def test_xi_words_evaluate_to_their_elementary_pairs(monkeypatch):
    # evaluate_brown_word is the oracle: each word multiplies out to its pair.
    monkeypatch.setattr(tp, "_XI_IDENTITIES", Memo(tp._XI_IDENTITIES.make))
    words = {f"{n},{i}": tp._xi_word(n, i) for n in (2, 3, 4) for i in range(1, 61)}
    for key, word in words.items():
        n, i = map(int, key.split(","))
        value = evaluate_brown_word(n, word)
        assert pair_is_identity(pair_multiply(value, pair_inverse(_elementary_pair(n, i))))
    digest = hashlib.sha256(json.dumps(words).encode()).hexdigest()
    assert digest == XI_WORDS_DIGEST


def test_xi_word_checks_a_new_instance_in_at_most_three_products(monkeypatch):
    # A cold read of E(200) checks each identity of its chain 200, 200-n+1,
    # ..., r <= n once: three pair products above n, one at the foot.  The
    # memo keeps every identity it checks, whatever the leaves of its pairs,
    # so a second read makes no product, and reads of E(1)..E(200) in
    # decreasing or in increasing order check each identity once.
    products = []

    def counting_multiply(f, g):
        products.append((f, g))
        return pair_multiply(f, g)

    def fresh():
        monkeypatch.setattr(tp, "_XI_IDENTITIES", Memo(tp._XI_IDENTITIES.make))
        return len(products)

    monkeypatch.setattr(tp, "pair_multiply", counting_multiply)
    indices = range(1, 201)
    for n, made in ((2, 595), (3, 298), (4, 199)):
        before = fresh()
        cold = tp._xi_word(n, 200)
        assert len(products) - before == made
        chain = range(200, 1, 1 - n)  # its foot r is 2 at these n
        assert set(tp._XI_IDENTITIES) == {(n, j) for j in chain}
        before = len(products)
        assert tp._xi_word(n, 200) == cold and len(products) == before
        for order in (indices[::-1], indices):
            before = fresh()
            assert all(tp._xi_word(n, i) for i in order)
            assert len(products) - before == sum(1 if i <= n else 3 for i in indices)
            assert set(tp._XI_IDENTITIES) == {(n, i) for i in indices}


def address_caret_top(stack, n):
    """
    caret_top by addresses: the parents of the top n entries of a stack of
    nodes (one address per tree in each entry) when in every tree they are
    one node's n children, else None.  If the n-th entry from last is pd and
    the last is p(n-1), then d = 0: the n-2 entries between cover
    p(d+1)..p(n-2), each 1 mod n-1 leaves.
    """
    if len(stack) < n:
        return None
    parents = []
    for first, last in zip(stack[-n], stack[-1]):
        parent = first[:-1]
        if last != parent + (n - 1,):
            return None
        parents.append(parent)
    return tuple(parents)


def test_caret_top_matches_caret_window_oracle():
    # Stacks of one tree, scanned as the pair (tree, tree), and of two trees
    # grown alike: push the leaves, merge the top while caret_top answers but
    # refuse a third of the merges, as reduce refuses some, and check every
    # answer against the windows of the trees the stack and the leaves still
    # to push make, and against the address rule.
    rng = random.Random(46)
    refused = 0
    for _ in range(600):
        n = rng.choice((2, 3, 4))
        carets = rng.randint(0, 10)
        trees = [random_tree(rng, n, carets) for _ in range(rng.choice((1, 2)))]
        for _ in range(rng.randint(0, 6)):
            i = rng.randint(1, trees[0].leaf_count)
            trees = [tree.attach(i) for tree in trees]
        t1, t2 = trees[0], trees[-1]
        rest = list(zip(range(t1.leaf_count), t1.depths, t2.depths))
        rest_leaves = list(zip(t1.leaves, t2.leaves))
        stack, firsts, addresses_stack = [], [], []
        while rest:
            stack.append(rest.pop(0))
            firsts.append(t1.leaf_count - len(rest) - 1)
            addresses_stack.append(rest_leaves.pop(0))
            while True:
                current = [tree_from_leaves(n, leaves)
                           for leaves in zip(*(addresses_stack + rest_leaves))]
                i = len(stack) - n + 1
                parents = expected = None
                if all(caret_window_oracle(tree, i) for tree in current):
                    parents = tuple(tree.leaves[i - 1][:-1] for tree in current)
                    expected = (firsts[-n], *map(len, parents))
                assert address_caret_top(addresses_stack, n) == parents
                parent = caret_top(stack, n, t1._starts, t2._starts)
                assert parent == expected
                if parent is None or rng.random() < 1 / 3:
                    refused += parent is not None
                    break
                stack[-n:], addresses_stack[-n:], firsts[-n:] = [parent], [parents], [firsts[-n]]
    assert refused > 300


def test_pair_reduce_matches_oracle():
    rng = random.Random(44)
    for _ in range(1500):
        n = rng.choice((2, 3, 4))
        domain, codomain = random_pair(rng, n, max_carets=rng.randint(0, 8))
        if rng.random() < 0.5:  # grow both trees alike so that carets cancel
            for _ in range(rng.randint(1, 4)):
                i = rng.randint(1, domain.leaf_count)
                domain, codomain = domain.attach(i), codomain.attach(i)
        assert pair_reduce((domain, codomain)) == pair_reduce_oracle((domain, codomain))
    for n in (2, 3, 4):  # long chains of merges: 40-60 carets grown alike
        for base in (random_pair(rng, n), (Tree.single(n), Tree.single(n))):
            domain, codomain = base
            for _ in range(rng.randint(40, 60)):
                i = rng.randint(1, domain.leaf_count)
                domain, codomain = domain.attach(i), codomain.attach(i)
            assert pair_reduce((domain, codomain)) == pair_reduce_oracle((domain, codomain))
            assert pair_reduce((domain, codomain))[0].leaf_count <= base[0].leaf_count


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
        assert fn_sign(tree, tree) == 0


def test_fn_sign_examples():
    caret = Tree.caret(2)
    assert fn_sign(caret.attach(1), caret.attach(2)) == 1
    assert fn_sign(caret.attach(2), caret.attach(1)) == -1


def test_fn_sign_refuses_trees_of_unlike_arity_or_size():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.choice((2, 3))
        domain, codomain = random_pair(rng, n)
        grown = codomain.attach(rng.randint(1, codomain.leaf_count))
        other = random_tree(rng, n + 1, (domain.leaf_count - 1) // (n - 1))
        for pair, message in (((domain, grown), "leaf count mismatch in tree pair"),
                              ((grown, domain), "leaf count mismatch in tree pair"),
                              ((domain, other), "arity mismatch in tree pair"),
                              ((other, domain), "arity mismatch in tree pair")):
            with pytest.raises(TreeError) as caught:
                fn_sign(*pair)
            assert str(caught.value) == message


def test_fn_sign_matches_interval_oracle():
    rng = random.Random(6)
    for _ in range(500):
        pair = random_pair(rng, rng.choice((2, 3)))
        assert fn_sign(*pair) == interval_sign_oracle(pair)


def test_fn_sign_trichotomy():
    rng = random.Random(7)
    for _ in range(500):
        pair = random_pair(rng, rng.choice((2, 3)))
        sign = fn_sign(*pair)
        assert sign == -fn_sign(*pair_inverse(pair))
        assert (sign == 0) == (pair[0] == pair[1])


def test_fn_sign_bi_invariant():
    rng = random.Random(8)
    checked = 0
    while checked < 500:
        n = rng.choice((2, 3))
        a, f, g = (random_pair(rng, n) for _ in range(3))
        if fn_sign(*pair_multiply(pair_inverse(f), g)) != 1:
            continue
        checked += 1
        left = pair_multiply(pair_inverse(pair_multiply(a, f)), pair_multiply(a, g))
        right = pair_multiply(pair_inverse(pair_multiply(f, a)), pair_multiply(g, a))
        assert fn_sign(*left) == 1
        assert fn_sign(*right) == 1


# --- pair algebra

def test_pair_multiply_trivial_join_case():
    # When the middle trees already agree no expansion happens at all.
    caret = Tree.caret(2)
    middle = caret.attach(2)
    f = (caret.attach(1), middle)
    g = (middle, caret.attach(1))
    result = pair_multiply(f, g)
    assert result == (caret.attach(1), caret.attach(1))
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
    assert pair_is_identity((caret, caret))
    assert not pair_is_identity((caret.attach(1), caret.attach(2)))
    rng = random.Random(47)
    for n in (2, 3, 4):
        tree = random_tree(rng, n, 5)
        for i in range(1, tree.leaf_count + 1):  # unreduced identities
            assert pair_is_identity((tree.attach(i), tree.attach(i)))
    for _ in range(300):
        pair = random_pair(rng, rng.choice((2, 3)))
        assert pair_is_identity(pair_multiply(pair, pair_inverse(pair)))
        for p in (pair, pair_multiply(pair, pair_inverse(pair)),
                  pair_multiply(pair, random_pair(rng, pair[0].arity))):
            reduced = pair_reduce(p)  # the reduce-then-compare rule
            assert pair_is_identity(p) == (reduced[0] == reduced[1])


def test_pair_reduce_cancels_matched_carets():
    caret = Tree.caret(2)
    pair = (caret.attach(1).attach(1), caret.attach(2).attach(1))
    reduced = pair_reduce(pair)
    assert reduced == (caret.attach(1), caret.attach(2))


# --- generating pairs and factorization

def test_brown_pairs_shapes():
    for n in (2, 3, 4):
        pairs = brown_generator_pairs(n)
        assert len(pairs) == n
        caret = Tree.caret(n)
        assert pairs[0] == (caret.attach(n), caret.attach(1))
        for pair in pairs:
            assert fn_sign(*pair) != 0
    pairs3 = brown_generator_pairs(3)
    base = Tree.caret(3).attach(3)
    assert pairs3[-1] == (base.attach(5), base.attach(3))


def test_fn_factorize_identity_and_generators():
    for n in (2, 3):
        assert fn_factorize((Tree.single(n), Tree.single(n))) == ()
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
    # The nested reader checks the arity as Tree does, before the nesting.
    pytest.param(lambda: tree_from_nested([[], []], True), "arity must be an int, got True",
                 id="tree_from_nested-bool arity"),
    pytest.param(lambda: tree_from_nested("*", 1), "arity must be >= 2, got 1",
                 id="tree_from_nested-arity 1"),
    (lambda: fn_sign(Tree.caret(2), Tree.caret(3)), "arity mismatch in tree pair"),
    (lambda: fn_sign(Tree.caret(2), Tree.caret(2).attach(1)), "leaf count mismatch in tree pair"),
    (lambda: pair_multiply((Tree.caret(2), Tree.caret(2)),
                           (Tree.caret(3), Tree.caret(3))), "arity mismatch"),
    # A tree pair of two leaf counts or arities is refused as fn_sign refuses it.
    pytest.param(lambda: pair_reduce((Tree.caret(2), Tree.caret(2).attach(1))),
                 "leaf count mismatch in tree pair", id="pair_reduce-leaf count"),
    pytest.param(lambda: fn_factorize((Tree.caret(2).attach(1),
                                       Tree.caret(2).attach(1).attach(1))),
                 "leaf count mismatch in tree pair", id="fn_factorize-leaf count"),
    pytest.param(lambda: pair_multiply((Tree.caret(3), Tree.caret(2)),
                                       (Tree.caret(2), Tree.caret(2))),
                 "arity mismatch in tree pair", id="pair_multiply-arity"),
    pytest.param(lambda: pair_multiply((Tree.caret(2), Tree.caret(2)),
                                       (Tree.caret(2), Tree.caret(2).attach(2))),
                 "leaf count mismatch in tree pair", id="pair_multiply-leaf count"),
])
def test_tree_checks_raise_tree_error(call, message):
    with pytest.raises(TreeError) as caught:
        call()
    assert type(caught.value) is TreeError and str(caught.value) == message


def test_tree_memory_grows_linearly_with_its_leaf_count():
    # A comb's leaf addresses hold the sum of its depths in digits: 34.5 MiB at
    # 3,000 leaves.  Its depths are 3,000 ints.
    tracemalloc.start()
    try:
        comb = right_comb(2, 3000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert comb.leaf_count == 3000 and peak < 1 << 20, peak


# --- the join and attach_script memos

MEMOS = (tr._JOINS, tr._ATTACHED)


@pytest.fixture
def cold_memos():
    for memo in MEMOS:
        memo.clear()
    yield
    for memo in MEMOS:
        memo.clear()


def memo_sizes():
    return tuple(map(len, MEMOS))


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
        assert scripts == tr._join((n, t1.depths, t2.depths))[0] == join_oracle(t1, t2)[1:]
        assert attached == tr._attach_script((n, t1.depths, script))[0]
        assert attached == tree_from_leaves(n, attached.leaves)
        cold.append((scripts, attached))
    assert min(memo_sizes()) > 0
    # Warm: equal trees built apart hit the memo and get the stored objects back.
    for (t1, t2, script), (scripts, attached) in zip(inputs, cold):
        u1, u2 = Tree(n, t1.depths), Tree(n, t2.depths)
        assert join(u1, u2) is scripts
        assert attach_script(u1, script) is attached
        assert joined_tree(u1, u2) == join_oracle(t1, t2)


def test_memo_keys_carry_the_arity(cold_memos):
    # The one-leaf trees of all arities have the same depths.
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

