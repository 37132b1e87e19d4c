import collections
import copy
import functools
import hashlib
import itertools
import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from bfcalc import bfgroup as bf
from bfcalc import braid as br
from bfcalc.bfgroup import (
    BFElement,
    ContextError,
    ElementError,
    HContext,
    bf_sign,
    compare,
    equal,
    expand,
    from_json,
    from_tree_pair,
    identity_element,
    inverse,
    is_identity,
    label_to_braid,
    multiply,
    pn_context,
    pvb_sign,
    reduce,
    to_json,
    trivial_context,
)
from bfcalc.braid import (AWord, BraidError, SigmaWord, a_to_sigma, braids_equal,
                          delete_strand, is_trivial, kr_sign, linking_numbers, shift_embed,
                          split_a)
from bfcalc.combing import FreeWord, comb
from bfcalc.freegroup import MEMO_LEAVES, FrozenInstanceError, WordError, reduce_onto
from bfcalc.generators import (GeneratorSet, GeneratorSetError, PureGeneratorSpec, gen1_set,
                               gen3_set, random_element, random_pvb_element, random_tree)
from bfcalc import treepairs as tp
from bfcalc import trees as tr
from bfcalc.treepairs import expansion_script
from bfcalc.trees import Tree, TreeError, attach_caret, fn_sign, join, right_comb

CONTEXTS = [trivial_context(2), pn_context(2), trivial_context(3), pn_context(3)]


def draw(context, rng, leaves=7, braid=8, label=2):
    return random_element(context, rng, max_leaves=leaves,
                          max_braid_letters=braid, max_label_letters=label)


# --- contexts and labels

def test_context_validation():
    with pytest.raises(ContextError):
        HContext(1)
    with pytest.raises(ContextError):
        HContext(2, (("h", AWord(3, ())),))
    with pytest.raises(ContextError):
        HContext(2, (("h", AWord(2, ())), ("h", AWord(2, ()))))
    with pytest.raises(ContextError):
        HContext(2, ((5, AWord(2, ())),))
    # A generator word must be an AWord, not an integer or its bare letters.
    with pytest.raises(ContextError):
        HContext(2, (("a", 5),))
    with pytest.raises(ContextError):
        HContext(2, (("a", ((1, 2, 1),)),))


def test_pn_context_generators():
    ctx = pn_context(3)
    assert ctx.names == ("a1_2", "a1_3", "a2_3")
    assert ctx.generator_index("a2_3") == 3


def test_one_context_per_arity():
    # Equal contexts share their memos: a generating set's context is the one pn_context gives.
    for n in (2, 3):
        assert trivial_context(n) is trivial_context(n) and pn_context(n) is pn_context(n)
        assert gen3_set(n).context is pn_context(n) and gen1_set(n).context is trivial_context(n)
    with pytest.raises(ContextError):
        pn_context(2.0)


def test_label_to_braid():
    ctx = pn_context(2)
    assert label_to_braid((), ctx) == AWord(2, ())
    assert label_to_braid((1,), ctx) == AWord(2, ((1, 2, 1),))
    assert is_trivial(label_to_braid((1, -1), ctx))


@pytest.mark.parametrize("arity, label, message", [
    (2, (0,), "label letter 0 outside the context"),
    (2, (5,), "label letter 5 outside the context"),
    (3, (0,), "label letter 0 outside the context"),
    (3, (1, -4), "label letter -4 outside the context"),
    (2, (True,), "labels must be a tuple of tuples of ints"),
    (3, (1, True), "labels must be a tuple of tuples of ints"),
])
def test_label_readers_refuse_what_the_element_refuses(arity, label, message):
    ctx = copy.copy(pn_context(arity))  # empty memos: pn_context's own context is shared
    tree = Tree.single(arity)
    with pytest.raises(ElementError) as caught:
        BFElement(ctx, tree, AWord.identity(1), (label,), tree)
    assert str(caught.value) == message
    label_to_braid((1,), ctx)  # a table hit on an equal key must not admit a bool
    for read in (label_to_braid, bf.format_label):
        with pytest.raises(ElementError) as caught:
            read(label, ctx)
        assert type(caught.value) is ElementError and str(caught.value) == message
    assert list(ctx._labels) == [(1,)]  # nothing refused is stored


def label_braid_oracle(label, ctx):
    """One validated AWord per label letter, multiplied out left to right."""
    word = AWord.identity(ctx.arity)
    for letter in label:
        gen = ctx.generators[abs(letter) - 1][1]
        word = word * (gen if letter > 0 else gen.inverse())
    return word


def test_label_to_braid_matches_letterwise_product():
    rng = random.Random(8)
    two_letter = HContext(3, (("u", AWord(3, ((1, 2, 1), (2, 3, -1)))), ("v", AWord(3, ()))))
    for ctx in (pn_context(2), pn_context(3), pn_context(4), two_letter):
        k = len(ctx.generators)
        for _ in range(50):
            label = tuple(rng.choice((1, -1)) * rng.randint(1, k) for _ in range(rng.randint(0, 6)))
            word = label_to_braid(label, ctx)
            assert word == label_braid_oracle(label, ctx)
            assert AWord(word.strands, word.letters) == word


# --- the label table of a context

def seeded_labels(ctx, rng, count, longest=5):
    k = len(ctx.generators)
    return [tuple(rng.choice((1, -1)) * rng.randint(1, k) for _ in range(rng.randint(0, longest)))
            for _ in range(count)]


def equal_in_h(label, rng):
    """The label with a cancelling pair g g^-1 inserted: the same element of H."""
    g = rng.choice((1, -1)) * rng.randint(1, max(map(abs, label), default=1))
    at = rng.randint(0, len(label))
    return label[:at] + (g, -g) + label[at:]


@pytest.mark.parametrize("arity", [2, 3])
def test_label_table_matches_substitution_sign_and_braid_equality(arity):
    rng = random.Random(40 + arity)
    ctx = pn_context(arity)
    table = ctx._labels
    labels = seeded_labels(ctx, rng, 60)
    for label in labels:
        braid = label_braid_oracle(label, ctx)
        for _ in range(2):  # cold, then warm
            assert label_to_braid(label, ctx) == braid
            assert bf._label_sign(ctx, label) == kr_sign(braid)
        assert table[label][1] == kr_sign(braid)
    outcomes = set()
    for a, b in zip(labels, labels[1:] + [equal_in_h(l, rng) for l in labels]):
        for u, v in ((a, b), (a, equal_in_h(a, rng)), (b, equal_in_h(a, rng))):
            same = braids_equal(label_braid_oracle(u, ctx), label_braid_oracle(v, ctx))
            assert (bf._label_key(ctx, u) == bf._label_key(ctx, v)) is same
            assert bf._labels_oracle_equal(ctx, u, v) is same
            outcomes.add(same)
    assert outcomes == {True, False}
    if arity == 3:  # the full twist: its cyclic rotations are one element, no word reduces
        key = functools.partial(bf._label_key, ctx)
        assert key((1, 3, 2)) == key((2, 1, 3)) == key((3, 2, 1)) != key((1, 2, 3))


def test_pvb_sign_reads_the_label_table():
    ctx = pn_context(3)
    tree = Tree.caret(3)
    x = BFElement(ctx, tree, AWord(3, ((1, 2, -1),)), ((1, -1), (2, -3), ()), tree)
    assert pvb_sign(x) == kr_sign(label_braid_oracle((2, -3), ctx)) != 0
    assert ctx._labels[(2, -3)][1] == pvb_sign(x)  # stored by the first call


def test_filled_label_table_leaves_context_equality_hash_and_pickling():
    warm = pn_context(3)
    cold = HContext(3, warm.generators)
    shown, digest = repr(cold), hash(cold)
    rng = random.Random(3)
    for label in seeded_labels(warm, rng, 20):
        bf._label_sign(warm, label), bf._label_key(warm, label), warm._leaf_letters[label, 2]
        warm._products[label, label], warm._inverses[label]
    table = warm._labels
    assert len(table) + len(warm._leaf_letters) > 20 and warm._labels is table
    assert warm == cold and cold == warm and hash(warm) == digest and repr(warm) == shown
    assert HContext._fields == ("arity", "generators") and not hasattr(warm, "__dict__")
    for copied in (pickle.loads(pickle.dumps(warm)), copy.deepcopy(warm), copy.copy(warm)):
        assert copied == cold and hash(copied) == digest
        memos = (copied._labels, copied._leaf_letters, copied._products, copied._inverses)
        assert not any(memos) and copied._labels is not table
    x = draw(warm, random.Random(9))
    y = BFElement(cold, x.t1, x.braid, x.labels, x.t2)
    assert equal(x, y) and equal(y, x) and to_json(x) == to_json(y)


def test_label_product_and_inverse_memos_match_free_reduction():
    ctx = pn_context(3)
    products, inverses = ctx._products, ctx._inverses
    # Labels need not be reduced: an empty left label still reduces the right one.
    assert products[(), (1, -1)] == () and products[(2,), (-2, 1, -1)] == ()
    assert products[(1, 2), (-2, 3)] == (1, 3) and inverses[(1, -1)] == (1, -1)


def test_element_validation():
    ctx = trivial_context(2)
    caret = Tree.caret(2)
    with pytest.raises(ElementError):
        BFElement(ctx, caret, AWord(3, ()), ((), ()), caret)
    with pytest.raises(ElementError):
        BFElement(ctx, caret, AWord(2, ()), ((),), caret)
    with pytest.raises(ElementError):
        BFElement(ctx, caret, AWord(2, ()), ((1,), ()), caret)


# --- expansion

def test_expand_identity_representative():
    ctx = pn_context(2)
    x = identity_element(ctx, Tree.caret(2))
    grown = expand(x, 1)
    assert grown.t1 == grown.t2 == Tree.caret(2).attach(1)
    assert not grown.braid.letters
    assert all(not l for l in grown.labels)


def test_expand_is_the_defining_relation():
    rng = random.Random(0)
    for ctx in CONTEXTS:
        for _ in range(40):
            x = draw(ctx, rng)
            for i in range(1, x.leaf_count + 1):
                assert equal(x, expand(x, i))


def test_expand_splits_label_braid_in():
    # The pattern of the paper's expansion figure: a labeled strand splits
    # into a cable carrying the label's braid, with the label copied.
    ctx = pn_context(3)
    t1 = right_comb(3, 5)
    t2 = Tree.caret(3).attach(1)
    # braid with positive crossings on five strands, written over the pure
    # alphabet; the label on strand 4 carries its inverse block
    braid = _find_a_word_for(SigmaWord(5, (4, 4, 2, 1, 1, 2)), 5)
    label = (-_pn3_index("a1_2"),)
    labels = ((), (), (), label, ())
    x = BFElement(ctx, t1, braid, labels, t2)
    grown = expand(x, 4)
    assert grown.leaf_count == x.leaf_count + 3 - 1 == 7
    assert grown.braid.strands == 7
    assert grown.labels[3] == grown.labels[4] == grown.labels[5] == label
    # manual construction of the same expansion
    inner = label_to_braid(label, ctx)
    manual = BFElement(ctx, t1.attach(4), split_a(x.braid, 4, 3, inner),
                       x.labels[:3] + (label,) * 3 + x.labels[4:], t2.attach(4))
    assert grown == manual
    assert equal(x, grown)


def expand_oracle(x, i):
    """One expansion built from split_a, one caret on each tree, through the public constructor."""
    n = x.arity
    inner = label_braid_oracle(x.labels[i - 1], x.context)
    return BFElement(x.context, attach_caret(x.t1, i), split_a(x.braid, i, n, inner),
                     x.labels[: i - 1] + (x.labels[i - 1],) * n + x.labels[i:],
                     attach_caret(x.t2, i))


def multiply_oracle(x, y):
    """Composition expanding both factors one caret at a time along the join scripts."""
    script_x, script_y = join(x.t2, y.t1)
    xe = functools.reduce(expand_oracle, script_x, x)
    ye = functools.reduce(expand_oracle, script_y, y)
    assert xe.t2 == ye.t1
    labels = tuple(tuple(reduce_onto(list(a), b)) for a, b in zip(xe.labels, ye.labels))
    return BFElement(x.context, xe.t1, xe.braid * ye.braid, labels, ye.t2)


def assert_same_fields(got, want):
    for name in BFElement._fields:
        assert getattr(got, name) == getattr(want, name), name


ORACLE_CONTEXTS = [trivial_context(2), pn_context(2), trivial_context(3), pn_context(3),
                   trivial_context(4), pn_context(4)]
ORACLE_IDS = ["2-trivial", "2-pn", "3-trivial", "3-pn", "4-trivial", "4-pn"]


@pytest.mark.parametrize("ctx", ORACLE_CONTEXTS, ids=ORACLE_IDS)
def test_expand_matches_split_a_construction(ctx):
    rng = random.Random(50 + ctx.arity + len(ctx.generators))
    for _ in range(40):
        x = draw(ctx, rng, leaves=10, braid=10, label=3)
        i = rng.randint(1, x.leaf_count)
        assert_same_fields(expand(x, i), expand_oracle(x, i))
    for i in (0, x.leaf_count + 1):
        with pytest.raises(ElementError, match="out of range"):
            expand(x, i)


@pytest.mark.parametrize("index", [1.0, "1", True], ids=["float", "str", "bool"])
def test_expand_rejects_non_int_leaf_indices(index):
    x = identity_element(pn_context(2), Tree.caret(2))
    with pytest.raises(ElementError, match="out of range"):
        expand(x, index)


@pytest.mark.parametrize("ctx", ORACLE_CONTEXTS, ids=ORACLE_IDS)
def test_multiply_matches_caret_by_caret_oracle(ctx):
    rng = random.Random(60 + ctx.arity + len(ctx.generators))
    leaves, pairs = 4 * ctx.arity + 1, []
    for _ in range(80):
        x = draw(ctx, rng, leaves=leaves, braid=10, label=3)
        pairs += [(x, draw(ctx, rng, leaves=leaves, braid=10, label=3)), (x, inverse(x))]
    both_sides_multi = 0
    for x, y in pairs:
        script_x, script_y = join(x.t2, y.t1)
        both_sides_multi += len(script_x) > 1 and len(script_y) > 1
        assert_same_fields(multiply(x, y), multiply_oracle(x, y))
    assert both_sides_multi >= 5  # the inverse pairs cover equal middle trees


def inverse_oracle(x):
    """The inverse letter by letter: trees swapped, braid and labels reversed and inverted."""
    letters = tuple((i, j, -s) for i, j, s in reversed(x.braid.letters))
    labels = tuple(tuple(-g for g in reversed(l)) for l in x.labels)
    return BFElement(x.context, x.t2, AWord(x.leaf_count, letters), labels, x.t1)


@pytest.mark.parametrize("ctx", ORACLE_CONTEXTS, ids=ORACLE_IDS)
def test_inverse_matches_letter_by_letter_oracle(ctx):
    rng = random.Random(65 + ctx.arity + len(ctx.generators))
    for _ in range(60):
        x = draw(ctx, rng, leaves=10, braid=10, label=3)
        for y in (x, with_cancelling_pairs(x, rng)) if ctx.generators else (x,):
            for _ in range(2):  # cold, then warm
                assert_same_fields(inverse(y), inverse_oracle(y))
    if ctx.generators:
        tree = Tree.caret(ctx.arity)
        x = BFElement(ctx, tree, AWord(ctx.arity, ()), ((1, -1),) + ((),) * (ctx.arity - 1), tree)
        assert inverse(x).labels[0] == (1, -1)


def letter_free(x):
    """x with its braid letters dropped; its labels stay."""
    return BFElement(x.context, x.t1, AWord.identity(x.leaf_count), x.labels, x.t2)


@pytest.mark.parametrize("ctx", ORACLE_CONTEXTS, ids=ORACLE_IDS)
def test_multiply_by_letter_free_factors_matches_oracle(ctx):
    rng = random.Random(70 + ctx.arity + len(ctx.generators))
    reused_left = reused_right = 0
    for _ in range(60):
        x = draw(ctx, rng, leaves=4 * ctx.arity + 1, braid=10, label=3)
        free = letter_free(draw(ctx, rng, leaves=rng.choice((1, ctx.arity, 3 * ctx.arity)),
                                braid=0, label=rng.choice((0, 3))))
        for y in (free, letter_free(BFElement(ctx, x.t2, AWord.identity(x.leaf_count),
                                               x.labels, x.t1))):
            xy, yx = multiply(x, y), multiply(y, x)
            assert_same_fields(xy, multiply_oracle(x, y))
            assert_same_fields(yx, multiply_oracle(y, x))
            reused_left += xy.braid is x.braid
            reused_right += yx.braid is x.braid
    assert reused_left >= 20 and reused_right >= 20


def _pn3_index(name):
    return pn_context(3).generator_index(name)


def _find_a_word_for(sigma, strands):
    """Smallest product of up to three inverse pure letters equal to the word."""
    letters = [(i, j, -1) for i in range(1, strands) for j in range(i + 1, strands + 1)]
    for count in range(1, 4):
        for combo in itertools.product(letters, repeat=count):
            word = AWord(strands, combo)
            if braids_equal(word, sigma):
                return word
    raise AssertionError("no short pure word found")


def expand_to(x, side, target):
    """Expand until the chosen tree ("left" or "right") equals `target`."""
    tree = x.t1 if side == "left" else x.t2
    return functools.reduce(expand, expansion_script(tree, target), x)


def test_expand_to_reaches_target():
    rng = random.Random(1)
    ctx = pn_context(2)
    for _ in range(50):
        x = draw(ctx, rng, leaves=5)
        target = x.t2
        for _ in range(2):
            target = target.attach(rng.randint(1, target.leaf_count))
        grown = expand_to(x, "right", target)
        assert grown.t2 == target
        assert equal(grown, x)
        assert expand_to(x, "right", x.t2) == x


def test_expansion_order_independence():
    # Attaching two carets in either order gives the same representative.
    rng = random.Random(13)
    for ctx in CONTEXTS:
        n = ctx.arity
        for _ in range(25):
            x = draw(ctx, rng, leaves=5)
            if x.leaf_count < 2:
                continue
            p2 = rng.randint(2, x.leaf_count)
            p1 = rng.randint(1, p2 - 1)
            one_way = expand(expand(x, p1), p2 + n - 1)
            other_way = expand(expand(x, p2), p1)
            assert one_way.t1 == other_way.t1 and one_way.t2 == other_way.t2
            assert equal(one_way, other_way)


def test_expand_to_requires_expansion():
    ctx = trivial_context(2)
    x = identity_element(ctx, Tree.caret(2).attach(1))
    from bfcalc.trees import ExpansionError
    with pytest.raises(ExpansionError):
        expand_to(x, "left", Tree.caret(2).attach(2))


# --- composition

def test_multiply_identity():
    rng = random.Random(2)
    for ctx in CONTEXTS:
        one = identity_element(ctx)
        for _ in range(25):
            x = draw(ctx, rng)
            assert equal(multiply(x, one), x)
            assert equal(multiply(one, x), x)


def test_composition_needing_one_expansion_each_side():
    # Two arity-3 elements whose middle trees differ by one caret each
    # compose to a representative with 7 leaves.
    ctx = pn_context(3)
    caret = Tree.caret(3)
    x = identity_element(ctx, caret.attach(1))
    y = identity_element(ctx, caret.attach(3))
    product = multiply(x, y)
    assert product.leaf_count == 7
    assert is_identity(product)


def test_multiply_expands_along_the_join_scripts(monkeypatch):
    # join builds the two scripts inside its merge, or none when the middle
    # trees are equal; multiply never calls expansion_script.
    calls = []
    script = tp.expansion_script

    def counted(*args):
        calls.append(args)
        return script(*args)

    monkeypatch.setattr(tp, "expansion_script", counted)
    monkeypatch.setattr(bf, "expansion_script", counted, raising=False)
    ctx = pn_context(3)
    rng = random.Random(30)
    pairs = [(draw(ctx, rng, leaves=7, braid=4), draw(ctx, rng, leaves=7, braid=4))
             for _ in range(20)]
    x = draw(ctx, rng, leaves=7, braid=4)
    pairs.append((x, inverse(x)))  # equal middle trees
    for x, y in pairs:
        calls.clear()
        product = multiply(x, y)
        assert len(calls) == 0
        script_x, script_y = join(x.t2, y.t1)
        middle = tr.attach_script(x.t2, script_x)
        assert middle == tr.attach_script(y.t1, script_y)
        xe, ye = expand_to(x, "right", middle), expand_to(y, "left", middle)
        assert (product.t1, product.braid, product.t2) == (xe.t1, xe.braid * ye.braid, ye.t2)


def test_multiply_keeps_left_label_when_right_label_is_empty():
    # An empty right label leaves the left one as it is, unreduced; a
    # nonempty one is reduced onto it.
    ctx = pn_context(2)
    one = Tree.single(2)
    x = BFElement(ctx, one, AWord(1, ()), ((1, -1),), one)
    for right, label in (((), (1, -1)), ((1,), (1,)), ((-1,), (1, -1, -1))):
        y = BFElement(ctx, one, AWord(1, ()), (right,), one)
        assert multiply(x, y).labels == (label,)


def test_multiply_associative():
    rng = random.Random(3)
    for ctx in CONTEXTS:
        for _ in range(50):
            a, b, c = (draw(ctx, rng, leaves=5, braid=5) for _ in range(3))
            assert equal(multiply(multiply(a, b), c), multiply(a, multiply(b, c)))


def test_inverse_laws():
    rng = random.Random(4)
    for ctx in CONTEXTS:
        one = identity_element(ctx)
        assert equal(inverse(one), one)
        for _ in range(50):
            x = draw(ctx, rng)
            assert is_identity(multiply(x, inverse(x)))
            assert is_identity(multiply(inverse(x), x))
            assert inverse(inverse(x)) == x


def test_group_operations_pinned():
    # Products, inverses, expansions, reductions and equality answers,
    # letter for letter: a change to the group layer that keeps every
    # tree, braid letter and label keeps this digest.
    def fields(x):
        return x.t1.leaves, x.braid.letters, x.labels, x.t2.leaves

    entries = []
    for n in (2, 3, 4):
        for ctx in (trivial_context(n), pn_context(n)):
            rng = random.Random(80 + n)
            for _ in range(30):
                a, b = (random_element(ctx, rng, max_leaves=9, max_braid_letters=8,
                                       max_label_letters=3) for _ in range(2))
                i = rng.randint(1, a.leaf_count)
                ab = multiply(a, b)
                entries += [fields(ab), fields(inverse(a)), fields(expand(a, i)),
                            fields(reduce(ab)), equal(ab, multiply(expand(a, i), b)),
                            equal(ab, a), is_identity(multiply(a, inverse(a)))]
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()
    assert len(entries) == 1260
    assert digest == "8bfb5f9647f1cd69fa897a36a9d3100246dde89f2ab64ce5b3ffb5d0ef76ace7"


def pass_through_elements(ctx, rng):
    """
    Factors on the pass-through paths of multiply, inverse and is_identity:
    the identity over combs, the n generating tree pairs, equal-tree atoms
    over combs (one braid letter or one label letter) and label-free random
    elements.
    """
    n, k = ctx.arity, len(ctx.generators)
    combs = [right_comb(n, 1 + (n - 1) * c) for c in range(4)]
    out = [identity_element(ctx, comb) for comb in combs]
    out += [from_tree_pair(ctx, *pair) for pair in tp.brown_generator_pairs(n)]
    for comb in combs[1:]:
        m = comb.leaf_count
        i = rng.randint(1, m - 1)
        letter = (i, rng.randint(i + 1, m), rng.choice((1, -1)))
        out.append(BFElement(ctx, comb, AWord(m, (letter,)), ((),) * m, comb))
        if k:
            t = rng.randint(1, m)
            labels = tuple((rng.choice((1, -1)) * rng.randint(1, k),) if p == t else ()
                           for p in range(1, m + 1))
            out.append(BFElement(ctx, comb, AWord.identity(m), labels, comb))
    for _ in range(4):
        x = draw(ctx, rng, leaves=9, braid=6, label=0)
        out.append(BFElement(ctx, x.t1, x.braid, ((),) * x.leaf_count, x.t2))
    return out


def test_pass_through_products_pinned():
    # Products and inverses with pass-through factors, on both sides of
    # random elements and of each other, letter for letter; the digest was
    # taken before multiply, inverse and is_identity skipped any work.
    def fields(x):
        return x.t1.leaves, x.braid.letters, x.labels, x.t2.leaves

    entries = []
    for n in (2, 3, 4):
        for ctx in (trivial_context(n), pn_context(n)):
            rng = random.Random(90 + n)
            special = pass_through_elements(ctx, rng)
            others = special + [draw(ctx, rng, leaves=9, braid=6, label=3) for _ in range(6)]
            for a in special:
                entries += [fields(inverse(a)), is_identity(a)]
                for b in rng.sample(others, 6):
                    for product in (multiply(a, b), multiply(b, a)):
                        entries += [fields(product), fields(reduce(product)),
                                    is_identity(product)]
                        if a.t1 is a.t2 and b.t1 is b.t2:  # both trees are the join
                            assert product.t1 is product.t2
    digest = hashlib.sha256(repr(entries).encode()).hexdigest()
    assert len(entries) == 3534
    assert digest == "51147538c8ff0600d83dfa3aeba658c58506395ad510bbc17c9effb174d238bf"


def test_context_mismatch_rejected():
    x = identity_element(trivial_context(2))
    y = identity_element(pn_context(2))
    with pytest.raises(ContextError):
        multiply(x, y)
    for u, v in ((x, y), (y, x), (y, identity_element(pn_context(3)))):
        for decide in (equal, compare):
            with pytest.raises(ContextError):
                decide(u, v)
    # Contexts compare by value: equal contexts built apart are one context.
    assert equal(y, identity_element(pn_context(2)))
    assert compare(y, identity_element(pn_context(2))) == bf.EQUAL


# --- identity recognition and equality

def test_is_identity_examples():
    ctx = pn_context(2)
    tree = Tree.caret(2)
    assert is_identity(identity_element(ctx, tree))
    braided = BFElement(ctx, tree, AWord(2, ((1, 2, 1),)), ((), ()), tree)
    assert not is_identity(braided)
    labeled = BFElement(ctx, tree, AWord(2, ()), ((1,), ()), tree)
    assert not is_identity(labeled)
    cancelled = BFElement(ctx, tree, AWord(2, ()), ((1, -1), ()), tree)
    assert is_identity(cancelled)


def test_equal_reflexive_and_detects_difference():
    rng = random.Random(5)
    ctx = pn_context(2)
    nontrivial = BFElement(ctx, Tree.caret(2), AWord(2, ((1, 2, 1),)),
                           ((), ()), Tree.caret(2))
    for _ in range(50):
        x = draw(ctx, rng)
        assert equal(x, x)
        assert not equal(x, multiply(x, nontrivial))


def equal_by_product(x, y):
    """Equality as the identity test of x y^-1, the product built in full."""
    return is_identity(multiply(x, inverse(y)))


def with_cancelling_pairs(x, rng):
    """x with a cancelling pair k, -k inserted into every label."""
    k = len(x.context.generators)
    labels = []
    for label in x.labels:
        at, g = rng.randint(0, len(label)), rng.choice((1, -1)) * rng.randint(1, k)
        labels.append(label[:at] + (g, -g) + label[at:])
    return BFElement(x.context, x.t1, x.braid, tuple(labels), x.t2)


@pytest.mark.parametrize("ctx", ORACLE_CONTEXTS, ids=ORACLE_IDS)
def test_equal_matches_product_oracle(ctx):
    rng = random.Random(70 + ctx.arity + len(ctx.generators))
    pairs = []
    for _ in range(30):
        x = draw(ctx, rng, leaves=3 * ctx.arity, braid=6, label=2)
        g = draw(ctx, rng, leaves=3 * ctx.arity, braid=4, label=2)
        grown = x
        for _ in range(rng.randint(1, 2)):
            grown = expand(grown, rng.randint(1, grown.leaf_count))
        pairs += [(x, grown), (grown, x), (x, multiply(multiply(x, g), inverse(g))),
                  (x, multiply(x, g)), (x, draw(ctx, rng, leaves=3 * ctx.arity))]
        if ctx.generators:
            pairs += [(x, with_cancelling_pairs(x, rng)), (with_cancelling_pairs(grown, rng), x)]
    answers = [equal(x, y) for x, y in pairs]
    assert answers == [equal_by_product(x, y) for x, y in pairs]
    assert answers.count(True) >= 60 and answers.count(False) >= 10


def test_equal_labels_equal_only_in_h():
    # a1_2 and a3_4 commute in P_4, a1_2 and a2_3 do not.
    ctx = pn_context(4)
    a12, a23, a34 = (ctx.generator_index(name) for name in ("a1_2", "a2_3", "a3_4"))
    tree = Tree.caret(4)
    braid = AWord(4, ((1, 3, 1), (2, 4, -1)))

    def with_first_label(label):
        return BFElement(ctx, tree, braid, (label, (a23,), (), ()), tree)

    for a, b, same in (((a12, a34), (a34, a12), True), ((a12, a23), (a23, a12), False),
                       ((a12, -a12, a34), (a34,), True)):
        x, y = with_first_label(a), with_first_label(b)
        assert equal(x, y) == equal_by_product(x, y) == same
        grown = expand(y, 1)
        assert equal(x, grown) == equal_by_product(x, grown) == same


def test_equal_builds_no_product(monkeypatch):
    rng = random.Random(71)
    ctx = pn_context(3)
    pairs = []
    for _ in range(20):
        x = draw(ctx, rng, leaves=7, braid=5)
        pairs += [(x, expand(x, rng.randint(1, x.leaf_count))), (x, draw(ctx, rng, leaves=7))]
    expected = [equal_by_product(x, y) for x, y in pairs]

    def refuse(*args):
        raise AssertionError("equal built a product")

    monkeypatch.setattr(bf, "multiply", refuse)
    monkeypatch.setattr(bf, "inverse", refuse)
    assert [equal(x, y) for x, y in pairs] == expected


# --- reduction

def test_reduce_round_trip():
    rng = random.Random(6)
    for ctx in CONTEXTS:
        for _ in range(50):
            x = draw(ctx, rng, leaves=5)
            i = rng.randint(1, x.leaf_count)
            grown = expand(x, i)
            shrunk = reduce(grown)
            assert shrunk.leaf_count <= x.leaf_count
            assert equal(shrunk, x)


def test_reduce_identity_representative():
    ctx = pn_context(3)
    x = identity_element(ctx, Tree.caret(3).attach(2).attach(1))
    assert reduce(x) == identity_element(ctx)


def test_reduce_fixpoint_on_minimal():
    ctx = pn_context(2)
    tree = Tree.caret(2)
    x = BFElement(ctx, tree, AWord(2, ((1, 2, 1),)), ((), (1,)), tree)
    assert reduce(x) == x


def test_reduce_terminates_on_random_elements():
    rng = random.Random(7)
    ctx = pn_context(2)
    for _ in range(30):
        x = draw(ctx, rng, leaves=9, braid=10)
        y = reduce(x)
        assert equal(x, y)
        assert reduce(y).leaf_count == y.leaf_count


def remove_caret(tree, i):
    """The tree with leaves i..i+n-1 merged into their parent, or None if they are no caret."""
    n = tree.arity
    parent = tree.leaves[i - 1][:-1]
    if tree.leaves[i - 1 : i - 1 + n] != tuple(parent + (d,) for d in range(n)):
        return None
    return Tree(n, tree.depths[: i - 1] + (len(parent),) + tree.depths[i - 1 + n :])


def reduction_at(x, i):
    """
    Undo an expansion at leaf window i, or None: both trees need a caret over
    leaves i..i+n-1, the n labels there must agree in H, and re-expanding the
    smaller element must give the braid back.  The smaller braid divides out
    the window's label braid before deleting the window's strands but its
    first.
    """
    n = x.arity
    t1, t2 = remove_caret(x.t1, i), remove_caret(x.t2, i)
    window = x.labels[i - 1 : i - 1 + n]
    if t1 is None or t2 is None or any(not bf._labels_oracle_equal(x.context, window[0], l)
                                       for l in window[1:]):
        return None
    inner = label_to_braid(window[0], x.context)
    candidate = x.braid * shift_embed(inner, i, x.leaf_count).inverse()
    for _ in range(n - 1):
        candidate = delete_strand(candidate, i + 1)
    labels = x.labels[: i - 1] + (window[0],) + x.labels[i - 1 + n :]
    smaller = BFElement(x.context, t1, candidate, labels, t2)
    return smaller if braids_equal(x.braid, expand(smaller, i).braid) else None


def greedy_reduce(x):
    """Undo expansions leftmost first, rescanning from leaf 1 after each one."""
    n = x.arity
    changed = True
    while changed:
        changed = False
        for i in range(1, x.leaf_count - n + 2):
            smaller = reduction_at(x, i)
            if smaller is not None:
                x, changed = smaller, True
                break
    return x


def context_id(ctx):
    return f"{ctx.arity}-{'pn' if ctx.generators else 'trivial'}"


@pytest.mark.parametrize("ctx", CONTEXTS + [trivial_context(4), pn_context(4)], ids=context_id)
def test_reduce_matches_greedy_rescan_oracle(ctx):
    rng = random.Random(11 + ctx.arity)
    for _ in range(40):
        x = draw(ctx, rng, leaves=5, braid=6)
        for _ in range(rng.randint(0, 12)):
            x = expand(x, rng.randint(1, x.leaf_count))
        assert reduce(x) == greedy_reduce(x)
    # Long chains of merges: 40-60 expansions of a bare element, then a few
    # braid letters and one label that block the windows they touch (cabling
    # letters through that many expansions would grow the braid without bound).
    for _ in range(3):
        x = draw(ctx, rng, leaves=5, braid=0, label=0)
        for _ in range(rng.randint(40, 60)):
            x = expand(x, rng.randint(1, x.leaf_count))
        m, k = x.leaf_count, len(ctx.generators)
        letters = tuple((i, rng.randint(i + 1, m), rng.choice((1, -1)))
                        for i in rng.sample(range(1, m), 3))
        labels = list(x.labels)
        labels[rng.randrange(m)] = (rng.randint(1, k),) if k else ()
        x = BFElement(ctx, x.t1, AWord(m, letters), tuple(labels), x.t2)
        assert reduce(x) == greedy_reduce(x)


def cable_check(braid, i, n, inner):
    """The screen's answer and braids_equal's on the window i..i+n-1."""
    smaller = braid
    for _ in range(n - 1):
        smaller = delete_strand(smaller, i + 1)
    return (bf._links_like_cable(linking_numbers(braid), i, n, inner),
            braids_equal(braid, split_a(smaller, i, n, inner)))


@pytest.mark.parametrize("ctx", ORACLE_CONTEXTS, ids=ORACLE_IDS)
def test_linking_screen_rejects_only_what_braids_equal_rejects(ctx):
    # An expansion's window is a cable; one more braid letter touching it, or
    # a label braid with other linking numbers, is not.  The screen must pass
    # every window braids_equal accepts, here and at every window of random
    # braids.  greedy_reduce stays the oracle for what reduce returns.
    n, k = ctx.arity, len(ctx.generators)
    rng = random.Random(70 + n + k)
    for _ in range(30):
        x = draw(ctx, rng, leaves=7, braid=6, label=2)
        i = rng.randint(1, x.leaf_count)
        grown = expand(x, i)
        inner = label_to_braid(x.labels[i - 1], ctx)
        assert cable_check(grown.braid, i, n, inner) == (True, True)
        assert reduce(grown) == greedy_reduce(grown)
        m = grown.leaf_count
        w = rng.randint(i, i + n - 1)
        c = rng.choice([q for q in range(1, m + 1) if q != w])
        letter = (min(c, w), max(c, w), rng.choice((1, -1)))
        braided = AWord(m, grown.braid.letters + (letter,))
        assert cable_check(braided, i, n, inner) == (False, False)
        if k:
            other = label_to_braid(x.labels[i - 1] + (rng.randint(1, k),), ctx)
            assert cable_check(grown.braid, i, n, other) == (False, False)
        y = draw(ctx, rng, leaves=9, braid=8, label=2)
        for j in range(1, y.leaf_count - n + 2):
            screen, truth = cable_check(y.braid, j, n, label_to_braid(y.labels[j - 1], ctx))
            assert screen or not truth


# --- products of many factors

@pytest.mark.parametrize("ctx", CONTEXTS, ids=context_id)
def test_evaluate_product_matches_left_to_right_product(ctx):
    rng = random.Random(12)
    pool = [draw(ctx, rng, leaves=4, braid=4) for _ in range(3)]
    pool += [inverse(x) for x in pool]
    for length in (0, 1, 2, 3, 6, 9):
        factors = [rng.choice(pool) for _ in range(length)]
        product = bf.evaluate_product(factors, ctx)
        assert equal(product, functools.reduce(multiply, factors, identity_element(ctx)))
        assert product == greedy_reduce(product)
    assert bf.evaluate_product([], ctx) == identity_element(ctx)


# --- signs

def test_pvb_sign_examples():
    ctx = pn_context(2)
    tree = Tree.caret(2)
    assert pvb_sign(identity_element(ctx, tree)) == 0
    labeled = BFElement(ctx, tree, AWord(2, ()), ((1,), ()), tree)
    assert pvb_sign(labeled) == 1
    braided = BFElement(ctx, tree, AWord(2, ((1, 2, -1),)), ((), ()), tree)
    assert pvb_sign(braided) == -1
    with pytest.raises(ElementError):
        pvb_sign(BFElement(ctx, tree.attach(1), AWord(3, ()), ((),) * 3, tree.attach(2)))


def test_pvb_sign_skips_trivial_label_words():
    ctx = pn_context(2)
    tree = Tree.caret(2)
    x = BFElement(ctx, tree, AWord(2, ()), ((1, -1), (-1,)), tree)
    assert pvb_sign(x) == -1


def test_pvb_sign_stable_under_expansion():
    rng = random.Random(8)
    for n in (2, 3):
        ctx = pn_context(n)
        for _ in range(150):
            x = random_pvb_element(ctx, rng, max_leaves=7,
                                   max_braid_letters=6, max_label_letters=2)
            i = rng.randint(1, x.leaf_count)
            assert pvb_sign(expand(x, i)) == pvb_sign(x)


def test_bf_sign_tree_part_first():
    rng = random.Random(9)
    ctx = pn_context(2)
    for _ in range(100):
        x = draw(ctx, rng)
        if x.t1 != x.t2:
            assert bf_sign(x) == fn_sign(x.t1, x.t2)


def pvb_sign_oracle(x):
    """The sign of the first label nontrivial in H, else the strand braid's, from kr_sign."""
    for label in x.labels:
        if sign := kr_sign(label_braid_oracle(label, x.context)):
            return sign
    return kr_sign(x.braid)


def test_signs_of_equal_trees_that_are_distinct_objects():
    rng = random.Random(10)
    for ctx in CONTEXTS:
        for _ in range(60):
            x = random_pvb_element(ctx, rng, max_leaves=7, max_braid_letters=6,
                                   max_label_letters=2)
            twin = BFElement(ctx, x.t1, x.braid, x.labels, Tree(x.arity, x.t1.depths))
            assert x.t1 is x.t2 and twin.t1 is not twin.t2 and twin.t1 == twin.t2
            want = pvb_sign_oracle(x)
            assert pvb_sign(twin) == bf_sign(twin) == pvb_sign(x) == bf_sign(x) == want


def test_bf_sign_antisymmetric():
    rng = random.Random(10)
    for ctx in CONTEXTS:
        for _ in range(125):
            x = draw(ctx, rng)
            assert bf_sign(inverse(x)) == -bf_sign(x)


def test_compare_examples():
    ctx = pn_context(2)
    one = identity_element(ctx)
    tree = Tree.caret(2)
    positive = BFElement(ctx, tree, AWord(2, ()), ((1,), ()), tree)
    assert compare(one, one) == bf.EQUAL
    assert compare(one, positive) == bf.LESS
    assert compare(positive, one) == bf.GREATER


def compare_oracle(x, y):
    """The order as the sign of x^-1 y, the product built in full."""
    sign = bf_sign(multiply(inverse(x), y))
    return bf.LESS if sign > 0 else bf.GREATER if sign < 0 else bf.EQUAL


def deciding_layer(x, y):
    """The layer of the order that decides x against y, read off the full product x^-1 y."""
    p = multiply(inverse(x), y)
    if p.t1 != p.t2:
        return "trees"
    if any(kr_sign(label_to_braid(label, p.context)) for label in p.labels):
        return "labels"
    if linking_numbers(p.braid):
        return "linking"
    return "combed" if kr_sign(p.braid) else "equal"


def random_braid_letters(rng, m, count):
    for _ in range(count if m > 1 else 0):
        i = rng.randint(1, m - 1)
        yield i, rng.randint(i + 1, m), rng.choice((1, -1))


def commutator_element(ctx, rng, tree):
    """An element over one tree with trivial labels whose braid is a commutator: zero linking."""
    m = tree.leaf_count
    u, v = (AWord(m, tuple(random_braid_letters(rng, m, 3))) for _ in range(2))
    return BFElement(ctx, tree, u * v * u.inverse() * v.inverse(), ((),) * m, tree)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=ORACLE_IDS[:4])
def test_compare_matches_product_oracle_at_every_layer(ctx, monkeypatch):
    rng = random.Random(80 + ctx.arity + len(ctx.generators))
    pairs = []
    for k in range(20):
        leaves = 40 if k % 4 == 0 else 3 * ctx.arity  # past MEMO_LEAVES every fourth draw
        x = draw(ctx, rng, leaves=leaves, braid=6)
        h = random_pvb_element(ctx, rng, max_leaves=leaves, max_braid_letters=6,
                               max_label_letters=2)
        bare = random_pvb_element(ctx, rng, max_leaves=leaves, max_braid_letters=6,
                                  max_label_letters=0)
        # g c against g expanded: x.t1 expanded decides nothing, so c^-1 cabled once is combed.
        g = from_tree_pair(ctx, x.t1, x.t2)
        c, i = commutator_element(ctx, rng, x.t2), rng.randint(1, x.leaf_count)
        pairs += [(x, draw(ctx, rng, leaves=leaves)), (x, multiply(x, h)), (multiply(x, bare), x),
                  (multiply(g, c), expand(g, i)), (x, expand(x, i))]
    assert any(x.leaf_count > MEMO_LEAVES for x, _ in pairs)
    expected = [compare_oracle(x, y) for x, y in pairs]
    layers = collections.Counter(deciding_layer(x, y) for x, y in pairs)

    def refuse(*args):
        raise AssertionError("compare built a product")

    monkeypatch.setattr(bf, "multiply", refuse)
    monkeypatch.setattr(bf, "inverse", refuse)
    assert [compare(x, y) for x, y in pairs] == expected
    assert [compare(y, x) for x, y in pairs] == [-order for order in expected]
    want = ("trees", "linking", "combed", "equal") + (("labels",) if ctx.generators else ())
    assert all(layers[layer] >= 3 for layer in want), layers


def draw_past_bound(ctx, rng, equal_trees=False):
    """An element of 33-48 leaves: every strand count past MEMO_LEAVES."""
    n = ctx.arity
    carets = rng.randint(-(-MEMO_LEAVES // (n - 1)), (MEMO_LEAVES + 15) // (n - 1))
    t1 = random_tree(rng, n, carets)
    t2 = t1 if equal_trees else random_tree(rng, n, carets)
    m, k = t1.leaf_count, len(ctx.generators)
    labels = tuple(tuple(rng.choice((1, -1)) * rng.randint(1, k)
                         for _ in range(rng.randint(0, 2) if k else 0)) for _ in range(m))
    return BFElement(ctx, t1, AWord(m, tuple(random_braid_letters(rng, m, 8))), labels, t2)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=ORACLE_IDS[:4])
def test_group_laws_past_the_memo_bound(ctx):
    rng = random.Random(90 + ctx.arity + len(ctx.generators))
    xs = [draw_past_bound(ctx, rng, equal_trees=k % 3 == 0) for k in range(15)]
    assert all(MEMO_LEAVES < x.leaf_count <= MEMO_LEAVES + 16 for x in xs)
    for a, b, c in zip(xs, xs[1:], xs[2:]):
        assert equal(multiply(multiply(a, b), c), multiply(a, multiply(b, c)))
        assert is_identity(multiply(a, inverse(a))) and is_identity(multiply(inverse(a), a))
        assert equal(reduce(a), a)
        assert bf_sign(inverse(a)) == -bf_sign(a)
        assert bf_sign(multiply(multiply(b, a), inverse(b))) == bf_sign(a)
        assert compare(a, c) == -compare(c, a)


def with_first_label_times_generator(x):
    """x with its first label multiplied on the right by H's first generator."""
    return BFElement(x.context, x.t1, x.braid, (x.labels[0] + (1,),) + x.labels[1:], x.t2)


@pytest.mark.parametrize("ctx", CONTEXTS, ids=ORACLE_IDS[:4])
def test_equal_and_compare_cable_only_when_trees_and_labels_tie(ctx, monkeypatch):
    rng = random.Random(100 + ctx.arity + len(ctx.generators))
    pairs = []
    for k in range(16):
        if k % 4 == 0:  # past MEMO_LEAVES every fourth draw
            x, other = draw_past_bound(ctx, rng), draw_past_bound(ctx, rng)
        else:
            x, other = (draw(ctx, rng, leaves=3 * ctx.arity, braid=6) for _ in range(2))
        pairs.append((x, other))
        if ctx.generators:  # the labels differ in H at one strand, also along a longer join
            y = with_first_label_times_generator(x)
            pairs += [(x, y), (expand(y, rng.randint(1, y.leaf_count)), x)]
    layers = [deciding_layer(x, y) for x, y in pairs]
    pairs = [pair for pair, layer in zip(pairs, layers) if layer in ("trees", "labels")]
    assert layers.count("trees") >= 10 and layers.count("labels") >= (24 if ctx.generators else 0)
    assert sum(x.leaf_count > MEMO_LEAVES for x, _ in pairs) >= 4
    expected = [(equal_by_product(x, y), compare_oracle(x, y)) for x, y in pairs]
    # x^-1 y is decided by the layer that decides the pair: the single reads stop there too.
    singles = [multiply(inverse(x), y) for x, y in pairs]
    signs = [fn_sign(p.t1, p.t2) if p.t1 != p.t2 else pvb_sign_oracle(p) for p in singles]
    single_expected = [(sign, sign if p.t1 == p.t2 else None, False)
                       for p, sign in zip(singles, signs)]

    def single_reads(p):
        return bf_sign(p), pvb_sign(p) if p.t1 == p.t2 else None, is_identity(p)

    # The first reads fill the labels' signs, kept in the context's label table.
    assert [single_reads(p) for p in singles] == single_expected

    def refuse(*args):
        raise AssertionError("cabled although the trees or labels decide")

    monkeypatch.setattr(bf, "_expanded", refuse)
    assert [(equal(x, y), compare(x, y)) for x, y in pairs] == expected
    monkeypatch.setattr(br, "kr_sign", refuse)
    monkeypatch.setattr(bf, "is_trivial", refuse)
    assert [single_reads(p) for p in singles] == single_expected


@pytest.mark.parametrize("ctx", CONTEXTS, ids=ORACLE_IDS[:4])
def test_single_and_pair_reads_agree(ctx):
    rng = random.Random(110 + ctx.arity + len(ctx.generators))
    xs = []
    for k in range(16):
        if k % 4 == 0:  # past MEMO_LEAVES every fourth draw
            x, h = draw_past_bound(ctx, rng), draw_past_bound(ctx, rng, equal_trees=True)
        else:
            x = draw(ctx, rng, leaves=3 * ctx.arity, braid=6)
            h = random_pvb_element(ctx, rng, max_leaves=3 * ctx.arity, max_braid_letters=6,
                                   max_label_letters=2)
        bare = BFElement(ctx, h.t1, h.braid, ((),) * h.leaf_count, h.t1)
        # x decides by its trees, h by a label or its braid, bare by its braid, x x^-1 by
        # nothing, and a commutator with trivial labels by its combed braid.
        xs += [x, h, bare, multiply(x, inverse(x)), commutator_element(ctx, rng, x.t1)]
    assert sum(x.leaf_count > MEMO_LEAVES for x in xs) >= 4
    layers = collections.Counter(deciding_layer(identity_element(ctx, x.t1), x) for x in xs)
    want = ("trees", "linking", "combed", "equal") + (("labels",) if ctx.generators else ())
    assert all(layers[layer] >= 3 for layer in want), layers
    for x in xs:
        one = identity_element(ctx, x.t1)
        assert compare(one, x) == -bf_sign(x)
        assert equal(one, x) is is_identity(x)


# --- random elements

def test_random_element_deterministic():
    ctx = pn_context(3)
    assert random_element(ctx, 99) == random_element(ctx, 99)


def test_random_element_respects_bounds():
    ctx = pn_context(2)
    rng = random.Random(11)
    for _ in range(1000):
        x = random_element(ctx, rng, max_leaves=9, max_braid_letters=16,
                           max_label_letters=4)
        assert x.leaf_count <= 9
        assert (x.leaf_count - 1) % (ctx.arity - 1) == 0
        assert len(x.braid.letters) <= 16
        assert all(len(l) <= 4 for l in x.labels)


# --- serialization

def test_json_round_trip_bit_exact():
    rng = random.Random(12)
    for ctx in CONTEXTS:
        for _ in range(25):
            x = draw(ctx, rng)
            text = to_json(x)
            y = from_json(text)
            assert y == x
            assert to_json(y) == text


def test_json_rejects_malformed():
    with pytest.raises(ElementError):
        from_json("not json")
    with pytest.raises(ElementError):
        from_json("{}")
    with pytest.raises(ElementError):
        from_json('{"arity":1' + "0" * 5000 + "}")  # over the int digit limit


GOOD_DOCUMENT = {"arity": 2, "hgens": [["h", [[1, 2, 1]]]], "braid": [[1, 2, -1]],
                 "labels": [[1], [-1]], "t1": [[], []], "t2": [[], []]}


@pytest.mark.parametrize("changes", [
    # int() used to read this one as arity 2 and the letter A[1,2].
    {"arity": 2.9, "braid": [[1, 2, True]], "hgens": [], "labels": [[], []]},
    {"arity": 2.0}, {"arity": True},
    {"braid": [[1.0, 2, 1]]},
    {"hgens": [["h", [[1, 2, 1.5]]]]}, {"hgens": [["h", [[True, 2, 1]]]]},
    {"hgens": [[5, [[1, 2, 1]]]]}, {"hgens": [[True, [[1, 2, 1]]]]},
    {"labels": [[1.0], [-1]]}, {"labels": [[True], [-1]]},
])
def test_json_rejects_non_integers_and_non_string_names(changes):
    assert from_json(json.dumps(GOOD_DOCUMENT)).leaf_count == 2
    with pytest.raises(ElementError):
        from_json(json.dumps({**GOOD_DOCUMENT, **changes}))


@pytest.mark.parametrize("name", ["x y", "1", "x^-1", "h,1", "h]", ""])
def test_names_the_grammar_cannot_print_are_refused(name):
    # format_element would print the label of "x y" as "[ x y, 1 ]", which reads back as two names.
    with pytest.raises(ContextError) as caught:
        HContext(2, ((name, AWord(2, ((1, 2, 1),))),))
    assert str(caught.value) == f"bad or duplicate generator name {name!r}"
    document = json.dumps({**GOOD_DOCUMENT, "hgens": [[name, [[1, 2, 1]]]]})
    with pytest.raises(ElementError) as caught:
        from_json(document)
    assert str(caught.value) == (
        f"malformed element document: bad or duplicate generator name {name!r}")
    assert HContext(2, (("a=b", AWord(2, ())), ("x^2", AWord(2, ())))).names == ("a=b", "x^2")


FUZZ_DOCUMENTS = [to_json(draw(ctx, random.Random(seed), leaves=5, braid=3))
                  for seed, ctx in enumerate(CONTEXTS)]
JSON_PIECES = list('[]{},:"0123456789-.eE ') + [
    "Infinity", "1e999", "NaN", "null", "true", "[]", "{}", '"x"', "-1", "2.5"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12)


@st.composite
def element_documents(draw_):
    text = draw_(st.sampled_from(FUZZ_DOCUMENTS))
    how = draw_(st.sampled_from(("field", "text", "random")))
    if how == "field":
        doc = json.loads(text)
        key = draw_(st.sampled_from(sorted(doc)))
        if draw_(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw_(json_values)
        return json.dumps(doc)
    if how == "text":
        chars = list(text)
        for _ in range(draw_(st.integers(1, 3))):
            position = draw_(st.integers(0, len(chars) - 1))
            chars[position] = draw_(st.sampled_from(JSON_PIECES))
        return "".join(chars)
    return json.dumps(draw_(json_values))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(element_documents())
def test_fuzz_from_json_returns_an_element_or_element_error(text):
    try:
        x = from_json(text)
    except ElementError:
        return
    assert isinstance(x, BFElement)


@pytest.mark.parametrize("args", [(None,), ("x",), (pn_context(2), "tree")],
                         ids=["no context", "str context", "str tree"])
def test_identity_element_refuses_what_from_tree_pair_refuses(args):
    with pytest.raises(ElementError) as caught:
        identity_element(*args)
    assert type(caught.value) is ElementError
    context, tree = (args + (None,))[:2]
    with pytest.raises(ElementError):
        from_tree_pair(context, tree, tree)


def test_from_tree_pair():
    domain, codomain = Tree.caret(2).attach(1), Tree.caret(2).attach(2)
    x = from_tree_pair(trivial_context(2), domain, codomain)
    assert x.t1 == domain and x.t2 == codomain
    assert not x.braid.letters


def test_json_rejects_deep_nesting():
    deep = "[" * 3000 + "]" * 3000
    doc = ('{"arity":2,"braid":[],"hgens":[],"labels":[[]],"t1":' + deep
           + ',"t2":[]}')
    with pytest.raises(ElementError):
        from_json(doc)
    with pytest.raises(ElementError):
        from_json(deep)


def test_to_json_writes_deep_trees():
    depth = 1200
    tree = Tree.single(2)
    for _ in range(depth):
        tree = tree.attach(1)
    m = tree.leaf_count
    x = BFElement(trivial_context(2), tree, AWord.identity(m), ((),) * m, tree)
    comb_text = "[" * depth + "[]" + ",[]]" * depth
    assert to_json(x) == ('{"arity":2,"braid":[],"hgens":[],"labels":['
                          + ",".join(["[]"] * m) + '],"t1":' + comb_text
                          + ',"t2":' + comb_text + "}")


# --- values built on the trusted path are valid

def _rebuilt_tree(tree):
    return Tree(tree.arity, tuple(list(tree.depths)))


def _rebuilt_aword(word):
    return AWord(word.strands, tuple(tuple(l) for l in word.letters))


def _rebuilt_element(x):
    return BFElement(x.context, _rebuilt_tree(x.t1), _rebuilt_aword(x.braid),
                     tuple(tuple(l) for l in x.labels), _rebuilt_tree(x.t2))


def _assert_public(value):
    """
    Rebuilding through the public constructor neither raises nor changes it,
    and the value stays frozen.
    """
    if isinstance(value, Tree):
        rebuilt = _rebuilt_tree(value)
    elif isinstance(value, AWord):
        rebuilt = _rebuilt_aword(value)
    elif isinstance(value, FreeWord):
        rebuilt = FreeWord(value.rank, tuple(value.letters))
    elif isinstance(value, SigmaWord):
        rebuilt = SigmaWord(value.strands, tuple(value.letters))
    else:
        rebuilt = _rebuilt_element(value)
    assert rebuilt == value and hash(rebuilt) == hash(value)
    field = type(value)._fields[0]
    with pytest.raises(FrozenInstanceError):
        setattr(value, field, getattr(value, field))


@pytest.mark.parametrize("ctx", CONTEXTS, ids=["2-trivial", "2-pn", "3-trivial", "3-pn"])
def test_trusted_results_pass_public_constructors(ctx):
    rng = random.Random(20 + ctx.arity + len(ctx.generators))
    n = ctx.arity
    for _ in range(25):
        x, y = draw(ctx, rng, leaves=5, braid=5), draw(ctx, rng, leaves=5, braid=5)
        i = rng.randint(1, x.leaf_count)
        grown = expand(x, i)
        product = multiply(x, y)
        for value in (grown, product, inverse(x), reduce(grown), reduce(product)):
            _assert_public(value)
        s1, s2 = join(x.t1, y.t2)
        joined = tr.attach_script(x.t1, s1)
        assert joined == tr.attach_script(y.t2, s2)
        _assert_public(joined)
        _assert_public(right_comb(n, x.leaf_count))
        for pair in ((grown.t1, grown.t2), (product.t1, product.t2)):
            domain, codomain = tp.pair_reduce(pair)
            _assert_public(domain)
            _assert_public(codomain)
        m = x.leaf_count
        inner = label_to_braid(x.labels[i - 1], ctx)
        _assert_public(split_a(x.braid, i, n, inner))
        if product.leaf_count > 1:
            _assert_public(delete_strand(product.braid, rng.randint(1, product.leaf_count)))
        _assert_public(x.braid * inverse(x).braid)
        for coord in comb(product.braid):
            _assert_public(coord)
        _assert_public(a_to_sigma(product.braid))
        _assert_public(a_to_sigma(inverse(x).braid))


_TREE = "Tree(arity=2, depths=(1, 2, 2))"
_PN2 = "HContext(arity=2, generators=(('a1_2', AWord(strands=2, letters=((1, 2, 1),))),))"
_ELEMENT = (f"BFElement(context={_PN2}, t1={_TREE}, braid=AWord(strands=3, letters=((1, 3, 1),)), "
            f"labels=((1,), (), (-1, -1)), t2={_TREE})")


def _value_contracts():
    """
    One value of each value class, built publicly, with its repr as
    dataclasses printed it, fields its public constructor rejects, and the
    error it raises for them.
    """
    ctx = pn_context(2)
    tree = Tree.caret(2).attach(2)
    element = BFElement(ctx, tree, AWord(3, ((1, 3, 1),)), ((1,), (), (-1, -1)), right_comb(2, 3))
    return [
        (tree, _TREE, (2, ()), TreeError),
        (AWord(3, ((1, 2, 1), (2, 3, -1))), "AWord(strands=3, letters=((1, 2, 1), (2, 3, -1)))",
         (3, ((1, 4, 1),)), BraidError),
        (SigmaWord(3, (1, -2, 1)), "SigmaWord(strands=3, letters=(1, -2, 1))", (3, (3,)),
         BraidError),
        (FreeWord(2, (1, -2, 1)), "FreeWord(rank=2, letters=(1, -2, 1))", (2, (1, -1)), WordError),
        (element, _ELEMENT, (ctx, tree, AWord(2, ()), ((), ()), tree), ElementError),
        (ctx, _PN2, (1, ()), ContextError),
        (PureGeneratorSpec(5, 2, 4), "PureGeneratorSpec(strands=5, i=2, j=4)", (3, 2, 1),
         GeneratorSetError),
        (GeneratorSet(ctx, (("x", element),)),
         f"GeneratorSet(context={_PN2}, members=(('x', {_ELEMENT}),))",
         (ctx, (("x", element), ("x", element))), GeneratorSetError),
    ]


def _public_values():
    """One value of each class with a generated builder, built publicly."""
    return [value for value, *_ in _value_contracts()]


@pytest.mark.parametrize("value", _public_values(), ids=lambda v: type(v).__name__)
def test_generated_builder_matches_public_constructor(value):
    cls = type(value)
    fields = [getattr(value, name) for name in cls._fields]
    built = cls._new(*fields)
    assert type(built) is cls and built == value and hash(built) == hash(value)
    assert [getattr(built, name) for name in cls._fields] == fields
    assert not hasattr(built, "__dict__")
    with pytest.raises(FrozenInstanceError):
        setattr(built, cls._fields[0], fields[0])
    for copied in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built)):
        assert copied == value and hash(copied) == hash(value)
    if cls is HContext:  # _new makes the context's own empty memos, as __init__ does
        assert built._labels is not value._labels and not built._labels
        tree = Tree.caret(2).attach(2)
        x = BFElement._new(built, tree, AWord(3, ((1, 3, 1),)), ((1,), (), (-1, -1)), tree)
        assert bf.equal(bf.multiply(x, bf.inverse(x)), bf.identity_element(built))
        assert bf.pvb_sign(x) == bf.pvb_sign(BFElement(value, tree, x.braid, x.labels, tree))


@pytest.mark.parametrize("value, shown, bad, error", _value_contracts(),
                         ids=[type(c[0]).__name__ for c in _value_contracts()])
def test_value_class_contract(value, shown, bad, error):
    cls = type(value)
    fields = tuple(getattr(value, name) for name in cls._fields)
    assert repr(value) == shown
    by_keyword = cls(**dict(zip(cls._fields, fields)))
    assert by_keyword is not value and by_keyword == value and hash(by_keyword) == hash(value)
    assert value.__eq__(fields) is NotImplemented and value != fields
    # Every attribute is frozen, fields or not, and there is no __dict__.
    for name in (*cls._fields, "other"):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, fields[0])
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in cls._fields) == fields
    assert not hasattr(value, "__dict__")
    # Validation runs in __init__ and not in _new; copies go through the
    # public class, so copying an unchecked value raises the class's error.
    with pytest.raises(error):
        cls(*bad)
    unchecked = cls._new(*bad)
    assert type(unchecked) is cls
    assert tuple(getattr(unchecked, name) for name in cls._fields) == bad
    assert unchecked != value and unchecked == cls._new(*bad)
    for copier in (lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy):
        with pytest.raises(error):
            copier(unchecked)
        copied = copier(value)
        assert type(copied) is cls and copied == value and copied is not value


def test_hcontext_default_generators():
    assert HContext._fields == ("arity", "generators")
    assert HContext(2).generators == () and HContext(arity=3).generators == ()
    assert HContext(2) == HContext(2, ()) == HContext._new(2, ())
    assert hash(HContext(2)) == hash(HContext(arity=2, generators=()))
    assert repr(HContext(3)) == "HContext(arity=3, generators=())"
    with pytest.raises(ContextError):
        HContext(arity=1)


def test_warm_engine_leaves_generator_set_equality_and_hash():
    cold, warm = gen1_set(2), gen1_set(2)
    shown, digest = repr(cold), hash(cold)
    engine = warm._engine
    warm._engine.decompose(random_element(warm.context, 5, max_leaves=5))
    assert warm._engine is engine
    assert warm == cold and cold == warm and hash(warm) == digest and repr(warm) == shown
    assert GeneratorSet._fields == ("context", "members") and not hasattr(warm, "__dict__")
    for copied in (pickle.loads(pickle.dumps(warm)), copy.deepcopy(warm)):
        assert copied == cold and hash(copied) == digest and copied._engine is not engine


def test_public_constructors_reject_lists_floats_and_bools():
    c = trivial_context(2)
    caret = Tree(2, (1, 1))
    # A list, a float or a bool in a value is rejected with the class's typed error.
    with pytest.raises(TreeError):
        BFElement(c, Tree(2, [1, 1]), AWord.identity(2), ((), ()), caret)
    with pytest.raises(BraidError):
        AWord(2, [(1, 2, 1)])
    with pytest.raises(TreeError):
        Tree(2, (1, [1]))
    with pytest.raises(TreeError):
        Tree(2.0, (1, 1)).attach(1)
    with pytest.raises(BraidError):
        braids_equal(AWord(3, ((1.0, 2.0, 1), (1, 3, 1))), AWord(3, ((1, 3, 1),)))
    with pytest.raises(BraidError):
        AWord(2, ((1, 2, True),))
    with pytest.raises(BraidError):
        SigmaWord(3, [1, 2])
    with pytest.raises(BraidError):
        SigmaWord(3.0, (1,))
    with pytest.raises(WordError):
        FreeWord(2, [1])
    with pytest.raises(WordError):
        FreeWord(2, (True,))
    with pytest.raises(ElementError):
        from_tree_pair(c, "a", "b")
    with pytest.raises(TreeError):
        right_comb(2.0, 3)
    for labels in ([(), ()], ((), [1]), ((), (1.0,))):
        with pytest.raises(ElementError):
            BFElement(pn_context(2), caret, AWord.identity(2), labels, caret)
    with pytest.raises(ElementError):
        BFElement(c, caret, ((1, 2, 1),), ((), ()), caret)
    for bad in ((2.0, ()), (2, [("a", AWord(2, ()))]), (2, (["a", AWord(2, ())],))):
        with pytest.raises(ContextError):
            HContext(*bad)


@pytest.mark.parametrize("call, message", [
    (lambda: BFElement(trivial_context(2), Tree.caret(3), AWord.identity(3), ((),) * 3,
                       Tree.caret(3)), "tree arity does not match the context"),
    (lambda: BFElement(trivial_context(2), Tree.caret(2), AWord.identity(2), ((),) * 2,
                       Tree.caret(2).attach(1)), "leaf counts of the two trees differ"),
])
def test_element_checks_raise_element_error(call, message):
    with pytest.raises(ElementError) as caught:
        call()
    assert type(caught.value) is ElementError and str(caught.value) == message
