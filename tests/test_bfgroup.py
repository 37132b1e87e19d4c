import copy
import dataclasses
import functools
import itertools
import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from bfcalc import bfgroup as bf
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
    random_element,
    random_pvb_element,
    reduce,
    to_json,
    trivial_context,
)
from bfcalc.braid import (AWord, BraidError, SigmaWord, a_to_sigma, braids_equal, comb,
                          delete_strand, is_trivial, split_a)
from bfcalc.freegroup import FreeWord, NCPolynomial, WordError, magnus_truncated, reduce_onto
from bfcalc import trees as tr
from bfcalc.trees import (Tree, TreeError, TreePair, attach_caret, expansion_script, fn_sign, join,
                          right_comb)

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


def test_label_to_braid():
    ctx = pn_context(2)
    assert label_to_braid((), ctx) == AWord(2, ())
    assert label_to_braid((1,), ctx) == AWord(2, ((1, 2, 1),))
    assert is_trivial(label_to_braid((1, -1), ctx))


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
    _, script_x, script_y = join(x.t2, y.t1)
    xe = functools.reduce(expand_oracle, script_x, x)
    ye = functools.reduce(expand_oracle, script_y, y)
    assert xe.t2 == ye.t1
    labels = tuple(tuple(reduce_onto(list(a), b)) for a, b in zip(xe.labels, ye.labels))
    return BFElement(x.context, xe.t1, xe.braid * ye.braid, labels, ye.t2)


def assert_same_fields(got, want):
    for field in dataclasses.fields(BFElement):
        assert getattr(got, field.name) == getattr(want, field.name), field.name


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


@pytest.mark.parametrize("ctx", ORACLE_CONTEXTS, ids=ORACLE_IDS)
def test_multiply_matches_caret_by_caret_oracle(ctx):
    rng = random.Random(60 + ctx.arity + len(ctx.generators))
    leaves, pairs = 4 * ctx.arity + 1, []
    for _ in range(80):
        x = draw(ctx, rng, leaves=leaves, braid=10, label=3)
        pairs += [(x, draw(ctx, rng, leaves=leaves, braid=10, label=3)), (x, inverse(x))]
    both_sides_multi = 0
    for x, y in pairs:
        _, script_x, script_y = join(x.t2, y.t1)
        both_sides_multi += len(script_x) > 1 and len(script_y) > 1
        assert_same_fields(multiply(x, y), multiply_oracle(x, y))
    assert both_sides_multi >= 5  # the inverse pairs cover equal middle trees


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
    script = tr.expansion_script

    def counted(*args):
        calls.append(args)
        return script(*args)

    monkeypatch.setattr(tr, "expansion_script", counted)
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
        middle, _, _ = join(x.t2, y.t1)
        xe, ye = expand_to(x, "right", middle), expand_to(y, "left", middle)
        assert (product.t1, product.braid, product.t2) == (xe.t1, xe.braid * ye.braid, ye.t2)


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


def test_context_mismatch_rejected():
    x = identity_element(trivial_context(2))
    y = identity_element(pn_context(2))
    with pytest.raises(ContextError):
        multiply(x, y)
    with pytest.raises(ContextError):
        equal(x, y)


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
            assert bf_sign(x) == fn_sign(TreePair(x.t1, x.t2))


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


def test_from_tree_pair():
    pair = TreePair(Tree.caret(2).attach(1), Tree.caret(2).attach(2))
    x = from_tree_pair(trivial_context(2), pair)
    assert x.t1 == pair.domain and x.t2 == pair.codomain
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
    return Tree(tree.arity, tuple(tuple(a) for a in tree.leaves))


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
    elif isinstance(value, NCPolynomial):
        rebuilt = NCPolynomial(value.rank, value.degree,
                               tuple((tuple(m), c) for m, c in value.terms))
    else:
        rebuilt = _rebuilt_element(value)
    assert rebuilt == value and hash(rebuilt) == hash(value)
    field = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
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
        joined, _, _ = join(x.t1, y.t2)
        _assert_public(joined)
        _assert_public(right_comb(n, x.leaf_count))
        for k in range(1, grown.leaf_count - n + 2):
            if grown.t1.caret_window(k):
                _assert_public(grown.t1.remove_caret(k))
        m = x.leaf_count
        inner = label_to_braid(x.labels[i - 1], ctx)
        _assert_public(split_a(x.braid, i, n, inner))
        if product.leaf_count > 1:
            _assert_public(delete_strand(product.braid, rng.randint(1, product.leaf_count)))
        _assert_public(x.braid * inverse(x).braid)
        for coord in comb(product.braid).coordinates:
            _assert_public(coord)
            _assert_public(magnus_truncated(coord, 3))
        _assert_public(a_to_sigma(product.braid))
        _assert_public(a_to_sigma(inverse(x).braid))


def _public_values():
    """One value of each class with a generated builder, built publicly."""
    ctx = pn_context(2)
    tree = Tree.caret(2).attach(2)
    return [
        tree,
        AWord(3, ((1, 2, 1), (2, 3, -1))),
        SigmaWord(3, (1, -2, 1)),
        FreeWord(2, (1, -2, 1)),
        NCPolynomial(2, 2, (((), 1), ((1,), 1), ((2, 1), -3))),
        BFElement(ctx, tree, AWord(3, ((1, 3, 1),)), ((1,), (), (-1, -1)), right_comb(2, 3)),
    ]


@pytest.mark.parametrize("value", _public_values(), ids=lambda v: type(v).__name__)
def test_generated_builder_matches_public_constructor(value):
    cls = type(value)
    fields = [getattr(value, f.name) for f in dataclasses.fields(cls)]
    built = cls._new(*fields)
    assert type(built) is cls and built == value and hash(built) == hash(value)
    assert [getattr(built, f.name) for f in dataclasses.fields(cls)] == fields
    assert not hasattr(built, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(built, dataclasses.fields(cls)[0].name, fields[0])
    for copied in (pickle.loads(pickle.dumps(built)), copy.deepcopy(built)):
        assert copied == value and hash(copied) == hash(value)


def test_public_constructors_reject_lists_floats_and_bools():
    c = trivial_context(2)
    caret = Tree(2, ((0,), (1,)))
    # A list, a float or a bool in a value is rejected with the class's typed error.
    with pytest.raises(TreeError):
        BFElement(c, Tree(2, [(0,), (1,)]), AWord.identity(2), ((), ()), caret)
    with pytest.raises(BraidError):
        AWord(2, [(1, 2, 1)])
    with pytest.raises(TreeError):
        Tree(2, ((0,), [1]))
    with pytest.raises(TreeError):
        Tree(2.0, ((0,), (1,))).attach(1)
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
    with pytest.raises(TreeError):
        TreePair("a", "b")
    for bad in ((2.0, 1, (((), 1),)), (2, 1, [((), 1)]), (2, 1, (([1], 1),)),
                (2, 1, (((), True),))):
        with pytest.raises(WordError):
            NCPolynomial(*bad)
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
