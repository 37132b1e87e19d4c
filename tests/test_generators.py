import hashlib
import random
import threading
import traceback
from collections import Counter

import pytest

from bfcalc import bfgroup as bf
from bfcalc import generators
from bfcalc import treepairs as tp
from bfcalc import trees as tr
from bfcalc.braid import AWord, cable_letters
from bfcalc.freegroup import invert_letters
from bfcalc.generators import (
    GeneratorSet,
    GeneratorSetError,
    PureGeneratorSpec,
    _atom_element,
    _atom_factors,
    _Decomposer,
    decompose,
    enumerate_irreducible,
    evaluate_word,
    gen1_set,
    gen2_set,
    gen3_set,
    is_n_irreducible,
    random_element,
)
from bfcalc.trees import Tree, right_comb


# --- irreducibility

def test_irreducible_examples():
    assert is_n_irreducible(PureGeneratorSpec(2, 1, 2), 2)
    assert is_n_irreducible(PureGeneratorSpec(5, 2, 4), 2)
    assert not is_n_irreducible(PureGeneratorSpec(5, 1, 3), 2)


@pytest.mark.parametrize("fields", [(3, True, 2), (3, 1.0, 2), ("3", 1, 2), (3, 2, 1)])
def test_spec_rejects_non_int_or_bad_fields(fields):
    with pytest.raises(GeneratorSetError):
        PureGeneratorSpec(*fields)


def test_everything_reducible_beyond_bound():
    for i in range(1, 7):
        for j in range(i + 1, 8):
            assert not is_n_irreducible(PureGeneratorSpec(7, i, j), 2)


def test_enumerate_counts_and_profiles():
    specs2 = enumerate_irreducible(2)
    assert len(specs2) == 8
    assert Counter(s.strands for s in specs2) == {2: 1, 3: 3, 4: 3, 5: 1}
    for n, expected in ((3, 13), (4, 21), (5, 31), (6, 43)):
        specs = enumerate_irreducible(n)
        assert len(specs) == expected == n * n + n + 1
        profile = Counter(s.strands for s in specs)
        assert profile[n] == n * (n - 1) // 2
        assert profile[2 * n - 1] == (n + 1) * (n + 2) // 2 - 3
        assert profile[3 * n - 2] == 3


@pytest.mark.parametrize("arity", [1, 0, -3, "a", 2.5])
def test_enumerate_irreducible_refuses_what_contexts_refuse(arity):
    # In a daemon thread, so a call that never returns fails the test instead of the run.
    outcome = []

    def call():
        try:
            outcome.append(enumerate_irreducible(arity))
        except Exception as exc:
            outcome.append(exc)

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(1.0)
    assert not worker.is_alive(), f"enumerate_irreducible({arity!r}) ran past a second"
    with pytest.raises(bf.ContextError) as refused:
        gen1_set(1)
    assert [(type(e), str(e)) for e in outcome] == [(bf.ContextError, str(refused.value))]


# --- the three families

def test_gen1_counts():
    assert len(gen1_set(2)) == 10
    for n in (3, 4, 5, 6):
        assert len(gen1_set(n)) == n * n + 2 * n + 1


def test_gen1_members_are_valid_non_identity():
    for n in (2, 3):
        genset = gen1_set(n)
        for name, element in genset.members:
            assert not bf.is_identity(element)


def test_gen1_brown_trees_are_right_combs():
    # the n=2 choice reproduces the classical ten-element family over combs
    genset = gen1_set(2)
    names = [name for name, _ in genset.members]
    assert names[:2] == ["f1", "f2"]
    for name, element in genset.members[2:]:
        assert element.t1 == element.t2 == right_comb(2, element.leaf_count)


def test_gen2_counts():
    assert len(gen2_set(2, bf.pn_context(2))) == 12
    assert len(gen2_set(3, bf.pn_context(3))) == 25
    for n in (3, 4, 5):
        k = n * (n - 1) // 2
        assert len(gen2_set(n, bf.pn_context(n))) == n * n + (k + 2) * n + 1
    # degenerate H behaves exactly like the label-free family
    assert [m[0] for m in gen2_set(2, bf.trivial_context(2)).members] == \
        [m[0] for m in gen1_set(2).members]


def test_gen2_label_members_shape():
    genset = gen2_set(3, bf.pn_context(3))
    caret = Tree.caret(3)
    labeled = [(name, el) for name, el in genset.members if name.startswith("l")]
    assert len(labeled) == 9
    for name, element in labeled:
        assert element.t1 == element.t2 == caret
        assert sum(1 for l in element.labels if l) == 1


def test_gen3_counts():
    assert len(gen3_set(2)) == 9
    assert len(gen3_set(3)) == 19
    for n in (3, 4, 5):
        assert 2 * len(gen3_set(n)) == n ** 3 + 3 * n + 2


def test_gen3_braid_member_profile():
    # second-item counts per strand number for n>2: (n(n-1)/2, n-1, 2)
    for n in (3, 4, 5):
        genset = gen3_set(n)
        braid_members = [el for name, el in genset.members if name.startswith("b")]
        profile = Counter(el.leaf_count for el in braid_members)
        assert profile[n] == n * (n - 1) // 2
        assert profile[2 * n - 1] == n - 1
        assert profile[3 * n - 2] == 2
        assert len(braid_members) == (n * n + n + 2) // 2


def test_gen3_n2_member_list_pinned():
    specs = sorted((el.leaf_count,) + el.braid.letters[0][:2]
                   for name, el in gen3_set(2).members if name.startswith("b"))
    assert specs == [(2, 1, 2), (3, 1, 3), (4, 1, 3), (4, 2, 4), (5, 2, 4)]


def test_substitution_count_comparison():
    # Replacing H by the full pure braid group in the second family and
    # passing to the third family: the actual difference in sizes.
    for n in (3, 4, 5):
        k = n * (n - 1) // 2
        difference = len(gen2_set(n, bf.pn_context(n))) - len(gen3_set(n))
        assert difference == n * (n + 1) // 2


_F1 = gen1_set(2).members[0][1]


@pytest.mark.parametrize("members", [
    ("x", 5),        # a bare pair, not a tuple of pairs
    (("x",),),       # a 1-tuple
    [("x", _F1)],    # a list
    ((1, _F1),),     # an int name
    (("x", 5),),     # not an element
])
def test_generator_set_rejects_malformed_members(members):
    with pytest.raises(GeneratorSetError):
        GeneratorSet(_F1.context, members)


@pytest.mark.parametrize("context", ["nope", None, 2])
def test_generator_set_rejects_a_context_that_is_no_hcontext(context):
    with pytest.raises(GeneratorSetError):
        GeneratorSet(context, ())


# --- decomposition

def test_decompose_identity_is_empty():
    for n in (2, 3):
        genset = gen1_set(n)
        assert decompose(bf.identity_element(genset.context), genset) == ()


def test_decompose_members_are_single_letters():
    for make in (lambda: gen1_set(2), lambda: gen1_set(3), lambda: gen3_set(2)):
        genset = make()
        for idx, (name, element) in enumerate(genset.members, start=1):
            word = decompose(element, genset)
            assert word == (idx,), (name, word)


def test_members_are_found_by_their_elements():
    rng = random.Random(17)
    for genset in (gen1_set(2), gen3_set(2), gen2_set(3, bf.pn_context(3))):
        size = len(genset)
        renamed = GeneratorSet(genset.context, tuple(
            (f"g{k}", x) for k, (_, x) in enumerate(genset.members, start=1)))
        backwards = GeneratorSet(genset.context, genset.members[::-1])
        expanded = GeneratorSet(genset.context, tuple(
            (name, bf.expand(x, 1)) for name, x in genset.members))
        for _ in range(5):
            x = random_element(genset.context, rng, max_leaves=7,
                               max_braid_letters=6, max_label_letters=2)
            word = decompose(x, genset)
            assert decompose(x, renamed) == word
            assert decompose(x, expanded) == word
            mirrored = decompose(x, backwards)
            assert mirrored == tuple(size + 1 - k if k > 0 else -(size + 1 + k) for k in word)
            assert bf.equal(evaluate_word(mirrored, backwards), x)


def test_set_without_tree_pair_members_fails_lookup():
    genset = gen1_set(2)
    braids_only = GeneratorSet(genset.context, tuple(
        (name, x) for name, x in genset.members if not name.startswith("f")))
    assert decompose(braids_only.element(1), braids_only) == (1,)
    with pytest.raises(GeneratorSetError, match="member lookup failure"):
        decompose(genset.element(1), braids_only)


def test_decompose_over_a_set_missing_one_member():
    # A set short of one member either still decomposes each element or
    # fails with GeneratorSetError ("no route to atom", or a lookup failure),
    # never by recursing without end through the levels it is solving.
    tallies = {}
    for n in (2, 3):
        for name in ("gen1", "gen2", "gen3"):
            full = generators.generator_set(name, bf.pn_context(n))
            ok = failed = 0
            for index in range(len(full)):
                genset = GeneratorSet(full.context, full.members[:index] + full.members[index + 1 :])
                rng = random.Random(1000 * n + index)
                for _ in range(10):
                    x = random_element(full.context, rng, max_leaves=7,
                                       max_braid_letters=6, max_label_letters=2)
                    try:
                        word = decompose(x, genset)
                    except GeneratorSetError:
                        failed += 1
                    else:
                        assert bf.equal(evaluate_word(word, genset), x)
                        ok += 1
            tallies[n, name] = (ok, failed)
    assert tallies == {
        (2, "gen1"): (95, 5), (2, "gen2"): (85, 35), (2, "gen3"): (39, 51),
        (3, "gen1"): (136, 24), (3, "gen2"): (159, 91), (3, "gen3"): (101, 89),
    }


def test_decompose_rejects_foreign_context():
    genset = gen1_set(2)
    x = bf.identity_element(bf.pn_context(2))
    with pytest.raises(bf.ContextError):
        decompose(x, genset)


def test_decompose_round_trip_small():
    rng = random.Random(0)
    for make in (lambda: gen1_set(2),
                 lambda: gen2_set(2, bf.pn_context(2)),
                 lambda: gen3_set(2),
                 lambda: gen1_set(3),
                 lambda: gen2_set(3, bf.pn_context(3)),
                 lambda: gen3_set(3)):
        genset = make()
        engine = _Decomposer(genset)
        for _ in range(5):
            x = random_element(genset.context, rng, max_leaves=7,
                               max_braid_letters=8, max_label_letters=2)
            word = engine.decompose(x)
            assert bf.equal(evaluate_word(word, genset), x)


def test_warm_set_words_equal_fresh_engine_words():
    # One set object keeps its atom words across calls; the words must not
    # depend on which elements the set decomposed before.
    rng = random.Random(11)
    jobs = []
    for n in (2, 3):
        for genset in (gen1_set(n), gen2_set(n, bf.pn_context(n)), gen3_set(n)):
            jobs += [(genset, random_element(genset.context, rng, max_leaves=7,
                                             max_braid_letters=6, max_label_letters=2))
                     for _ in range(30)]
    rng.shuffle(jobs)
    for genset, x in jobs:
        assert decompose(x, genset) == _Decomposer(genset).decompose(x)


def two_generator_context(n):
    """The H generated by A[1,2]A[1,n] and A[n-1,n]^-1."""
    return bf.HContext(n, (("h1", AWord(n, ((1, 2, 1), (1, n, 1)))),
                           ("h2", AWord(n, ((n - 1, n, -1),)))))


def test_decomposition_words_pinned():
    # The words themselves, letter for letter: a change to the engine that
    # keeps every word keeps this digest.
    words = []
    for n in (2, 3, 4):
        rng = random.Random(60 + n)
        for genset in (gen1_set(n), gen2_set(n, bf.pn_context(n)), gen3_set(n),
                       gen2_set(n, two_generator_context(n))):
            words += [decompose(random_element(genset.context, rng, max_leaves=9,
                                               max_braid_letters=12, max_label_letters=3),
                                genset)
                      for _ in range(20)]
    digest = hashlib.sha256(repr(words).encode()).hexdigest()
    assert (len(words), sum(map(len, words))) == (240, 8882)
    assert digest == "c8ce00387c750443a508831c1fcb47d78b22e1fe367d85b39a1da87c459f6a2a"


def test_decompose_factorizes_no_tree_pair(monkeypatch):
    # Tree words are read to the comb directly: cold engines of fresh sets
    # give the same words with the tree-pair factorization refused.
    samples = []
    for n in (2, 3):
        rng = random.Random(70 + n)
        for make in (gen1_set, lambda n: gen2_set(n, bf.pn_context(n)), gen3_set):
            genset = make(n)
            xs = [random_element(genset.context, rng, max_leaves=9) for _ in range(5)]
            samples.append((make, n, xs, [decompose(x, genset) for x in xs]))

    def refuse(*args):
        raise AssertionError("decompose factorized a tree pair")

    monkeypatch.setattr(tp, "fn_factorize", refuse)
    assert not hasattr(generators, "fn_factorize")  # no copy of it escapes the patch
    for make, n, xs, expected in samples:
        genset = make(n)
        assert [decompose(x, genset) for x in xs] == expected


def test_one_engine_per_set(monkeypatch):
    built = []
    init = _Decomposer.__init__

    def counted(self, genset):
        built.append(genset)
        init(self, genset)

    monkeypatch.setattr(_Decomposer, "__init__", counted)
    genset = gen2_set(2, bf.pn_context(2))
    for leaves in (7, 9):
        rng = random.Random(12)
        for _ in range(3):
            x = random_element(genset.context, rng, max_leaves=leaves)
            assert bf.equal(evaluate_word(decompose(x, genset), genset), x)
    assert len(built) == 1
    # the engine lives outside the fields: equality and hash are unchanged
    assert genset == gen2_set(2, bf.pn_context(2))
    assert hash(genset) == hash(gen2_set(2, bf.pn_context(2)))


def test_interrupted_level_leaves_the_set_usable(monkeypatch):
    genset = gen3_set(2)
    comb = right_comb(2, 3)
    # a label at position 2 of 3 is not a member: level 3 is solved
    x = bf.BFElement(genset.context, comb, AWord.identity(3), ((), (1,), ()), comb)
    comb_word = _Decomposer._comb_word
    raised = []

    def interrupted(self, tree):
        if not raised and any(f.name == "_solve_level" for f in traceback.extract_stack()):
            raised.append(tree)
            raise RuntimeError("interrupted")
        return comb_word(self, tree)

    monkeypatch.setattr(_Decomposer, "_comb_word", interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        decompose(x, genset)
    assert raised
    monkeypatch.undo()
    word = decompose(x, genset)
    assert word == _Decomposer(genset).decompose(x)
    assert bf.equal(evaluate_word(word, genset), x)


def _balanced_product(word, genset):
    """The oracle: the word's signed members multiplied out by bf.evaluate_product alone."""
    members = [genset.members[abs(letter) - 1][1] for letter in word]
    return bf.evaluate_product(
        [m if letter > 0 else bf.inverse(m) for letter, m in zip(word, members)], genset.context)


def test_evaluate_word_negative_letters_are_member_inverses():
    rng = random.Random(13)
    for genset in (gen2_set(2, bf.pn_context(2)), gen3_set(3)):
        size = len(genset)
        for _ in range(20):
            word = tuple(rng.choice((1, -1)) * rng.randint(1, size) for _ in range(6))
            assert evaluate_word(word, genset) == _balanced_product(word, genset)


def test_bad_letters_rejected():
    genset = gen1_set(2)
    for bad in (0, len(genset) + 1, -(len(genset) + 1), 1.0, True, "1"):
        with pytest.raises(GeneratorSetError):
            genset.element(bad)
        with pytest.raises(GeneratorSetError):
            evaluate_word((1, bad), genset)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("make", [gen1_set, lambda n: gen2_set(n, bf.pn_context(n)), gen3_set],
                         ids=["gen1", "gen2", "gen3"])
def test_evaluate_word_equals_the_balanced_product_cold_and_warm(monkeypatch, make, n):
    genset = make(n)
    pairs = genset._engine.pairs
    multiply = bf.multiply
    calls = []

    def counted(x, y):
        calls.append(1)
        return multiply(x, y)

    monkeypatch.setattr(bf, "multiply", counted)
    rng = random.Random(26 + n)
    for length in (0, 1, 2, 3, 6, 9):
        for _ in range(2):
            word = tuple(rng.choice((1, -1)) * rng.randint(1, len(genset)) for _ in range(length))
            expected = _balanced_product(word, genset)
            pairs.clear()
            calls.clear()
            assert evaluate_word(word, genset) == expected  # cold
            cold = len(calls)
            first_layer = {word[q - 1:q + 1] for q in range(1, length, 2)}
            assert set(pairs) == first_layer
            calls.clear()
            assert evaluate_word(word, genset) == expected  # warm
            assert len(calls) == cold - len(first_layer)


def test_evaluate_word_takes_a_list_word():
    genset = gen2_set(2, bf.pn_context(2))
    word = (3, -1, 5, 5, -12, 7, 2)
    listed = evaluate_word(list(word), genset)  # fills the memo
    assert evaluate_word(word, genset) == listed == _balanced_product(word, genset)


def test_bad_letters_leave_the_pair_memo_unchanged():
    genset = gen1_set(2)
    pairs = genset._engine.pairs
    evaluate_word((1, 2, -3, 4), genset)
    before = dict(pairs)
    for bad in (0, len(genset) + 1, -(len(genset) + 1), True, 1.0):
        for word in ((5, 6, bad), (bad, 4), (7, bad, 8, 9)):
            with pytest.raises(GeneratorSetError):
                evaluate_word(word, genset)
            assert pairs.keys() == before.keys()
            assert all(pairs[key] is before[key] for key in before)


def test_pair_memo_holds_at_most_every_signed_pair():
    genset = gen1_set(2)
    letters = [sign * k for k in range(1, len(genset) + 1) for sign in (1, -1)]
    pairs = genset._engine.pairs
    for a in letters:
        for b in letters:
            evaluate_word((a, b, a), genset)
            assert len(pairs) <= (2 * len(genset)) ** 2
    assert len(pairs) == (2 * len(genset)) ** 2
    rng = random.Random(26)
    for _ in range(20):
        evaluate_word(tuple(rng.choice(letters) for _ in range(9)), genset)
    assert len(pairs) == (2 * len(genset)) ** 2


def test_decompose_inverse_letters():
    genset = gen3_set(2)
    engine = _Decomposer(genset)
    comb = right_comb(2, 3)
    ctx = genset.context
    x = bf.BFElement(ctx, comb, AWord(3, ((2, 3, -1),)), ((),) * 3, comb)
    word = engine.decompose(x)
    assert bf.equal(evaluate_word(word, genset), x)


def _inert_block_word(genset, engine, m, i, j):
    """
    Oracle: the word of A[i,j] on m strands as the member named b{m}_{i}_{j},
    or else by merging the first inert block of n strands (before i, between
    i and j, after j) into one leaf, conjugating the same letter on n-1
    fewer strands.
    """
    n = engine.arity
    index = {name: k for k, (name, _) in enumerate(genset.members, start=1)}
    name = f"b{m}_{i}_{j}"
    if name in index:
        return (index[name],)
    if i > n:
        t, i2, j2 = 1, i - n + 1, j - n + 1
    elif j - i > n:
        t, i2, j2 = i + 1, i, j - n + 1
    else:
        assert m - j >= n, (m, i, j)
        t, i2, j2 = j + 1, i, j
    small = m - n + 1
    there = invert_letters(engine._comb_word(right_comb(n, small).attach(t)))
    return there + _inert_block_word(genset, engine, small, i2, j2) + invert_letters(there)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gen1_atom_words_are_inert_block_merges(n):
    # Relations at leaves an atom does not touch come first, leaves in
    # ascending order, so each gen1 word is the merge of the first inert block.
    genset = gen1_set(n)
    engine = _Decomposer(genset)
    for m in range(n, 5 * n + 1, n - 1):
        for atom in engine._atoms(m):
            expected = _inert_block_word(genset, engine, m, *atom[1:])
            assert engine.atom_word(m, atom) == expected, (m, atom)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_atom_word_evaluates_to_its_atom(n):
    # up to one level above the largest braid member
    for genset in (gen1_set(n), gen2_set(n, bf.pn_context(n)), gen3_set(n)):
        engine = _Decomposer(genset)
        for m in range(1, 5 * n - 3, n - 1):
            comb = right_comb(n, m)
            for atom in engine._atoms(m):
                value = evaluate_word(engine.atom_word(m, atom), genset)
                assert bf.equal(value, _atom_element(genset.context, comb, atom)), (m, atom)


def _hand_written_relation(engine, atom, t0):
    """
    Oracle: the atoms, on m+n-1 strands, of an atom on m strands expanded at
    leaf t0, written out case by case as the relation solver once built them.
    """
    n = engine.arity
    kind, a, b = atom
    if kind == "L":
        return [(("L", u, v), s) for u, v, s in cable_letters(((a, b, 1),), t0, n)]
    inner = bf.label_to_braid((b,), engine.context)
    return ([(("L", u + t0 - 1, v + t0 - 1), s) for u, v, s in inner.letters]
            + [(("S", p, b), 1) for p in range(t0, t0 + n)])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_expansion_relations_match_hand_written(n):
    for genset in (gen1_set(n), gen3_set(n), gen2_set(n, two_generator_context(n))):
        engine = genset._engine
        for m in range(1, 3 * n - 1, n - 1):  # level 1 holds the one-leaf single
            comb = right_comb(n, m)
            for atom in engine._atoms(m):
                for t0 in (atom[1:] if atom[0] == "L" else atom[1:2]):
                    x = bf.expand(_atom_element(genset.context, comb, atom), t0)
                    assert _atom_factors(x) == _hand_written_relation(engine, atom, t0)


def test_generator_set_lookup():
    genset = gen1_set(2)
    assert genset.index_of("f1") == 1
    with pytest.raises(GeneratorSetError):
        genset.index_of("nope")


def _set_members(name_a, name_b, context_b):
    return GeneratorSet(bf.trivial_context(2),
                        ((name_a, bf.identity_element(bf.trivial_context(2))),
                         (name_b, bf.identity_element(context_b))))


@pytest.mark.parametrize("call, message", [
    (lambda: _set_members("a", "a", bf.trivial_context(2)), "duplicate member name 'a'"),
    (lambda: _set_members("a", "b", bf.pn_context(2)), "member 'b' has a foreign context"),
    (lambda: gen2_set(3, bf.pn_context(2)), "context arity mismatch"),
    (lambda: generators.generator_set("gen4", bf.trivial_context(2)),
     "unknown generator set 'gen4'"),
])
def test_set_checks_raise_generator_set_error(call, message):
    with pytest.raises(GeneratorSetError) as caught:
        call()
    assert type(caught.value) is GeneratorSetError and str(caught.value) == message
