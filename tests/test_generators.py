import json
import random
import traceback
from collections import Counter

import pytest

from bfcalc import bfgroup as bf
from bfcalc.braid import AWord, cable_letter
from bfcalc.generators import (
    GeneratorSetError,
    PureGeneratorSpec,
    _atom_factors,
    _Decomposer,
    decompose,
    enumerate_irreducible,
    evaluate_word,
    gen1_set,
    gen2_set,
    gen3_set,
    is_n_irreducible,
    verify_generating,
)
from bfcalc.trees import Tree, right_comb


# --- irreducibility

def test_irreducible_examples():
    assert is_n_irreducible(PureGeneratorSpec(2, 1, 2), 2)
    assert is_n_irreducible(PureGeneratorSpec(5, 2, 4), 2)
    assert not is_n_irreducible(PureGeneratorSpec(5, 1, 3), 2)


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
            x = bf.random_element(genset.context, rng, max_leaves=7,
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
            jobs += [(genset, bf.random_element(genset.context, rng, max_leaves=7,
                                                max_braid_letters=6, max_label_letters=2))
                     for _ in range(30)]
    rng.shuffle(jobs)
    for genset, x in jobs:
        assert decompose(x, genset) == _Decomposer(genset).decompose(x)


def test_one_engine_per_set(monkeypatch):
    built = []
    init = _Decomposer.__init__

    def counted(self, genset):
        built.append(genset)
        init(self, genset)

    monkeypatch.setattr(_Decomposer, "__init__", counted)
    genset = gen2_set(2, bf.pn_context(2))
    rng = random.Random(12)
    for _ in range(3):
        x = bf.random_element(genset.context, rng, max_leaves=7)
        assert bf.equal(evaluate_word(decompose(x, genset), genset), x)
    verify_generating(genset, 3, seed=12)
    assert len(built) == 1
    # the engine lives outside the fields: equality and hash are unchanged
    assert genset == gen2_set(2, bf.pn_context(2))
    assert hash(genset) == hash(gen2_set(2, bf.pn_context(2)))


def test_interrupted_level_leaves_the_set_usable(monkeypatch):
    genset = gen3_set(2)
    comb = right_comb(2, 3)
    # a label at position 2 of 3 is not a member: level 3 is solved
    x = bf.BFElement(genset.context, comb, AWord.identity(3), ((), (1,), ()), comb)
    conj_words = _Decomposer._conj_words
    raised = []

    def interrupted(self, src, dst):
        if not raised and any(f.name == "_solve_level" for f in traceback.extract_stack()):
            raised.append((src, dst))
            raise RuntimeError("interrupted")
        return conj_words(self, src, dst)

    monkeypatch.setattr(_Decomposer, "_conj_words", interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        decompose(x, genset)
    assert raised
    monkeypatch.undo()
    word = decompose(x, genset)
    assert word == _Decomposer(genset).decompose(x)
    assert bf.equal(evaluate_word(word, genset), x)


def test_evaluate_word_negative_letters_are_member_inverses():
    rng = random.Random(13)
    for genset in (gen2_set(2, bf.pn_context(2)), gen3_set(3)):
        size = len(genset)
        for _ in range(20):
            word = tuple(rng.choice((1, -1)) * rng.randint(1, size) for _ in range(6))
            members = [genset.members[abs(letter) - 1][1] for letter in word]
            expected = bf.evaluate_product(
                (m if letter > 0 else bf.inverse(m) for letter, m in zip(word, members)),
                genset.context)
            assert evaluate_word(word, genset) == expected


def test_bad_letters_rejected():
    genset = gen1_set(2)
    for bad in (0, len(genset) + 1, -(len(genset) + 1)):
        with pytest.raises(GeneratorSetError):
            genset.element(bad)
        with pytest.raises(GeneratorSetError):
            evaluate_word((1, bad), genset)


def test_decompose_inverse_letters():
    genset = gen3_set(2)
    engine = _Decomposer(genset)
    comb = right_comb(2, 3)
    ctx = genset.context
    x = bf.BFElement(ctx, comb, AWord(3, ((2, 3, -1),)), ((),) * 3, comb)
    word = engine.decompose(x)
    assert bf.equal(evaluate_word(word, genset), x)


def _inert_block_word(engine, m, i, j):
    """
    Oracle: the word of A[i,j] on m strands as a member letter, or else by
    merging the first inert block of n strands (before i, between i and j,
    after j) into one leaf, conjugating the same letter on n-1 fewer strands.
    """
    n = engine.arity
    name = f"b{m}_{i}_{j}"
    if name in engine.index:
        return (engine.index[name],)
    if i > n:
        t, i2, j2 = 1, i - n + 1, j - n + 1
    elif j - i > n:
        t, i2, j2 = i + 1, i, j - n + 1
    else:
        assert m - j >= n, (m, i, j)
        t, i2, j2 = j + 1, i, j
    small = m - n + 1
    there, back = engine._conj_words(right_comb(n, m), right_comb(n, small).attach(t))
    return there + _inert_block_word(engine, small, i2, j2) + back


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gen1_atom_words_are_inert_block_merges(n):
    # Relations at leaves an atom does not touch come first, leaves in
    # ascending order, so each gen1 word is the merge of the first inert block.
    engine = _Decomposer(gen1_set(n))
    for m in range(n, 5 * n + 1, n - 1):
        for atom in engine._atoms(m):
            assert engine.atom_word(m, atom) == _inert_block_word(engine, m, *atom[1:]), (m, atom)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_atom_word_evaluates_to_its_atom(n):
    # up to one level above the largest braid member
    for genset in (gen1_set(n), gen2_set(n, bf.pn_context(n)), gen3_set(n)):
        engine = _Decomposer(genset)
        for m in range(1, 5 * n - 3, n - 1):
            comb = right_comb(n, m)
            for atom in engine._atoms(m):
                value = evaluate_word(engine.atom_word(m, atom), genset)
                assert bf.equal(value, engine._atom_element(comb, atom)), (m, atom)


def _hand_written_relation(engine, atom, t0):
    """
    Oracle: the atoms, on m+n-1 strands, of an atom on m strands expanded at
    leaf t0, written out case by case as the relation solver once built them.
    """
    n = engine.arity
    kind, a, b = atom
    if kind == "L":
        return [("atom", ("L", u, v), s) for u, v, s in cable_letter((a, b, 1), t0, n)]
    inner = bf.label_to_braid((b,), engine.context)
    return ([("atom", ("L", u + t0 - 1, v + t0 - 1), s) for u, v, s in inner.letters]
            + [("atom", ("S", p, b), 1) for p in range(t0, t0 + n)])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_expansion_relations_match_hand_written(n):
    two = bf.HContext(n, (("h1", AWord(n, ((1, 2, 1), (1, n, 1)))),
                          ("h2", AWord(n, ((n - 1, n, -1),)))))
    for genset in (gen1_set(n), gen3_set(n), gen2_set(n, two)):
        engine = genset._engine
        for m in range(1, 3 * n - 1, n - 1):  # level 1 holds the one-leaf single
            comb = right_comb(n, m)
            for atom in engine._atoms(m):
                for t0 in (atom[1:] if atom[0] == "L" else atom[1:2]):
                    x = bf.expand(engine._atom_element(comb, atom), t0)
                    assert _atom_factors(x) == _hand_written_relation(engine, atom, t0)


# --- verification reports

def summary(report):
    return (f"{report.set_name} n={report.arity}: {report.successes}/{report.samples} "
            f"round trips, max word {report.max_word_length}, {report.elapsed_seconds:.1f}s")


def test_verify_generating_report():
    genset = gen1_set(2)
    report = verify_generating(genset, 5, seed=3, set_name="gen1")
    assert report.successes == report.samples == 5
    assert report.success_rate == 1.0
    assert report.max_word_length == max(report.word_lengths)
    doc = json.loads(report.to_json())
    assert doc["samples"] == 5 and doc["success_rate"] == 1.0
    assert len(doc["word_lengths"]) == 5
    assert "gen1" in summary(report)


def test_generator_set_lookup():
    genset = gen1_set(2)
    assert genset.index_of("f1") == 1
    with pytest.raises(GeneratorSetError):
        genset.index_of("nope")
