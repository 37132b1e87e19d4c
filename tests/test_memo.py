"""
Every memo of the library keeps the one rule of freegroup.Memo: a value is
stored only while the memo holds fewer than MEMO_ENTRIES entries and comes
from at most MEMO_LEAVES leaves, strands or letters.  Past either bound it is
computed on every use and equals the uncached answer, and an error is never
stored.  A memo of checked rule instances sizes an entry by the few ints it
holds, so it keeps an instance past MEMO_LEAVES strands or leaves and checks
it once; only its entry bound makes a check run again.
"""
import importlib
import random
from types import SimpleNamespace

import pytest

from bfcalc import bfgroup as bf
from bfcalc import braid as br
from bfcalc import combing as cb
from bfcalc import freegroup
from bfcalc import treepairs as tp
from bfcalc import trees as tr
from bfcalc.braid import AWord, SchemaError, SigmaWord, a_to_sigma, kr_sign
from bfcalc.freegroup import MEMO_ENTRIES, MEMO_LEAVES, Memo, reduce_onto
from bfcalc.trees import Tree, TreeError, right_comb

LIMIT = MEMO_LEAVES


def cold(monkeypatch, module, name):
    """Put an empty memo with the same make in place of module.name, for this test."""
    memo = Memo(getattr(module, name).make)
    monkeypatch.setattr(module, name, memo)
    return memo


def counted(monkeypatch, module, name):
    """Record each call of module.name in the returned list."""
    calls, real = [], getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def mirrored_cabling(monkeypatch):
    """Diagram cabling with every crossing mirrored: the cable rule's check fails."""
    real = br.split_sigma
    monkeypatch.setattr(br, "split_sigma", lambda word, t, n: SigmaWord(
        word.strands + n - 1, tuple(-q for q in real(word, t, n).letters)))


def case(memo, small, big, *, expect=None, read=None, errors=lambda m: [], checks=None):
    """
    A memo under test: distinct keys whose values are kept while the memo
    has room (small) and keys whose values are never kept (big), the
    uncached answer (by default the memo's make), how a key is read (by
    default memo[key]), errors(m) -> keys that raise once m has patched what
    it needs, and the list each rule check appends to.
    """
    return SimpleNamespace(memo=memo, small=small, big=big,
                           expect=expect or (lambda key: memo.make(key)[0]),
                           read=read or memo.__getitem__, errors=errors, checks=checks)


def binary_trees():
    """Distinct binary trees of at most 20 leaves: a comb with one more caret."""
    return [right_comb(2, m).attach(i) for m in range(2, 20) for i in range(1, m + 1)]


def case_joins(mp):
    trees = binary_trees()
    small = [(2, a.depths, b.depths) for a in trees for b in trees[:15]]
    big = [(2, right_comb(2, LIMIT + 1).depths, right_comb(2, LIMIT).depths),
           (3, Tree.single(3).depths, right_comb(3, 2 * LIMIT + 1).depths)]
    return case(cold(mp, tr, "_JOINS"), small, big,  # read through join, which skips big keys
                read=lambda key: tr.join(Tree._new(key[0], key[1]), Tree._new(key[0], key[2])))


def case_attached(mp):
    trees = binary_trees()
    small = [(2, a.depths, (i, k)) for a in trees for i in range(1, a.leaf_count + 1)
             for k in (1, i + 1)]
    big = [(2, right_comb(2, LIMIT - 2).depths, (1, 1, 1)), (3, (0,), (1,) * LIMIT)]
    return case(cold(mp, tr, "_ATTACHED"), small, big,  # read through attach_script, as join
                read=lambda key: tr.attach_script(Tree._new(key[0], key[1]), key[2]),
                errors=lambda m: [((2, (1, 1), (3,)), TreeError), ((3, (0,), (1, 0)), TreeError),
                                  ((3, (0,), (1,) * LIMIT + (0,)), TreeError)])


def case_cable_widths(mp):
    memo = cold(mp, br, "_CABLE_WIDTHS")
    checks = counted(mp, br, "split_sigma")  # two per width checked

    def errors(m):
        mirrored_cabling(m)
        return [(2, SchemaError), (LIMIT + 4, SchemaError)]

    small = [LIMIT + 1, *range(1, LIMIT)]  # width 33, on 34 strands, is kept and checked once
    return case(memo, small, [], errors=errors, checks=checks)


def case_cables(mp):
    memo = cold(mp, br, "_CABLES")
    small = [(t, w - t + 1) for w in range(1, LIMIT + 1) for t in range(1, w + 1)]

    def off_strand(key):  # a letter that does not touch strand t
        t, n = key
        return (1, 2, 1) if t > 2 else (t + 1, t + 2, 1)

    def expect(key):
        (t, n), (i, j, s) = key, off_strand(key)
        return ((i + (n - 1) * (i > t), j + (n - 1) * (j > t), s),)

    return case(memo, small, [(LIMIT, 2), (30, 4), (1, LIMIT + 1)], expect=expect,
                read=lambda key: memo[key][off_strand(key)])


def case_cable_images(mp):
    cold(mp, br, "_CABLES")
    memo = br._CABLES[1, 2]  # split strand 1 into two

    def expect(letter):
        i, j, s = letter
        if i > 1:
            return ((i + 1, j + 1, s),)
        cable = ((2, j + 1, 1), (1, j + 1, 1))
        return cable if s > 0 else tuple((a, b, -1) for a, b, _ in reversed(cable))

    def errors(m):
        m.setattr(br, "_CABLE_WIDTHS", Memo(br._CABLE_WIDTHS.make))
        mirrored_cabling(m)
        return [((1, 3, 1), SchemaError), ((1, LIMIT + 3, -1), SchemaError)]

    small = [(i, j, s) for j in range(2, LIMIT) for i in range(1, j) for s in (1, -1)]
    return case(memo, small, [(1, LIMIT, 1), (4, 40, -1)], expect=expect, errors=errors)


def case_conjugators(mp):
    memo = cold(mp, cb, "_CONJUGATORS")
    checks = counted(mp, cb, "_rule_holds")
    small = [(2, 40, 1, 3)]  # an instance on 40 strands is kept and checked once
    small += [(r, s, e, j) for k in range(3, 20) for r in range(2, k) for s in range(r + 1, k + 1)
              for j in range(2, k + 1) if max(s, j) == k for e in (1, -1)]

    def errors(m):
        m.setattr(cb, "_rule_holds", lambda *args: False)
        return [((2, 4, 1, 3), SchemaError), ((2, LIMIT + 1, -1, 5), SchemaError)]

    return case(memo, small, [], errors=errors, checks=checks)


def case_xi_identities(mp):
    memo = cold(mp, tp, "_XI_IDENTITIES")
    checks = counted(mp, tp, "pair_multiply")
    small = [(2, 200)]  # the identity of E(200), over 201 leaves, is kept and checked once
    small += [(n, i) for n in range(2, 17) for i in range(1, LIMIT)
              if tp._elementary_pair(n, i)[0].leaf_count <= LIMIT]

    def errors(m):
        real = tp.brown_generator_pairs  # each generating pair inverted
        m.setattr(tp, "brown_generator_pairs", lambda arity: tuple(g[::-1] for g in real(arity)))
        return [((2, 5), SchemaError), ((3, 40), SchemaError)]

    return case(memo, small, [], errors=errors, checks=checks)


def labels_up_to(limit, count, seed=12):
    """Distinct labels over pn_context(3) of at most `limit` letters."""
    rng, out = random.Random(seed), {}
    while len(out) < count:
        length = rng.randint(0, limit)
        out[tuple(rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(length))] = None
    return list(out)


LONG = ((1, 2) * LIMIT, (3,) * (LIMIT + 1))  # braids of more than LIMIT letters in pn_context(3)


def label_braid(ctx, label):
    """One validated AWord per label letter, multiplied out left to right."""
    word = AWord.identity(ctx.arity)
    for g in label:
        gen = ctx.generators[abs(g) - 1][1]
        word = word * (gen if g > 0 else gen.inverse())
    return word


def fresh_pn3():
    """A context equal to pn_context(3) with empty memos: pn_context's own is shared."""
    return bf.HContext(3, bf.pn_context(3).generators)


def case_labels(mp):
    ctx = fresh_pn3()

    def facts(label):
        braid = label_braid(ctx, label)
        return braid, kr_sign(braid), br._dynnikov(3, a_to_sigma(braid).letters)

    return case(ctx._labels, labels_up_to(LIMIT, MEMO_ENTRIES + 20), LONG, expect=facts,
                read=lambda label: (ctx._labels[label][0], bf._label_sign(ctx, label),
                                    bf._label_key(ctx, label)),
                errors=lambda m: [((0,), bf.ElementError), ((1, 4), bf.ElementError)])


def case_leaf_letters(mp):
    ctx = fresh_pn3()
    keys = [(label, t) for label in labels_up_to(LIMIT, 700) for t in (1, 2, 3)]
    return case(ctx._leaf_letters, keys, [(LONG[0], 2), (LONG[1], 1)],
                expect=lambda key: tuple((i + key[1] - 1, j + key[1] - 1, s)
                                         for i, j, s in label_braid(ctx, key[0]).letters),
                errors=lambda m: [(((4,), 1), bf.ElementError)])


def case_products(mp):
    labels = labels_up_to(LIMIT, MEMO_ENTRIES + 20)
    return case(fresh_pn3()._products, list(zip(labels, labels[1:] + labels[:1])),
                [(LONG[0], (-2,)), ((3,), LONG[1])],
                expect=lambda pair: tuple(reduce_onto(list(pair[0]), pair[1])))


def case_inverses(mp):
    return case(fresh_pn3()._inverses, labels_up_to(LIMIT, MEMO_ENTRIES + 20), LONG,
                expect=lambda label: tuple(-g for g in reversed(label)))


def case_contexts(mp):
    def read(key):
        arity, full = key
        return bf.pn_context(arity) if full else bf.trivial_context(arity)

    small = [(n, full) for n in range(2, LIMIT + 1) for full in (False, True)]
    return case(cold(mp, bf, "_CONTEXTS"), small, [(LIMIT + 1, False), (LIMIT + 6, True)],
                read=read, errors=lambda m: [((1, False), bf.ContextError),
                                             ((1, True), bf.ContextError)])


CASES = {
    "trees._JOINS": case_joins,
    "trees._ATTACHED": case_attached,
    "braid._CABLE_WIDTHS": case_cable_widths,
    "braid._CABLES": case_cables,
    "braid._CABLES[1, 2]": case_cable_images,
    "combing._CONJUGATORS": case_conjugators,
    "treepairs._XI_IDENTITIES": case_xi_identities,
    "bfgroup._CONTEXTS": case_contexts,
    "HContext._labels": case_labels,
    "HContext._leaf_letters": case_leaf_letters,
    "HContext._products": case_products,
    "HContext._inverses": case_inverses,
}


def test_every_memo_has_a_case():
    found = set()
    for name in ("freegroup", "trees", "treepairs", "braid", "combing", "bfgroup", "generators",
                 "render", "selftest", "cli"):
        module = importlib.import_module(f"bfcalc.{name}")
        found |= {f"{name}.{k}" for k, v in vars(module).items() if isinstance(v, Memo)}
    ctx = bf.pn_context(2)
    found |= {f"HContext.{slot}" for slot in type(ctx).__mro__[1].__slots__
              if isinstance(getattr(ctx, slot, None), Memo)}
    assert found == set(CASES) - {"braid._CABLES[1, 2]"}


@pytest.mark.parametrize("name", list(CASES))
def test_every_memo_keeps_the_one_rule(monkeypatch, name):
    c = CASES[name](monkeypatch)
    memo, checks = c.memo, c.checks
    small = list(dict.fromkeys(c.small))[:MEMO_ENTRIES + 20]
    assert not memo and all(key not in small for key in c.big)

    def right(key, checked=None):
        """Read the key, compare with the uncached answer, and count the rule checks made."""
        before = len(checks or ())
        value = c.read(key)
        made = len(checks or ()) - before
        assert value == c.expect(key)
        assert checks is None or checked is None or (made > 0) is checked

    # Errors are never stored.
    with monkeypatch.context() as m:
        errors = c.errors(m)
        for key, error in errors:
            for _ in range(2):
                with pytest.raises(error):
                    c.read(key)
            assert key not in memo
    assert not memo

    # Past the size bound, with room to spare: computed on every use, never
    # stored.
    for key in c.big:
        for _ in range(2):
            right(key)
        assert key not in memo
    assert not memo

    # Filled past its entry bound: the first keys are kept, the rest are not,
    # and every answer is right.  A memo with fewer keys under the size bound
    # than MEMO_ENTRIES + 20 first keeps them all; then its entry bound is
    # lowered so that it can be filled past it too.
    entries = min(MEMO_ENTRIES, len(small) - 20)
    if entries < MEMO_ENTRIES:
        for key in small:
            right(key)
        assert list(memo) == small
        memo.clear()
        monkeypatch.setattr(freegroup, "MEMO_ENTRIES", entries)
    for key in small:
        right(key)
    assert list(memo) == small[:entries]
    for key in small[entries:]:
        for _ in range(2):
            right(key, checked=True)
        assert key not in memo
    for key in small[:entries]:
        right(key, checked=False)  # a kept instance is not checked again
    assert len(memo) == entries
