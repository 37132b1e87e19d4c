"""
Finite generating sets and constructive decomposition into them.

Three families are built.  The first covers the label-free group: the n
tree-pair generators plus one braid generator for every irreducible pure
generator, where A[i,j] in the m-strand group is irreducible when no block
of n consecutive strands could be merged by a reduction (i <= n, j-i <= n,
m-j < n).  The second family adds, for a context with k named generators,
the n*k single-label elements over the one-caret tree.  The third trades
braid generators for labeled ones over the full pure braid context.

decompose() rewrites an arbitrary element as a word in a set, finding its
members by their reduced elements, under any names: each tree T as the
word of the pair (T, comb) over the members that are the n generating tree
pairs, and each braid or label letter as an atom over the comb.  An atom
is a member, or is solved with the other atoms on its strand count from
the expansion relations of the level below, each read off bfgroup.expand
at every leaf.  Correctness is established by round-trip verification,
not by construction, and verify_generating() runs exactly that.  A set
keeps the words of the atoms and trees it has decomposed, its inverted
members and the products of the aligned letter pairs of the words it has
evaluated, for as long as it lives.
"""

from __future__ import annotations

import functools
import random

from . import bfgroup as bf
from . import treepairs as tp
from .bfgroup import BFElement, GeneratorSetError, HContext, VerificationError
from .braid import AWord
from .freegroup import _value_class, invert_letters, reduce_letters
from .trees import Tree, right_comb


@_value_class
class PureGeneratorSpec:
    """A pure generator A[i,j] inside the braid group on m strands."""

    strands: int
    i: int
    j: int

    def __post_init__(self):
        if not all(type(v) is int for v in (self.strands, self.i, self.j)):
            raise GeneratorSetError("generator spec fields must be ints")
        if not 1 <= self.i < self.j <= self.strands:
            raise GeneratorSetError(f"bad generator spec ({self.i},{self.j}) in {self.strands}")


def is_n_irreducible(spec: PureGeneratorSpec, arity: int) -> bool:
    """No block of n consecutive strands is inert: i <= n, j-i <= n, m-j < n."""
    return spec.i <= arity and spec.j - spec.i <= arity and spec.strands - spec.j < arity


def enumerate_irreducible(arity: int) -> tuple[PureGeneratorSpec, ...]:
    """
    All irreducible specs over the admissible strand counts.  Counts above
    4n-3 admit none, so the scan stops there; the per-count profile is
    pinned by the generator-count tests.
    """
    n = arity
    out = []
    m = n
    while m <= 4 * n - 3:
        for i in range(1, m):
            for j in range(i + 1, m + 1):
                spec = PureGeneratorSpec(m, i, j)
                if is_n_irreducible(spec, n):
                    out.append(spec)
        m += n - 1
    return tuple(out)


@_value_class
class GeneratorSet:
    """A named list of elements over a shared context."""

    context: HContext
    members: tuple[tuple[str, BFElement], ...]
    __slots__ = ("_engine_memo",)  # outside the fields: equality and hash are unchanged

    def __post_init__(self):
        if not isinstance(self.context, HContext):
            raise GeneratorSetError("the context must be an HContext")
        if type(self.members) is not tuple or not all(
                type(m) is tuple and len(m) == 2 and type(m[0]) is str
                and isinstance(m[1], BFElement) for m in self.members):
            raise GeneratorSetError("members must be a tuple of (name, element) tuples")
        seen = set()
        for name, element in self.members:
            if name in seen:
                raise GeneratorSetError(f"duplicate member name {name!r}")
            seen.add(name)
            if element.context != self.context:
                raise GeneratorSetError(f"member {name!r} has a foreign context")

    def __len__(self) -> int:
        return len(self.members)

    def index_of(self, name: str) -> int:
        for k, (mname, _) in enumerate(self.members, start=1):
            if mname == name:
                return k
        raise GeneratorSetError(f"no member named {name!r}")

    def element(self, index: int) -> BFElement:
        if type(index) is not int or not 1 <= abs(index) <= len(self.members):
            raise GeneratorSetError(f"no letter {index} in a set of {len(self.members)} members")
        return self.members[abs(index) - 1][1]

    @property
    def _engine(self) -> _Decomposer:
        if getattr(self, "_engine_memo", None) is None:
            object.__setattr__(self, "_engine_memo", _Decomposer(self))
        return self._engine_memo


def _brown_members(context: HContext) -> list[tuple[str, BFElement]]:
    return [
        (f"f{k}", bf.from_tree_pair(context, *pair))
        for k, pair in enumerate(tp.brown_generator_pairs(context.arity), start=1)
    ]


# An atom is ("L", i, j), the braid letter A[i,j] over the comb, or
# ("S", t, g), the single label g at leaf t over the comb.
def _atom_element(context: HContext, comb: Tree, atom: tuple) -> BFElement:
    """The atom over the given comb."""
    m = comb.leaf_count
    kind, a, b = atom
    if kind == "L":
        return BFElement(context, comb, AWord(m, ((a, b, 1),)), ((),) * m, comb)
    labels = tuple((b,) if p == a else () for p in range(1, m + 1))
    return BFElement(context, comb, AWord.identity(m), labels, comb)


def _braid_member(context: HContext, spec: PureGeneratorSpec) -> tuple[str, BFElement]:
    comb = right_comb(context.arity, spec.strands)
    return (f"b{spec.strands}_{spec.i}_{spec.j}",
            _atom_element(context, comb, ("L", spec.i, spec.j)))


def _label_members(context: HContext) -> list[tuple[str, BFElement]]:
    caret = Tree.caret(context.arity)
    return [(f"l{position}_{name}", _atom_element(context, caret, ("S", position, idx)))
            for position in range(1, context.arity + 1)
            for idx, (name, _) in enumerate(context.generators, start=1)]


def gen1_set(arity: int) -> GeneratorSet:
    """Generators of the label-free group: tree pairs plus all irreducible braids."""
    return gen2_set(arity, bf.trivial_context(arity))


def gen2_set(arity: int, context: HContext) -> GeneratorSet:
    """gen1 over the given context plus the n*k single-label base elements."""
    if context.arity != arity:
        raise GeneratorSetError("context arity mismatch")
    members = _brown_members(context)
    members += [_braid_member(context, spec) for spec in enumerate_irreducible(arity)]
    members += _label_members(context)
    return GeneratorSet(context, tuple(members))


def gen3_set(arity: int) -> GeneratorSet:
    """
    Generators over the full pure braid context: tree pairs, the irreducible
    braids with j-i = n or m = n, and all single-label base elements.
    """
    context = bf.pn_context(arity)
    members = _brown_members(context)
    members += [
        _braid_member(context, spec)
        for spec in enumerate_irreducible(arity)
        if spec.j - spec.i == arity or spec.strands == arity
    ]
    members += _label_members(context)
    return GeneratorSet(context, tuple(members))


def generator_set(name: str, context: HContext) -> GeneratorSet:
    """
    The family called gen1, gen2 or gen3 at the context's arity.  Only gen2
    takes its labels from the context; gen1 and gen3 fix their own.
    """
    if name == "gen1":
        return gen1_set(context.arity)
    if name == "gen2":
        return gen2_set(context.arity, context)
    if name == "gen3":
        return gen3_set(context.arity)
    raise GeneratorSetError(f"unknown generator set {name!r}")


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------

def _atom_factors(x: BFElement) -> list[tuple[tuple, int]]:
    """The (atom, sign) pairs of x over the comb: braid letters, then label letters."""
    factors = [(("L", i, j), s) for i, j, s in x.braid.letters]
    factors += [(("S", t, abs(g)), 1 if g > 0 else -1)
                for t, label in enumerate(x.labels, start=1) for g in label]
    return factors


def _spell(factors: list[tuple[tuple, int]], atom_word) -> tuple[int, ...]:
    """The letters of signed atoms, atom words looked up by atom_word(atom)."""
    out: list[int] = []
    for atom, sign in factors:
        word = atom_word(atom)
        out.extend(word if sign > 0 else invert_letters(word))
    return tuple(out)


class _Decomposer:
    """
    Rewriting engine for one generator set, with memos of atom words and
    tree comb words, and `pairs`, the products of two signed members that
    evaluate_word reads: at most (2|S|)^2 keys for |S| members.

    Members are read by their reduced elements.  One whose two trees are
    the same comb and whose braid and labels spell one atom is that atom's
    word; one with no atoms is a tree pair, and the n generating pairs
    among those carry the comb words.  Where two members qualify, the
    first wins.

    An element on m leaves is read as the comb word of its domain tree,
    its signed atoms over the comb on m leaves, then the inverse comb word
    of its codomain tree.  A braid letter atom L(m,i,j) stands for (comb_m, A[i,j], trivial
    labels, comb_m), a single S(m,t,g) for (comb_m, 1, generator g at
    position t, comb_m).  An atom that is not a member (and not the
    one-leaf single, spelled by expanding it onto the caret) is solved with
    its whole level: an atom on m-n+1 strands equals its expansion at each
    leaf t0: atoms on m strands conjugated by the comb word of comb[t0].
    Where the atom does not touch t0 that product is one atom, which the
    relation solves outright; the rest of the level follows from the
    relations at touched leaves by a fixpoint scan that solves one atom at
    a time.
    """

    def __init__(self, genset: GeneratorSet):
        self.context = genset.context
        self.arity = n = genset.context.arity
        self.inverses = tuple(bf.inverse(element) for _, element in genset.members)
        self.pairs: dict[tuple[int, int], BFElement] = {}  # (k1, k2) -> product
        self._words: dict[tuple[int, tuple], tuple[int, ...]] = {}  # (m, atom) -> word
        self._comb_words: dict[Tree, tuple[int, ...]] = {}  # tree -> _comb_word(tree)
        tree_pairs: dict[tuple[Tree, Tree], int] = {}
        for k, (_, member) in enumerate(genset.members, start=1):
            x = bf.reduce(member)  # any representative of a member is read the same
            factors = _atom_factors(x)
            if not factors:
                tree_pairs.setdefault((x.t1, x.t2), k)
            elif len(factors) == 1 and x.t1 == x.t2 == right_comb(n, x.leaf_count):
                atom, sign = factors[0]
                self._words.setdefault((x.leaf_count, atom), (k,) if sign > 0 else (-k,))
        # member index of each generating pair, None where the set lacks it
        self._pair_members = tuple(map(tree_pairs.get, tp.brown_generator_pairs(n)))
        self._solved_levels: set[int] = set()
        self._solving: set[int] = set()

    def _comb_word(self, tree: Tree) -> tuple[int, ...]:
        """
        The comb word of the tree: the pair (tree, comb) over the generating
        pair members.  fn_factorize gives the same word: reducing that pair
        only cancels comb spine carets on the last leaf, which the peel
        never pushes, so the same windows peel at the same indices.
        """
        word = self._comb_words.get(tree)
        if word is None:
            out = []
            for letter in tp.comb_conjugator_word(tree):
                k = self._pair_members[abs(letter) - 1]
                if k is None:
                    raise GeneratorSetError(f"member lookup failure: generating tree pair "
                                            f"{abs(letter)} is not in the generator set")
                out.append(k if letter > 0 else -k)
            word = self._comb_words[tree] = tuple(out)
        return word

    def _atoms(self, m: int) -> list[tuple]:
        """Every atom on m strands: braid letters first, then singles."""
        hcount = len(self.context.generators)
        return ([("L", i, j) for i in range(1, m) for j in range(i + 1, m + 1)]
                + [("S", t, g) for t in range(1, m + 1) for g in range(1, hcount + 1)])

    def atom_word(self, m: int, atom: tuple) -> tuple[int, ...]:
        """Word evaluating to the atom over the comb on m leaves."""
        key = (m, atom)
        word = self._words.get(key)
        if word is not None:
            return word
        if m == 1:
            # Expand the lone labeled leaf: the label's braid appears on the
            # caret, with a copy of the label on every new strand.
            single = _atom_element(self.context, Tree.single(self.arity), atom)
            word = _spell(_atom_factors(bf.expand(single, 1)),
                          functools.partial(self.atom_word, self.arity))
        else:
            self._solve_level(m)
            word = self._words.get(key)
            if word is None:
                raise GeneratorSetError(
                    f"member lookup failure: no route to atom {atom} on {m} strands")
        self._words[key] = word
        return word

    def _solve_level(self, m: int) -> None:
        """
        Solve every atom on m strands from the expansion relations of level
        m-n+1, one uniquely determined atom at a time.
        """
        if m in self._solved_levels or m in self._solving:
            return
        self._solving.add(m)  # guards against re-entering level m
        try:
            n = self.arity
            small = m - n + 1
            atoms = self._atoms(m)
            solved = {atom: self._words[m, atom] for atom in atoms if (m, atom) in self._words}
            unknown = len(atoms) - len(solved)

            # A level-(m-n+1) atom expanded at leaf t0 sits on the tree
            # comb[t0], so its relation is the comb word of that tree, the
            # signed atoms of the expansion and the inverse comb word.  At a
            # leaf the atom does not touch the expansion is one atom on m
            # strands, which the relation solves at once; those come first.
            small_comb = right_comb(n, small)
            elements = {atom: _atom_element(self.context, small_comb, atom)
                        for atom in self._atoms(small)}
            one_atom: list[tuple] = []
            touching: list[tuple] = []
            for t0 in range(1, small + 1):
                to_comb = self._comb_word(small_comb.attach(t0))
                for atom, x in elements.items():
                    factors = _atom_factors(bf.expand(x, t0))
                    relation = (to_comb, factors, atom)
                    (one_atom if len(factors) == 1 else touching).append(relation)

            relations = one_atom + touching
            changed = True
            while changed and unknown:
                changed = False
                for to_comb, factors, small_atom in relations:
                    open_positions = [q for q, (atom, _) in enumerate(factors)
                                      if atom not in solved]
                    if len(open_positions) != 1:
                        continue
                    q = open_positions[0]
                    prefix = to_comb + _spell(factors[:q], solved.__getitem__)
                    suffix = _spell(factors[q + 1:], solved.__getitem__)
                    word = (invert_letters(prefix) + self.atom_word(small, small_atom)
                            + to_comb + invert_letters(suffix))
                    atom, sign = factors[q]
                    solved[atom] = word if sign > 0 else invert_letters(word)
                    unknown -= 1
                    changed = True

            for atom, word in solved.items():
                self._words.setdefault((m, atom), word)
            self._solved_levels.add(m)  # only now that its words are stored
        finally:
            self._solving.discard(m)

    def decompose(self, x: BFElement) -> tuple[int, ...]:
        if x.context != self.context:
            raise bf.ContextError("element context does not match the generator set")
        x = bf.reduce(x)
        atoms = _spell(_atom_factors(x), functools.partial(self.atom_word, x.leaf_count))
        return reduce_letters(self._comb_word(x.t1) + atoms
                              + invert_letters(self._comb_word(x.t2)))


def decompose(x: BFElement, genset: GeneratorSet) -> tuple[int, ...]:
    """
    Write x as a word of signed 1-based member indices of the set.  A set
    keeps the words of the atoms and trees it has decomposed, and
    evaluate_word's member-pair products, for as long as it lives.
    """
    return genset._engine.decompose(x)


def evaluate_word(word: tuple[int, ...], genset: GeneratorSet) -> BFElement:
    """
    Multiply out a decomposition word; letter -k stands for the inverse of
    member k.  The first layer of the balanced product, the pairs (0,1),
    (2,3), ..., comes from the set's memo; the product tree is the same.
    """
    engine = genset._engine
    members = [genset.element(letter) for letter in word]  # rejects letters out of range
    factors = [x if letter > 0 else engine.inverses[-letter - 1]
               for letter, x in zip(word, members)]
    layer = []
    for q in range(1, len(word), 2):
        key = (word[q - 1], word[q])
        product = engine.pairs.get(key)
        if product is None:
            product = engine.pairs[key] = bf.multiply(factors[q - 1], factors[q])
        layer.append(product)
    return bf.evaluate_product(layer + factors[2 * len(layer):], genset.context)


def random_tree(rng, arity: int, carets: int) -> Tree:
    """A tree of `carets` carets, each at a leaf drawn by `rng`, a random.Random."""
    tree = Tree.single(arity)
    for _ in range(carets):
        tree = tree.attach(rng.randint(1, tree.leaf_count))
    return tree


def random_element(context: HContext, seed, *, max_leaves: int = 9,
                   max_braid_letters: int = 16, max_label_letters: int = 4) -> BFElement:
    """
    Seed-deterministic element within the given size ceilings; `seed` is an
    int or a random.Random.
    """
    return _random(context, seed, False, max_leaves, max_braid_letters, max_label_letters)


def random_pvb_element(context: HContext, seed, *, max_leaves: int = 9,
                       max_braid_letters: int = 16, max_label_letters: int = 4) -> BFElement:
    """Random representative with equal trees; `seed` as for random_element."""
    return _random(context, seed, True, max_leaves, max_braid_letters, max_label_letters)


def _random(context: HContext, seed, equal_trees: bool, max_leaves: int,
            max_braid_letters: int, max_label_letters: int) -> BFElement:
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    n = context.arity
    carets = rng.randint(0, max(0, (max_leaves - 1) // (n - 1)))
    t1 = random_tree(rng, n, carets)
    t2 = t1 if equal_trees else random_tree(rng, n, carets)
    m = t1.leaf_count
    letters = []
    if m >= 2:
        for _ in range(rng.randint(0, max_braid_letters)):
            i = rng.randint(1, m - 1)
            j = rng.randint(i + 1, m)
            letters.append((i, j, rng.choice((1, -1))))
    k = len(context.generators)
    labels = []
    for _ in range(m):
        length = rng.randint(0, max_label_letters) if k else 0
        labels.append(tuple(rng.choice((1, -1)) * rng.randint(1, k) for _ in range(length)))
    return BFElement(context, t1, AWord(m, tuple(letters)), tuple(labels), t2)


def verify_generating(genset: GeneratorSet, samples: int, seed: int) -> tuple[int, ...]:
    """
    Decompose seeded random elements, re-multiply them and return the
    lengths of their words.  Any failed round trip aborts with the
    offending element serialized in the error message.
    """
    rng = random.Random(seed)
    lengths = []
    for _ in range(samples):
        x = random_element(genset.context, rng)
        word = decompose(x, genset)
        if not bf.equal(evaluate_word(word, genset), x):
            raise VerificationError(
                f"decomposition round trip failed for element {bf.to_json(x)}")
        lengths.append(len(word))
    return tuple(lengths)
