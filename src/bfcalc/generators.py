"""
Finite generating sets and constructive decomposition into them.

Three families are built.  The first covers the label-free group: the n
tree-pair generators plus one braid generator for every irreducible pure
generator, where A[i,j] in the m-strand group is irreducible when no block
of n consecutive strands could be merged by a reduction (i <= n, j-i <= n,
m-j < n).  The second family adds, for a context with k named generators,
the n*k single-label elements over the one-caret tree.  The third trades
braid generators for labeled ones over the full pure braid context.

decompose() rewrites an arbitrary element as a word in a chosen family:
tree parts through the tree-pair factorization, and each braid or label
letter as an atom over the comb.  An atom is a member, or is solved with
the other atoms on its strand count from the expansion relations of the
level below, each read off bfgroup.expand at every leaf.  Correctness is
established by round-trip verification, not by construction, and
verify_generating() runs exactly that.  A set keeps the words of the
atoms it has decomposed, and its inverted members, for as long as it
lives.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
import time

from . import bfgroup as bf
from . import trees as tr
from .bfgroup import BFElement, GeneratorSetError, HContext, VerificationError
from .braid import AWord
from .freegroup import invert_letters, reduce_letters
from .trees import Tree, TreePair, fn_factorize, right_comb


@dataclasses.dataclass(frozen=True)
class PureGeneratorSpec:
    """A pure generator A[i,j] inside the braid group on m strands."""

    strands: int
    i: int
    j: int

    def __post_init__(self):
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


@dataclasses.dataclass(frozen=True)
class GeneratorSet:
    """A named list of elements over a shared context."""

    context: HContext
    members: tuple[tuple[str, BFElement], ...]

    def __post_init__(self):
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
        if not 1 <= abs(index) <= len(self.members):
            raise GeneratorSetError(f"no letter {index} in a set of {len(self.members)} members")
        return self.members[abs(index) - 1][1]

    @functools.cached_property
    def _engine(self) -> _Decomposer:
        return _Decomposer(self)  # stored in __dict__: equality and hash are unchanged


def _brown_members(context: HContext) -> list[tuple[str, BFElement]]:
    return [
        (f"f{k}", bf.from_tree_pair(context, pair))
        for k, pair in enumerate(tr.brown_generator_pairs(context.arity), start=1)
    ]


def _braid_member(context: HContext, spec: PureGeneratorSpec) -> tuple[str, BFElement]:
    comb = right_comb(context.arity, spec.strands)
    word = AWord(spec.strands, ((spec.i, spec.j, 1),))
    element = BFElement(context, comb, word, ((),) * spec.strands, comb)
    return (f"b{spec.strands}_{spec.i}_{spec.j}", element)


def _label_members(context: HContext) -> list[tuple[str, BFElement]]:
    n = context.arity
    caret = Tree.caret(n)
    out = []
    for position in range(1, n + 1):
        for idx, (name, _) in enumerate(context.generators, start=1):
            labels = tuple((idx,) if p == position else () for p in range(1, n + 1))
            element = BFElement(context, caret, AWord.identity(n), labels, caret)
            out.append((f"l{position}_{name}", element))
    return out


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

# An atom is ("L", i, j), the braid letter A[i,j] over the comb, or
# ("S", t, g), the single label g at leaf t over the comb.  An element over
# the comb is read as a list of factors, each a fixed member word ("word",
# letters) or an atom reference ("atom", atom, sign).
_Factor = tuple


def _atom_factors(x: BFElement) -> list[_Factor]:
    """The atoms of x over the comb: one per braid letter, then one per label letter."""
    factors: list[_Factor] = [("atom", ("L", i, j), s) for i, j, s in x.braid.letters]
    factors += [("atom", ("S", t, abs(g)), 1 if g > 0 else -1)
                for t, label in enumerate(x.labels, start=1) for g in label]
    return factors


def _spell(factors: list[_Factor], atom_word) -> tuple[int, ...]:
    """The letters of a factor list, atom words looked up by atom_word(atom)."""
    out: list[int] = []
    for factor in factors:
        if factor[0] == "word":
            out.extend(factor[1])
        else:
            word = atom_word(factor[1])
            out.extend(word if factor[2] > 0 else invert_letters(word))
    return tuple(out)


class _Decomposer:
    """
    Rewriting engine for one generator set, with one memo of atom words.

    An element on m leaves is read as one factor list: the tree-pair word
    from its domain tree to the comb on m leaves, one atom per braid letter
    and per label letter, then the tree-pair word back.  A braid letter
    atom L(m,i,j) stands for (comb_m, A[i,j], trivial labels, comb_m), a
    single S(m,t,g) for (comb_m, 1, generator g at position t, comb_m).
    An atom that is not a member (and not the one-leaf single, spelled by
    expanding it onto the caret) is solved with its whole level: an atom
    on m-n+1 strands equals its expansion at each leaf t0, a product of
    atoms on m strands between two tree-pair words.  Where the atom does
    not touch t0 that product is one atom, which the relation solves
    outright; the rest of the level follows from the relations at touched
    leaves by a fixpoint scan that solves one atom at a time.
    """

    def __init__(self, genset: GeneratorSet):
        self.context = genset.context
        self.arity = genset.context.arity
        self.index = {name: k for k, (name, _) in enumerate(genset.members, start=1)}
        self.inverses = tuple(bf.inverse(element) for _, element in genset.members)
        self._words: dict[tuple[int, tuple], tuple[int, ...]] = {}  # (m, atom) -> word
        self._solved_levels: set[int] = set()
        self._solving: set[int] = set()

    def _member(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise GeneratorSetError(f"member lookup failure: {name!r} "
                                    "is not in the generator set") from None

    def _lift_pair_word(self, pair: TreePair) -> tuple[int, ...]:
        """Tree-pair factorization mapped onto the f-members."""
        word = fn_factorize(pair)
        out = []
        for letter in word:
            idx = self._member(f"f{abs(letter)}")
            out.append(idx if letter > 0 else -idx)
        return tuple(out)

    def _conj_words(self, src: Tree, dst: Tree) -> tuple[tuple[int, ...], tuple[int, ...]]:
        there = self._lift_pair_word(TreePair(src, dst))
        return there, invert_letters(there)

    def _atom_element(self, comb: Tree, atom: tuple) -> BFElement:
        """The atom over the given comb."""
        m = comb.leaf_count
        kind, a, b = atom
        if kind == "L":
            return BFElement(self.context, comb, AWord(m, ((a, b, 1),)), ((),) * m, comb)
        labels = tuple((b,) if p == a else () for p in range(1, m + 1))
        return BFElement(self.context, comb, AWord.identity(m), labels, comb)

    def _atoms(self, m: int) -> list[tuple]:
        """Every atom on m strands: braid letters first, then singles."""
        hcount = len(self.context.generators)
        return ([("L", i, j) for i in range(1, m) for j in range(i + 1, m + 1)]
                + [("S", t, g) for t in range(1, m + 1) for g in range(1, hcount + 1)])

    def _member_word(self, m: int, atom: tuple) -> tuple[int, ...] | None:
        """The one-letter word of the member that is the atom, if there is one."""
        kind, a, b = atom
        if kind == "L":
            name = f"b{m}_{a}_{b}"
        elif m == self.arity:
            name = f"l{a}_{self.context.generators[b - 1][0]}"
        else:
            return None
        k = self.index.get(name)
        return None if k is None else (k,)

    def atom_word(self, m: int, atom: tuple) -> tuple[int, ...]:
        """Word evaluating to the atom over the comb on m leaves."""
        key = (m, atom)
        word = self._words.get(key)
        if word is not None:
            return word
        word = self._member_word(m, atom)
        if word is None and m == 1:
            # Expand the lone labeled leaf: the label's braid appears on the
            # caret, with a copy of the label on every new strand.
            single = self._atom_element(Tree.single(self.arity), atom)
            word = _spell(_atom_factors(bf.expand(single, 1)),
                          functools.partial(self.atom_word, self.arity))
        if word is None:
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
            solved = {atom: word for atom in atoms
                      if (word := self._member_word(m, atom)) is not None}
            unknown = len(atoms) - len(solved)

            # A level-(m-n+1) atom expanded at leaf t0 sits on the tree
            # comb[t0], so its relation carries the conjugator words between
            # that tree and the comb on m leaves.  At a leaf the atom does not
            # touch the expansion is one atom on m strands, which the relation
            # solves at once; those relations come first.
            comb, small_comb = right_comb(n, m), right_comb(n, small)
            elements = {atom: self._atom_element(small_comb, atom) for atom in self._atoms(small)}
            one_atom: list[tuple[list[_Factor], tuple]] = []
            touching: list[tuple[list[_Factor], tuple]] = []
            for t0 in range(1, small + 1):
                to_comb, from_comb = self._conj_words(small_comb.attach(t0), comb)
                for atom, x in elements.items():
                    factors = [("word", to_comb), *_atom_factors(bf.expand(x, t0)),
                               ("word", from_comb)]
                    (one_atom if len(factors) == 3 else touching).append((factors, atom))

            relations = one_atom + touching
            changed = True
            while changed and unknown:
                changed = False
                for factors, small_atom in relations:
                    open_positions = [q for q, factor in enumerate(factors)
                                      if factor[0] == "atom" and factor[1] not in solved]
                    if len(open_positions) != 1:
                        continue
                    q = open_positions[0]
                    prefix = _spell(factors[:q], solved.__getitem__)
                    suffix = _spell(factors[q + 1:], solved.__getitem__)
                    word = (invert_letters(prefix) + self.atom_word(small, small_atom)
                            + invert_letters(suffix))
                    _, atom, sign = factors[q]
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
        comb = right_comb(self.arity, x.leaf_count)
        factors = [("word", self._lift_pair_word(TreePair(x.t1, comb))), *_atom_factors(x),
                   ("word", self._lift_pair_word(TreePair(comb, x.t2)))]
        return reduce_letters(_spell(factors, functools.partial(self.atom_word, x.leaf_count)))


def decompose(x: BFElement, genset: GeneratorSet) -> tuple[int, ...]:
    """
    Write x as a word of signed 1-based member indices of the set.  The set
    keeps the words of the atoms it has decomposed for as long as it lives.
    """
    return genset._engine.decompose(x)


def evaluate_word(word: tuple[int, ...], genset: GeneratorSet) -> BFElement:
    """Multiply out a decomposition word; letter -k stands for the inverse of member k."""
    inverses = genset._engine.inverses
    members = [genset.element(letter) for letter in word]  # rejects letters out of range
    factors = (x if letter > 0 else inverses[-letter - 1] for letter, x in zip(word, members))
    return bf.evaluate_product(factors, genset.context)


# Size ceilings of the random elements verify_generating draws.
VERIFY_MAX_LEAVES = 9
VERIFY_MAX_BRAID_LETTERS = 16
VERIFY_MAX_LABEL_LETTERS = 4


@dataclasses.dataclass
class VerifyReport:
    """Round-trip witness for a generating set: all samples must re-multiply."""

    set_name: str
    arity: int
    set_size: int
    samples: int
    successes: int
    word_lengths: list[int]
    sample_seconds: list[float]
    elapsed_seconds: float

    @property
    def success_rate(self) -> float:
        return self.successes / self.samples if self.samples else 1.0

    @property
    def max_word_length(self) -> int:
        return max(self.word_lengths, default=0)

    def to_json(self) -> str:
        doc = dataclasses.asdict(self)
        doc["success_rate"] = self.success_rate
        doc["max_word_length"] = self.max_word_length
        return json.dumps(doc, sort_keys=True)


def verify_generating(
    genset: GeneratorSet,
    samples: int,
    seed: int,
    *,
    set_name: str = "set",
) -> VerifyReport:
    """
    Decompose seeded random elements and re-multiply them.  Any failed round
    trip aborts with the offending element serialized in the error message.
    """
    rng = random.Random(seed)
    lengths: list[int] = []
    times: list[float] = []
    successes = 0
    start = time.perf_counter()
    for _ in range(samples):
        t0 = time.perf_counter()
        x = bf.random_element(
            genset.context, rng,
            max_leaves=VERIFY_MAX_LEAVES,
            max_braid_letters=VERIFY_MAX_BRAID_LETTERS,
            max_label_letters=VERIFY_MAX_LABEL_LETTERS,
        )
        word = decompose(x, genset)
        value = evaluate_word(word, genset)
        if not bf.equal(value, x):
            raise VerificationError(
                f"decomposition round trip failed for element {bf.to_json(x)}")
        successes += 1
        lengths.append(len(word))
        times.append(time.perf_counter() - t0)
    return VerifyReport(
        set_name=set_name,
        arity=genset.context.arity,
        set_size=len(genset),
        samples=samples,
        successes=successes,
        word_lengths=lengths,
        sample_seconds=times,
        elapsed_seconds=time.perf_counter() - start,
    )
