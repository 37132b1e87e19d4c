"""
Executable property suites: the bi-order laws, sign stability under the
defining relation, the braid-layer oracles, the group axioms, and the
generating-set round trips.  The command line runs them through `selftest`;
the acceptance tests call the same functions with their pinned sample
counts, so there is exactly one implementation of every check.

Each law is written once, as a function of its elements that returns the
number of violations it sees, so it runs over any elements, not only the
random draws.  A suite is a table of rows: a label, a law, the instances
its draw yields and, when one instance makes more than one check, how
many.  `_suite` runs the rows in order and times the suite.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random
import time

from . import bfgroup as bf
from . import braid as br
from . import generators as gen
from .combing import artin_image, comb, magnus_sign, reconstruct, reduce_word

# Size ceilings for the random elements the order/axiom suites draw; the
# generating suite uses the larger ceilings pinned by its criterion.
SUITE_LEAVES = 7
SUITE_BRAID = 8
SUITE_LABEL = 2


@dataclasses.dataclass
class Check:
    label: str
    violations: int
    total: int


@dataclasses.dataclass
class SuiteResult:
    name: str
    params: dict
    checks: list[Check]
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return all(c.violations == 0 for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "ok" if c.violations == 0 else f"{c.violations} VIOLATIONS"
            out.append(f"  {c.label}: {c.total} checks, {status}")
        return out


def trichotomy(x: bf.BFElement) -> int:
    """x and x^-1 have opposite signs, and the sign is zero exactly at the identity."""
    sign = bf.bf_sign(x)
    return bf.bf_sign(bf.inverse(x)) != -sign or (sign == bf.ZERO) != bf.is_identity(x)


def cone(x: bf.BFElement, y: bf.BFElement) -> int:
    """For positive x and y, x y is positive."""
    return bf.bf_sign(bf.multiply(x, y)) != bf.POSITIVE


def conjugation(x: bf.BFElement, g: bf.BFElement) -> int:
    """g x g^-1 has the sign of x."""
    return bf.bf_sign(bf.multiply(bf.multiply(g, x), bf.inverse(g))) != bf.bf_sign(x)


def transitivity(a: bf.BFElement, b: bf.BFElement, c: bf.BFElement) -> int:
    """a <= b <= c gives a <= c, and a >= b >= c gives a >= c."""
    ab, bc, ac = bf.compare(a, b), bf.compare(b, c), bf.compare(a, c)
    return ac != bf.EQUAL and ac not in (ab, bc)


def bi_invariance(x: bf.BFElement, y: bf.BFElement, a: bf.BFElement) -> int:
    """For x < y, a x < a y and x a < y a: two checks."""
    return ((bf.compare(bf.multiply(a, x), bf.multiply(a, y)) != bf.LESS)
            + (bf.compare(bf.multiply(x, a), bf.multiply(y, a)) != bf.LESS))


def bf_expansion(x: bf.BFElement, i: int) -> int:
    """Expanding leaf i keeps the bi-order sign."""
    return bf.bf_sign(bf.expand(x, i)) != bf.bf_sign(x)


def pvb_expansion(x: bf.BFElement, i: int) -> int:
    """Expanding leaf i keeps the sign of an equal-tree element."""
    return bf.pvb_sign(bf.expand(x, i)) != bf.pvb_sign(x)


def associativity(a: bf.BFElement, b: bf.BFElement, c: bf.BFElement) -> int:
    return not bf.equal(bf.multiply(bf.multiply(a, b), c), bf.multiply(a, bf.multiply(b, c)))


def two_sided_identity(x: bf.BFElement) -> int:
    one = bf.identity_element(x.context)
    return not (bf.equal(bf.multiply(x, one), x) and bf.equal(bf.multiply(one, x), x))


def two_sided_inverse(x: bf.BFElement) -> int:
    return not (bf.is_identity(bf.multiply(x, bf.inverse(x)))
                and bf.is_identity(bf.multiply(bf.inverse(x), x)))


def _suite(name: str, params: dict, rows) -> SuiteResult:
    start = time.perf_counter()
    checks = []
    for label, law, instances, *per_instance in rows:
        bad = count = 0
        for args in instances:
            bad += law(*args)
            count += 1
        checks.append(Check(label, bad, count * (per_instance[0] if per_instance else 1)))
    return SuiteResult(name, params, checks, time.perf_counter() - start)


def _context(arity: int, hmode: str) -> bf.HContext:
    if hmode == "trivial":
        return bf.trivial_context(arity)
    if hmode == "pn":
        return bf.pn_context(arity)
    raise ValueError(f"unknown H mode {hmode!r}")


def _draw(context: bf.HContext, rng: random.Random, pvb: bool = False) -> bf.BFElement:
    draw = gen.random_pvb_element if pvb else gen.random_element
    return draw(context, rng, max_leaves=SUITE_LEAVES, max_braid_letters=SUITE_BRAID,
                max_label_letters=SUITE_LABEL)


def _draw_positive(context: bf.HContext, rng: random.Random) -> bf.BFElement:
    while True:
        x = _draw(context, rng)
        sign = bf.bf_sign(x)
        if sign == bf.POSITIVE:
            return x
        if sign == bf.NEGATIVE:
            return bf.inverse(x)


def _draws(count: int, *draws):
    """`count` instances, each one value from every draw in turn."""
    for _ in range(count):
        yield tuple(draw() for draw in draws)


def _with_leaf(count: int, rng: random.Random, draw):
    """`count` instances (x, i): a drawn element and one of its leaves."""
    for _ in range(count):
        x = draw()
        yield x, rng.randint(1, x.leaf_count)


def _ordered_pairs(count: int, draw):
    """`count` drawn pairs x < y, each with three drawn multipliers a: instances (x, y, a)."""
    while count > 0:
        x, y = draw(), draw()
        if bf.compare(x, y) == bf.LESS:
            count -= 1
            for _ in range(3):
                yield x, y, draw()


def orders_suite(arity: int, hmode: str, samples: int, seed: int) -> SuiteResult:
    """Trichotomy, antisymmetry, positivity cone and bi-invariance of the order."""
    context, rng = _context(arity, hmode), random.Random(seed)
    draw = functools.partial(_draw, context, rng)
    positive = functools.partial(_draw_positive, context, rng)
    return _suite("orders", {"arity": arity, "H": hmode, "samples": samples, "seed": seed}, [
        ("trichotomy and antisymmetry", trichotomy, _draws(samples, draw)),
        ("positive cone is a semigroup", cone, _draws(samples, positive, positive)),
        ("conjugation invariance of the sign", conjugation, _draws(samples, draw, draw)),
        ("transitivity of compare", transitivity,
         _draws(max(1, (samples * 2) // 3), draw, draw, draw)),
        ("two-sided bi-invariance", bi_invariance, _ordered_pairs(samples, draw), 2),
    ])


def sign_stability_suite(arity: int, samples: int, seed: int) -> SuiteResult:
    """The sign does not change along the defining expansion relation."""
    context, rng = bf.pn_context(arity), random.Random(seed)
    return _suite("signstability", {"arity": arity, "samples": samples, "seed": seed}, [
        ("bf sign invariant under expansion", bf_expansion,
         _with_leaf(samples, rng, functools.partial(_draw, context, rng))),
        ("pvb sign invariant under expansion", pvb_expansion,
         _with_leaf(samples, rng, functools.partial(_draw, context, rng, pvb=True))),
    ])


def group_axioms_suite(arity: int, hmode: str, samples: int, seed: int) -> SuiteResult:
    """Associativity and the identity and inverse laws at oracle level."""
    draw = functools.partial(_draw, _context(arity, hmode), random.Random(seed))
    return _suite("groupaxioms", {"arity": arity, "H": hmode, "samples": samples, "seed": seed}, [
        ("associativity", associativity, _draws(samples, draw, draw, draw)),
        ("two-sided identity", two_sided_identity, _draws(samples, draw)),
        ("two-sided inverse", two_sided_inverse, _draws(samples, draw)),
    ])


def braid_layer_suite(seed: int, reconstruction_samples: int = 200,
                      positivity_samples: int = 300) -> SuiteResult:
    """Exact oracles of the braid layer."""
    rng = random.Random(seed)
    return _suite("braidlayer", {"seed": seed}, [
        ("braid relations (exhaustive m<=6)",
         lambda u, v: artin_image(u) != artin_image(v), _braid_relations()),
        ("cable table soundness (exhaustive n<=4, m<=6)",
         lambda w, t, n: not br.braids_equal(
             br.a_to_sigma(br.split_a(w, t, n, br.AWord.identity(n))),
             br.split_sigma(br.a_to_sigma(w), t, n)),
         _cable_cases()),
        (f"combing reconstruction ({reconstruction_samples}/strand count)",
         lambda w: not br.braids_equal(w, reconstruct(comb(w))),
         ((_random_aword(rng, m, 12),)
          for m in range(2, 6) for _ in range(reconstruction_samples))),
        ("splitting preserves positivity",
         lambda w, n, t: br.kr_sign(br.split_a(w, t, n, br.AWord.identity(n))) != br.POSITIVE,
         _positive_splits(positivity_samples, rng)),
        ("magnus sign zero iff trivial (rank 2, length<=6)",
         lambda word: (magnus_sign(word) == 0) != word.is_trivial(),
         ((reduce_word(2, letters),) for length in range(7)
          for letters in itertools.product((1, -1, 2, -2), repeat=length))),
    ])


def _braid_relations():
    """Both sides of every braid relation on at most 6 strands: one per pair of crossings."""
    for m in range(2, 7):
        for i, j in itertools.combinations(range(1, m), 2):
            yield ((br.SigmaWord(m, (i, j, i)), br.SigmaWord(m, (j, i, j))) if j == i + 1
                   else (br.SigmaWord(m, (i, j)), br.SigmaWord(m, (j, i))))


def _cable_cases():
    """Every one-letter A-word on at most 6 strands, each strand t, cable widths 2-4."""
    for n, m in itertools.product((2, 3, 4), range(2, 7)):
        for (i, j), s, t in itertools.product(itertools.combinations(range(1, m + 1), 2),
                                              (1, -1), range(1, m + 1)):
            yield br.AWord(m, ((i, j, s),)), t, n


def _positive_splits(count: int, rng: random.Random):
    """`count` instances (w, n, t): a drawn positive A-word, a cable width and a strand."""
    while count > 0:
        m = rng.randint(2, 5)
        w = _random_aword(rng, m, 8)
        if br.kr_sign(w) == br.POSITIVE:
            count -= 1
            yield w, rng.choice((2, 3)), rng.randint(1, m)


def _random_aword(rng: random.Random, strands: int, max_letters: int) -> br.AWord:
    letters = []
    for _ in range(rng.randint(1, max_letters)):
        i = rng.randint(1, strands - 1)
        j = rng.randint(i + 1, strands)
        letters.append((i, j, rng.choice((1, -1))))
    return br.AWord(strands, tuple(letters))


def generating_suite(arity: int, set_name: str, samples: int, seed: int) -> SuiteResult:
    """Decomposition round trips over one family, on seeded random_element draws."""
    genset, rng = gen.generator_set(set_name, bf.pn_context(arity)), random.Random(seed)
    params, lengths = {"arity": arity, "set": set_name, "samples": samples, "seed": seed}, []

    def round_trip(x: bf.BFElement) -> int:
        lengths.append(len(word := gen.decompose(x, genset)))
        return not bf.equal(gen.evaluate_word(word, genset), x)

    draws = _draws(samples, functools.partial(gen.random_element, genset.context, rng))
    result = _suite("generating", params, [("decomposition round trips", round_trip, draws)])
    params["max_word_length"] = max(lengths, default=0)
    return result


def run_suite(name: str, arity: int, samples: int, seed: int) -> list[SuiteResult]:
    """Run one named suite (or every suite, in the table's order) at the given size."""
    suites = {
        "generating": lambda: [generating_suite(arity, s, samples, seed)
                               for s in ("gen1", "gen2", "gen3")],
        "orders": lambda: [orders_suite(arity, h, samples, seed) for h in ("trivial", "pn")],
        "signstability": lambda: [sign_stability_suite(arity, samples, seed)],
        "braidlayer": lambda: [braid_layer_suite(
            seed, reconstruction_samples=max(1, samples // 4), positivity_samples=samples)],
        "groupaxioms": lambda: [group_axioms_suite(arity, h, samples, seed)
                                for h in ("trivial", "pn")],
    }
    if name not in suites and name != "all":
        raise ValueError(f"unknown suite {name!r}")
    return [result for part in (suites if name == "all" else [name])
            for result in suites[part]()]
