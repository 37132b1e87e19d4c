"""
Executable property suites: the bi-order laws, sign stability under the
defining relation, the braid-layer oracles, the group axioms, and the
generating-set round trips.  The command line runs them through `selftest`;
the acceptance tests call the same functions with their pinned sample
counts, so there is exactly one implementation of every check.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import time

from . import bfgroup as bf
from . import braid as br
from . import generators as gen
from .freegroup import magnus_sign, reduce_word

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


def _context(arity: int, hmode: str) -> bf.HContext:
    if hmode == "trivial":
        return bf.trivial_context(arity)
    if hmode == "pn":
        return bf.pn_context(arity)
    raise ValueError(f"unknown H mode {hmode!r}")


def _draw(context: bf.HContext, rng: random.Random) -> bf.BFElement:
    return bf.random_element(
        context, rng,
        max_leaves=SUITE_LEAVES,
        max_braid_letters=SUITE_BRAID,
        max_label_letters=SUITE_LABEL,
    )


def _draw_positive(context: bf.HContext, rng: random.Random) -> bf.BFElement:
    while True:
        x = _draw(context, rng)
        sign = bf.bf_sign(x)
        if sign == bf.POSITIVE:
            return x
        if sign == bf.NEGATIVE:
            return bf.inverse(x)


def orders_suite(arity: int, hmode: str, samples: int, seed: int) -> SuiteResult:
    """Trichotomy, antisymmetry, positivity cone and bi-invariance of the order."""
    context = _context(arity, hmode)
    rng = random.Random(seed)
    start = time.perf_counter()
    checks: list[Check] = []

    bad = 0
    for _ in range(samples):
        x = _draw(context, rng)
        sign = bf.bf_sign(x)
        if bf.bf_sign(bf.inverse(x)) != -sign:
            bad += 1
        elif (sign == bf.ZERO) != bf.is_identity(x):
            bad += 1
    checks.append(Check("trichotomy and antisymmetry", bad, samples))

    bad = 0
    for _ in range(samples):
        x = _draw_positive(context, rng)
        y = _draw_positive(context, rng)
        if bf.bf_sign(bf.multiply(x, y)) != bf.POSITIVE:
            bad += 1
    checks.append(Check("positive cone is a semigroup", bad, samples))

    bad = 0
    for _ in range(samples):
        x = _draw(context, rng)
        g = _draw(context, rng)
        conjugate = bf.multiply(bf.multiply(g, x), bf.inverse(g))
        if bf.bf_sign(conjugate) != bf.bf_sign(x):
            bad += 1
    checks.append(Check("conjugation invariance of the sign", bad, samples))

    triples = max(1, (samples * 2) // 3)
    bad = 0
    for _ in range(triples):
        a, b, c = _draw(context, rng), _draw(context, rng), _draw(context, rng)
        ab, bc, ac = bf.compare(a, b), bf.compare(b, c), bf.compare(a, c)
        if ab != bf.GREATER and bc != bf.GREATER and ac == bf.GREATER:
            bad += 1
        if ab != bf.LESS and bc != bf.LESS and ac == bf.LESS:
            bad += 1
    checks.append(Check("transitivity of compare", bad, triples))

    bad = 0
    pairs = 0
    while pairs < samples:
        x = _draw(context, rng)
        y = _draw(context, rng)
        if bf.compare(x, y) != bf.LESS:
            continue
        pairs += 1
        for _ in range(3):
            a = _draw(context, rng)
            if bf.compare(bf.multiply(a, x), bf.multiply(a, y)) != bf.LESS:
                bad += 1
            if bf.compare(bf.multiply(x, a), bf.multiply(y, a)) != bf.LESS:
                bad += 1
    checks.append(Check("two-sided bi-invariance", bad, samples * 3))

    return SuiteResult(
        "orders", {"arity": arity, "H": hmode, "samples": samples, "seed": seed},
        checks, time.perf_counter() - start)


def sign_stability_suite(arity: int, samples: int, seed: int) -> SuiteResult:
    """The sign does not change along the defining expansion relation."""
    context = bf.pn_context(arity)
    rng = random.Random(seed)
    start = time.perf_counter()
    checks: list[Check] = []

    bad = 0
    for _ in range(samples):
        x = _draw(context, rng)
        i = rng.randint(1, x.leaf_count)
        if bf.bf_sign(bf.expand(x, i)) != bf.bf_sign(x):
            bad += 1
    checks.append(Check("bf sign invariant under expansion", bad, samples))

    bad = 0
    for _ in range(samples):
        x = bf.random_pvb_element(
            context, rng,
            max_leaves=SUITE_LEAVES,
            max_braid_letters=SUITE_BRAID,
            max_label_letters=SUITE_LABEL,
        )
        i = rng.randint(1, x.leaf_count)
        if bf.pvb_sign(bf.expand(x, i)) != bf.pvb_sign(x):
            bad += 1
    checks.append(Check("pvb sign invariant under expansion", bad, samples))

    return SuiteResult(
        "signstability", {"arity": arity, "samples": samples, "seed": seed},
        checks, time.perf_counter() - start)


def group_axioms_suite(arity: int, hmode: str, samples: int, seed: int) -> SuiteResult:
    """Associativity and the identity and inverse laws at oracle level."""
    context = _context(arity, hmode)
    rng = random.Random(seed)
    start = time.perf_counter()
    checks: list[Check] = []
    one = bf.identity_element(context)

    bad = 0
    for _ in range(samples):
        a, b, c = (_draw(context, rng) for _ in range(3))
        left = bf.multiply(bf.multiply(a, b), c)
        right = bf.multiply(a, bf.multiply(b, c))
        if not bf.equal(left, right):
            bad += 1
    checks.append(Check("associativity", bad, samples))

    bad = 0
    for _ in range(samples):
        x = _draw(context, rng)
        if not (bf.equal(bf.multiply(x, one), x) and bf.equal(bf.multiply(one, x), x)):
            bad += 1
    checks.append(Check("two-sided identity", bad, samples))

    bad = 0
    for _ in range(samples):
        x = _draw(context, rng)
        if not (bf.is_identity(bf.multiply(x, bf.inverse(x)))
                and bf.is_identity(bf.multiply(bf.inverse(x), x))):
            bad += 1
    checks.append(Check("two-sided inverse", bad, samples))

    return SuiteResult(
        "groupaxioms", {"arity": arity, "H": hmode, "samples": samples, "seed": seed},
        checks, time.perf_counter() - start)


def braid_layer_suite(seed: int, reconstruction_samples: int = 200,
                      positivity_samples: int = 300) -> SuiteResult:
    """Exact oracles of the braid layer."""
    rng = random.Random(seed)
    start = time.perf_counter()
    checks: list[Check] = []

    # Braid relations under the Artin action, exhaustive for m <= 6.
    bad = total = 0
    for m in range(2, 7):
        for i in range(1, m - 1):
            u = br.SigmaWord(m, (i, i + 1, i))
            v = br.SigmaWord(m, (i + 1, i, i + 1))
            total += 1
            if br.artin_image(u) != br.artin_image(v):
                bad += 1
        for i, j in itertools.combinations(range(1, m), 2):
            if j - i <= 1:
                continue
            u = br.SigmaWord(m, (i, j))
            v = br.SigmaWord(m, (j, i))
            total += 1
            if br.artin_image(u) != br.artin_image(v):
                bad += 1
    checks.append(Check("braid relations (exhaustive m<=6)", bad, total))

    # Cable-table soundness against diagram cabling, exhaustive n<=4, m<=6.
    bad = total = 0
    for n in (2, 3, 4):
        for m in range(2, 7):
            for i in range(1, m):
                for j in range(i + 1, m + 1):
                    for s in (1, -1):
                        for t in range(1, m + 1):
                            w = br.AWord(m, ((i, j, s),))
                            lhs = br.a_to_sigma(br.split_a(w, t, n, br.AWord.identity(n)))
                            rhs = br.split_sigma(br.a_to_sigma(w), t, n)
                            total += 1
                            if not br.braids_equal(lhs, rhs):
                                bad += 1
    checks.append(Check("cable table soundness (exhaustive n<=4, m<=6)", bad, total))

    # Combing reconstruction.
    bad = total = 0
    for m in range(2, 6):
        for _ in range(reconstruction_samples):
            w = _random_aword(rng, m, 12)
            total += 1
            if not br.braids_equal(w, br.reconstruct(br.comb(w))):
                bad += 1
    checks.append(Check(f"combing reconstruction ({reconstruction_samples}/strand count)",
                        bad, total))

    # Splitting preserves braid positivity.
    bad = 0
    done = 0
    while done < positivity_samples:
        m = rng.randint(2, 5)
        w = _random_aword(rng, m, 8)
        if br.kr_sign(w) != br.POSITIVE:
            continue
        done += 1
        n = rng.choice((2, 3))
        t = rng.randint(1, m)
        if br.kr_sign(br.split_a(w, t, n, br.AWord.identity(n))) != br.POSITIVE:
            bad += 1
    checks.append(Check("splitting preserves positivity", bad, positivity_samples))

    # Magnus sign vanishes exactly on trivial words: all rank-2 words, length <= 6.
    bad = total = 0
    for length in range(0, 7):
        for letters in itertools.product((1, -1, 2, -2), repeat=length):
            word = reduce_word(2, letters)
            total += 1
            if (magnus_sign(word) == 0) != word.is_trivial():
                bad += 1
    checks.append(Check("magnus sign zero iff trivial (rank 2, length<=6)", bad, total))

    return SuiteResult("braidlayer", {"seed": seed}, checks, time.perf_counter() - start)


def _random_aword(rng: random.Random, strands: int, max_letters: int) -> br.AWord:
    letters = []
    for _ in range(rng.randint(1, max_letters)):
        i = rng.randint(1, strands - 1)
        j = rng.randint(i + 1, strands)
        letters.append((i, j, rng.choice((1, -1))))
    return br.AWord(strands, tuple(letters))


def generating_suite(arity: int, set_name: str, samples: int, seed: int) -> SuiteResult:
    """Decomposition round trips over one generating family."""
    genset = gen.generator_set(set_name, bf.pn_context(arity))
    start = time.perf_counter()
    lengths = gen.verify_generating(genset, samples, seed)
    return SuiteResult(
        "generating",
        {"arity": arity, "set": set_name, "samples": samples, "seed": seed,
         "max_word_length": max(lengths, default=0)},
        [Check("decomposition round trips", samples - len(lengths), samples)],
        time.perf_counter() - start)


def run_suite(name: str, arity: int, samples: int, seed: int) -> list[SuiteResult]:
    """Run one named suite (or every suite) at the given size."""
    if name == "orders":
        return [orders_suite(arity, h, samples, seed) for h in ("trivial", "pn")]
    if name == "signstability":
        return [sign_stability_suite(arity, samples, seed)]
    if name == "groupaxioms":
        return [group_axioms_suite(arity, h, samples, seed) for h in ("trivial", "pn")]
    if name == "braidlayer":
        return [braid_layer_suite(seed, reconstruction_samples=max(1, samples // 4),
                                  positivity_samples=samples)]
    if name == "generating":
        return [generating_suite(arity, s, samples, seed)
                for s in ("gen1", "gen2", "gen3")]
    if name == "all":
        out = []
        for part in ("generating", "orders", "signstability", "braidlayer", "groupaxioms"):
            out.extend(run_suite(part, arity, samples, seed))
        return out
    raise ValueError(f"unknown suite {name!r}")
