"""
Seeded inputs, timed operations and answer checks of the four workloads.

Inputs are built here from public constructors only (Tree.single and
Tree.attach, AWord, BFElement, the context constructors), so a change to
the library's own random generators cannot change them.  Importing this
module imports bfcalc; the benchmark times that import as part of set-up.

Each workload object offers:

    draw(rng, k)      -> the inputs of op k (untimed)
    describe(op)      -> a canonical, library-independent record of them
    run(op)           -> the timed op: one fixed compound of calls
    check(k, op, out) -> bytes for the output digest; raises WrongAnswer

Module functions are looked up at call time (``bf.multiply``, not a
bound ``multiply``) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import bfcalc.bfgroup as bf
import bfcalc.generators as gen
from bfcalc.braid import AWord, CombingLimitError, kr_sign
from bfcalc.freegroup import TruncationError
from bfcalc.trees import Tree
from spans import out_dir

# The documented envelope errors: an op that raises one counts as failed.
ENVELOPE_ERRORS = (CombingLimitError, TruncationError)
ENVELOPE_BY_NAME = {error.__name__: error for error in ENVELOPE_ERRORS}

CONFIGS = ((2, "trivial"), (2, "pn"), (3, "trivial"), (3, "pn"))

SIGN_NAMES = {bf.NEGATIVE: "negative", bf.ZERO: "zero", bf.POSITIVE: "positive"}
ORDER_NAMES = {bf.LESS: "less", bf.EQUAL: "equal", bf.GREATER: "greater"}


class WrongAnswer(Exception):
    """An op returned a result that violates the law it is checked against."""


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Ceilings for drawn elements; each draw is uniform up to the ceiling."""

    leaves: int
    braid: int
    label: int


def make_context(arity: int, hmode: str) -> bf.HContext:
    return bf.pn_context(arity) if hmode == "pn" else bf.trivial_context(arity)


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def draw_tree(rng: random.Random, arity: int, carets: int) -> Tree:
    tree = Tree.single(arity)
    for _ in range(carets):
        tree = tree.attach(rng.randint(1, tree.leaf_count))
    return tree


def draw_carets(rng: random.Random, arity: int, sizes: Sizes) -> int:
    return rng.randint(0, (sizes.leaves - 1) // (arity - 1))


def draw_fill(rng: random.Random, context: bf.HContext, t1: Tree, t2: Tree,
              sizes: Sizes) -> bf.BFElement:
    """Random braid and labels on the given trees."""
    m = t1.leaf_count
    letters = []
    if m >= 2:
        for _ in range(rng.randint(0, sizes.braid)):
            i = rng.randint(1, m - 1)
            j = rng.randint(i + 1, m)
            letters.append((i, j, rng.choice((1, -1))))
    k = len(context.generators)
    labels = []
    for _ in range(m):
        length = rng.randint(0, sizes.label) if k else 0
        labels.append(tuple(rng.choice((1, -1)) * rng.randint(1, k) for _ in range(length)))
    return bf.BFElement(context, t1, AWord(m, tuple(letters)), tuple(labels), t2)


def draw_element(rng: random.Random, context: bf.HContext, sizes: Sizes) -> bf.BFElement:
    n = context.arity
    carets = draw_carets(rng, n, sizes)
    return draw_fill(rng, context, draw_tree(rng, n, carets), draw_tree(rng, n, carets), sizes)


def record(x: bf.BFElement) -> tuple:
    """Canonical record of an element, built from its fields alone."""
    return (x.arity, x.context.names, x.t1.leaves, x.braid.letters, x.labels, x.t2.leaves)


# ---------------------------------------------------------------------------
# Library workloads
# ---------------------------------------------------------------------------

class Axioms:
    """Associativity on (a, b, c), two-sided identity and inverse on a, per config."""

    sizes = Sizes(leaves=5, braid=4, label=2)
    ops_per_second = 125
    trace_ops = 400

    def __init__(self):
        self.contexts = [make_context(n, h) for n, h in CONFIGS]
        self.ones = [bf.identity_element(c) for c in self.contexts]
        warm_up(self)

    def draw(self, rng, k):
        return [(one, tuple(draw_element(rng, c, self.sizes) for _ in range(3)))
                for c, one in zip(self.contexts, self.ones)]

    def describe(self, op):
        return [tuple(record(x) for x in triple) for _, triple in op]

    def run(self, op):
        out = []
        for one, (a, b, c) in op:
            left = bf.multiply(bf.multiply(a, b), c)
            right = bf.multiply(a, bf.multiply(b, c))
            associative = bf.equal(left, right)
            right_identity = bf.equal(bf.multiply(a, one), a)
            left_identity = bf.equal(bf.multiply(one, a), a)
            a_inv = bf.inverse(a)
            right_inverse = bf.is_identity(bf.multiply(a, a_inv))
            left_inverse = bf.is_identity(bf.multiply(a_inv, a))
            out.append((left, (associative, right_identity, left_identity,
                               right_inverse, left_inverse)))
        return out

    def check(self, k, op, out):
        for left, laws in out:
            if not all(laws):
                raise WrongAnswer(f"op {k}: group law violated {laws}")
        return repr([record(left) for left, _ in out]).encode()


class Signs:
    """
    bf_sign(x), compare(x, y) and bf_sign(g x g^-1) per config, where x and
    y share one tree on both sides, so every sign reaches the braid layer.
    """

    sizes = Sizes(leaves=5, braid=12, label=2)
    ops_per_second = 200
    trace_ops = 1000
    # compare(y, x) is also computed, untimed, on every op k with k % 4 == 0.
    antisymmetry_every = 4

    def __init__(self):
        self.contexts = [make_context(n, h) for n, h in CONFIGS]
        warm_up(self)

    def draw(self, rng, k):
        op = []
        for c in self.contexts:
            n = c.arity
            tree = draw_tree(rng, n, draw_carets(rng, n, self.sizes))
            x = draw_fill(rng, c, tree, tree, self.sizes)
            y = draw_fill(rng, c, tree, tree, self.sizes)
            op.append((x, y, draw_element(rng, c, self.sizes)))
        return op

    def describe(self, op):
        return [tuple(record(e) for e in triple) for triple in op]

    def run(self, op):
        out = []
        for x, y, g in op:
            sign = bf.bf_sign(x)
            order = bf.compare(x, y)
            conj = bf.bf_sign(bf.multiply(bf.multiply(g, x), bf.inverse(g)))
            out.append((sign, order, conj))
        return out

    def check(self, k, op, out):
        for (x, y, _), (sign, order, conj) in zip(op, out):
            if conj != sign:
                raise WrongAnswer(f"op {k}: sign {sign} but conjugate sign {conj}")
            if k % self.antisymmetry_every == 0 and bf.compare(y, x) != -order:
                raise WrongAnswer(f"op {k}: compare is not antisymmetric")
        return repr(out).encode()


class Roundtrip:
    """decompose -> evaluate_word -> equal for gen1, gen2, gen3 at n = 2 and 3."""

    sizes = Sizes(leaves=5, braid=6, label=2)
    ops_per_second = 60
    trace_ops = 250

    def __init__(self):
        self.sets = []
        for n in (2, 3):
            pn = bf.pn_context(n)
            self.sets += [gen.gen1_set(n), gen.gen2_set(n, pn), gen.gen3_set(n)]
        warm_up(self)

    def draw(self, rng, k):
        return [(s, draw_element(rng, s.context, self.sizes)) for s in self.sets]

    def describe(self, op):
        return [record(x) for _, x in op]

    def run(self, op):
        out = []
        for genset, x in op:
            word = gen.decompose(x, genset)
            out.append((word, bf.equal(gen.evaluate_word(word, genset), x)))
        return out

    def check(self, k, op, out):
        for (_, x), (word, same) in zip(op, out):
            if not same:
                raise WrongAnswer(f"op {k}: round trip failed for {record(x)}")
        return repr([word for word, _ in out]).encode()


def warm_up(workload) -> None:
    """
    Finish lazy rule derivation in set-up, where users of the library pay it
    once per process, and not in the first timed ops.  The conjugation rules
    are derived per index case (j = r, j = s, r < j < s) and exponent sign
    the first time combing meets them; these braids conjugate strand-1
    letters in all three cases at their top level, with the lower levels
    trivial, so kr_sign reaches that level.  One op on fixed inputs then
    derives the cable orders of both arities.
    """
    for e in (1, -1):
        kr_sign(AWord(4, ((2, 4, e), (2, 3, e), (1, 2, 1), (1, 3, 1), (2, 3, -e), (2, 4, -e))))
    rng = random.Random("warm-up")
    op = workload.draw(rng, 0)
    workload.check(0, op, workload.run(op))


# ---------------------------------------------------------------------------
# Command-line workload
# ---------------------------------------------------------------------------

def tree_text(tree: Tree) -> str:
    leaves = set(tree.leaves)

    def emit(prefix: tuple[int, ...]) -> str:
        if prefix in leaves:
            return "*"
        return "(" + ",".join(emit(prefix + (d,)) for d in range(tree.arity)) + ")"

    return emit(())


def element_text(x: bf.BFElement) -> str:
    braid = " ".join(f"A[{i},{j}]" + ("^-1" if s < 0 else "") for i, j, s in x.braid.letters)
    names = x.context.names
    labels = ", ".join(
        " ".join(names[abs(v) - 1] + ("^-1" if v < 0 else "") for v in label) or "1"
        for label in x.labels)
    return f"{{ {tree_text(x.t1)} ; {braid} ; [ {labels} ] ; {tree_text(x.t2)} }}"


def session_args(context: bf.HContext) -> list[str]:
    out = ["-n", str(context.arity)]
    for name, word in context.generators:
        (i, j, _), = word.letters
        out += ["--hgen", f"{name}=A[{i},{j}]"]
    return out


@dataclasses.dataclass
class CliOp:
    command: str
    context: bf.HContext
    elements: tuple[bf.BFElement, ...]
    argv: list[str]


class Cli:
    """
    One command per op, each in a fresh interpreter that runs ``bfcalc.cli``
    as ``python -m bfcalc.cli`` does (cli_child.py).  The child times the
    host probe before and after the command, so that the probe runs in the
    process whose speed it samples.
    """

    probes_in_child = True

    sizes = Sizes(leaves=5, braid=6, label=2)
    ops_per_second = 6
    trace_ops = 44
    commands = ("parse", "mul", "inv", "cmp", "sign", "reduce", "expand",
                "decompose", "count", "gens", "render")

    def __init__(self, root: Path, tracer=None):
        import bfcalc.cli as cli  # for the in-process answer checks only

        self.cli = cli
        self.root = root
        self.tracer = tracer
        self.spans_path = Path(out_dir(root)) / f"cli-op-{os.getpid()}.json"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.contexts = [make_context(n, h) for n, h in CONFIGS]
        self.sets = {}
        for n in (2, 3):
            trivial, pn = make_context(n, "trivial"), make_context(n, "pn")
            self.sets[trivial, "gen1"] = gen.gen1_set(n)
            self.sets[pn, "gen2"] = gen.gen2_set(n, pn)
            self.sets[pn, "gen3"] = gen.gen3_set(n)
        self.counts = {(name, c.arity): len(s) for (c, name), s in self.sets.items()}
        # The counts the README states.
        if self.counts["gen1", 2] != 10 or self.counts["gen3", 3] != 19:
            raise WrongAnswer("generator counts differ from the README")

    def draw(self, rng, k):
        command = self.commands[k % len(self.commands)]
        context = self.contexts[(k // len(self.commands)) % len(self.contexts)]
        a, b = (draw_element(rng, context, self.sizes) for _ in range(2))
        lets = ["--let", f"a={element_text(a)}", "--let", f"b={element_text(b)}"]
        base = session_args(context)
        if command == "mul":
            args = ["mul", "a", "b", "--reduce"]
        elif command == "cmp":
            args = ["cmp", "a", "b"]
        elif command == "expand":
            args = ["expand", "a", str(rng.randint(1, a.leaf_count))]
        elif command == "decompose":
            args = ["decompose", "a", "--set", self._set_name(context, rng), "--verify"]
        elif command == "count":
            args, lets = ["count", f"--{rng.choice(('gen1', 'gen3'))}"], []
        elif command == "gens":
            args, lets = ["gens", "--set", self._set_name(context, rng)], []
        elif command == "render":
            args = ["render", "a", "--format", "text"]
        else:
            args = [command, "a"]
        return CliOp(command, context, (a, b), args + base + lets)

    def _set_name(self, context, rng):
        return "gen1" if not context.generators else rng.choice(("gen2", "gen3"))

    def describe(self, op):
        return op.argv

    def run(self, op):
        cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py"))]
        if self.tracer is not None:
            cmd += ["--spans", str(self.spans_path)]
        done = subprocess.run(cmd + op.argv, cwd=self.root, env=self.env,
                              capture_output=True, text=True, check=False)
        done.stderr, _, last = done.stderr.rstrip("\n").rpartition("\n")
        if not last.startswith("probe "):
            raise WrongAnswer(f"{op.argv} did not run to the end: {done.stderr}\n{last}")
        done.probe_s, done.probe_spent_s = map(float, last.split()[1:])
        if self.tracer is not None:
            self.tracer.merge(str(self.spans_path))
            self.spans_path.unlink()
        return done

    def check(self, k, op, out):
        if out.returncode != 0:
            # The child printed the traceback of what it raised; its last
            # line reads "module.ErrorName: message".
            name, _, message = out.stderr.strip().rpartition("\n")[2].partition(": ")
            error = ENVELOPE_BY_NAME.get(name.rpartition(".")[2])
            if error is not None:
                raise error(f"op {k}, {op.argv[0]} in a child process: {message}")
            raise WrongAnswer(f"op {k}: exit code {out.returncode} for {op.argv}: "
                              f"{out.stderr.strip()}")
        text = out.stdout.strip()
        a, b = op.elements
        ok = getattr(self, "_check_" + op.command)(op, text, a, b, out.stderr)
        if not ok:
            raise WrongAnswer(f"op {k}: unexpected output of {op.argv}: {text[:200]}")
        return (op.command + "\0" + text).encode()

    def _parse(self, op, text):
        return self.cli.parse_element(text, op.context)

    def _check_parse(self, op, text, a, b, err):
        return record(self._parse(op, text)) == record(a)

    def _check_mul(self, op, text, a, b, err):
        return bf.equal(self._parse(op, text), bf.multiply(a, b))

    def _check_inv(self, op, text, a, b, err):
        return bf.is_identity(bf.multiply(a, self._parse(op, text)))

    def _check_cmp(self, op, text, a, b, err):
        return text == ORDER_NAMES[-bf.compare(b, a)]

    def _check_sign(self, op, text, a, b, err):
        return text == SIGN_NAMES[-bf.bf_sign(bf.inverse(a))]

    def _check_reduce(self, op, text, a, b, err):
        z = self._parse(op, text)
        return z.leaf_count <= a.leaf_count and bf.equal(z, a)

    def _check_expand(self, op, text, a, b, err):
        z = self._parse(op, text)
        return z.leaf_count == a.leaf_count + a.arity - 1 and bf.equal(z, a)

    def _check_decompose(self, op, text, a, b, err):
        genset = self.sets[op.context, op.argv[op.argv.index("--set") + 1]]
        word = [] if text == "1" else [
            -genset.index_of(t[1:]) if t.startswith("~") else genset.index_of(t)
            for t in text.split()]
        return "verified:" in err and bf.equal(gen.evaluate_word(tuple(word), genset), a)

    def _check_count(self, op, text, a, b, err):
        return text == str(self.counts[op.argv[1][2:], op.context.arity])

    def _check_gens(self, op, text, a, b, err):
        genset = self.sets[op.context, op.argv[2]]
        lines = text.splitlines()
        return (len(lines) == len(genset)
                and all(line.split(":", 1)[0] == name
                        for line, (name, _) in zip(lines, genset.members)))

    def _check_render(self, op, text, a, b, err):
        return text.splitlines()[0] == f"arity {a.arity}, {a.leaf_count} leaves"


def make(name: str, root: Path, tracer=None):
    if name == "cli":
        return Cli(root, tracer)
    return {"axioms": Axioms, "signs": Signs, "roundtrip": Roundtrip}[name]()
