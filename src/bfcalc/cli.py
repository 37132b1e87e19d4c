r"""
Command-line calculator.

A session is declared by flags: --arity fixes n, repeated --hgen NAME=WORD
flags (split at the last "=") declare the generators of H as braid words,
and repeated --let NAME=EXPR flags bind element names.  Elements follow

    element  := "{" tree ";" braid ";" "[" label ("," label)* "]" ";" tree "}"
    tree     := "*" | "(" tree ("," tree)+ ")"
    braid    := (A-letter)*               label := "1" | (name | name^-1)+
    A-letter := A\[([0-9]+),([0-9]+)\](\^-1)?        the pattern A_LETTER
    name     := [^\s,\]]{2,}(?<!\^-1)|[^\s,\]1]     the pattern NAME

Letters are separated by whitespace.  A name (every H-generator name must
be one) is not "1", does not end in "^-1" and has no whitespace, "," or "]".

Exit codes: 0 on success, 1 for syntax or usage errors (an output file
that cannot be written included), 2 for semantic invariant violations
(bad arities, strand bounds, unknown or repeated names, foreign
contexts), for verification failures and for a rewrite-rule instance
failing its oracle check, 3 for inputs outside the supported envelope (a
combing coordinate or a sign computation past its ceiling).  For the last
two the final line on standard error reads "ErrorName: message".
"""

from __future__ import annotations

import argparse
import re
import sys

from . import bfgroup as bf
from .bfgroup import A_LETTER, NAME, BFElement, HContext, format_braid, format_label
from .braid import AWord, BraidError, CombingLimitError
from .freegroup import SchemaError, TruncationError
from .trees import Tree, TreeError, tree_from_nested, tree_to_json

SIGN_NAMES = {bf.NEGATIVE: "negative", bf.ZERO: "zero", bf.POSITIVE: "positive"}
ORDER_NAMES = {bf.LESS: "less", bf.EQUAL: "equal", bf.GREATER: "greater"}


# Deepest tree nesting the parser accepts.  It recurses once per level, so
# the ceiling sits well below the interpreter's recursion limit.
MAX_TREE_DEPTH = 200

# A label letter: a name, inverted by "^-1" (bfgroup holds the grammar's two lexical rules).
_LABEL_LETTER = re.compile(f"({NAME.pattern})(\\^-1)?")


class CliSyntaxError(ValueError):
    """Malformed input text; carries its position in the text when one is known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message if line is None else f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int | None = None) -> CliSyntaxError:
        """A syntax error at `pos`, by default the current position."""
        prefix = self.text[: self.pos if pos is None else pos]
        line = prefix.count("\n") + 1
        return CliSyntaxError(message, line, len(prefix) - (prefix.rfind("\n") + 1))

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != char:
            raise self.error(f"expected {char!r}")
        self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def take_until(self, char: str) -> str:
        """Raw text up to (not including) the next occurrence of char."""
        where = self.text.find(char, self.pos)
        if where < 0:
            raise self.error(f"expected {char!r} later in the input")
        segment = self.text[self.pos : where]
        self.pos = where
        return segment


def _parse_tree(scanner: _Scanner, depth: int = 0) -> tuple:
    """Returns a nested tuple: () for a leaf, (children...) otherwise."""
    ch = scanner.peek()
    if ch == "*":
        scanner.pos += 1
        return ()
    if ch != "(":
        raise scanner.error("expected '*' or '('")
    if depth == MAX_TREE_DEPTH:
        raise scanner.error(f"tree nested deeper than {MAX_TREE_DEPTH} levels")
    scanner.expect("(")
    children = [_parse_tree(scanner, depth + 1)]
    while scanner.peek() == ",":
        scanner.expect(",")
        children.append(_parse_tree(scanner, depth + 1))
    scanner.expect(")")
    return tuple(children)


def parse_a_word(text: str, strands: int, scanner: _Scanner | None = None,
                 start: int = 0) -> AWord:
    """Whitespace-separated A-letters.  A malformed letter raises CliSyntaxError,
    placed where it starts given the scanner whose text holds `text` from
    `start` on; strand indices out of range raise the library's BraidError."""
    letters = []
    for token in re.finditer(r"\S+", text):
        letter = A_LETTER.fullmatch(word := token.group())
        try:  # int() refuses an index past its digit limit; no tree has that many strands
            indices = letter and (int(letter[1]), int(letter[2]))
        except ValueError:
            indices = None
        if not indices:
            error = (f"bad braid letter {word!r}" if word.startswith("A")
                     else f"expected an A-letter, got {word!r}")
            raise (CliSyntaxError(error) if scanner is None
                   else scanner.error(error, start + token.start()))
        letters.append(indices + (-1 if letter[3] else 1,))
    return AWord(strands, tuple(letters))


def _parse_labels(scanner: _Scanner) -> list[list[tuple[str, int]]]:
    """Labels up to the closing ']' as lists of (name, +1 or -1); "1" alone has none."""
    labels, at = [], scanner.pos
    for part in scanner.take_until("]").split(","):
        tokens = list(re.finditer(r"\S+", part))
        if not tokens:
            raise scanner.error("empty label (write 1 for the identity)", at)
        letters = [_LABEL_LETTER.fullmatch(t.group()) for t in tokens if part.strip() != "1"]
        if None in letters:
            token = tokens[letters.index(None)]
            raise scanner.error(f"bad label letter {token.group()!r}", at + token.start())
        labels.append([(m[1], -1 if m[2] else 1) for m in letters])
        at += len(part) + 1
    return labels


def parse_element(text: str, context: HContext) -> BFElement:
    """Parse the braced element grammar against a declared session context.
    Malformed text raises CliSyntaxError with its line and column; text that
    breaks an invariant raises the library's TreeError, BraidError,
    ContextError (an unknown label name) or ElementError."""
    scanner = _Scanner(text)
    scanner.expect("{")
    t1_nested = _parse_tree(scanner)
    scanner.expect(";")
    braid_start = scanner.pos
    braid_text = scanner.take_until(";")
    scanner.expect(";")
    scanner.expect("[")
    raw_labels = _parse_labels(scanner)
    scanner.expect("]")
    scanner.expect(";")
    t2_nested = _parse_tree(scanner)
    scanner.expect("}")
    if not scanner.at_end():
        raise scanner.error("trailing input after element")

    t1 = tree_from_nested(t1_nested, context.arity)
    t2 = tree_from_nested(t2_nested, context.arity)
    braid = parse_a_word(braid_text, t1.leaf_count, scanner, braid_start)
    labels = tuple(tuple(s * context.generator_index(n) for n, s in label) for label in raw_labels)
    return BFElement(context, t1, braid, labels, t2)


def format_tree(tree: Tree) -> str:
    """The JSON spelling of the nested form, with [] -> *, [ -> (, ] -> )."""
    return tree_to_json(tree).replace("[]", "*").replace("[", "(").replace("]", ")")


def format_element(x: BFElement) -> str:
    labels = ", ".join(format_label(label, x.context) or "1" for label in x.labels)
    return (f"{{ {format_tree(x.t1)} ; {format_braid(x.braid)} ; [ {labels} ] ; "
            f"{format_tree(x.t2)} }}")


# ---------------------------------------------------------------------------
# Session and commands
# ---------------------------------------------------------------------------

class Session:
    """Declared context plus named element bindings."""

    def __init__(self, arity: int, hgens: list[str], lets: list[str]):
        gens = []
        for spec in hgens:
            if "=" not in spec:
                raise CliSyntaxError(f"--hgen needs NAME=WORD, got {spec!r}")
            name, word = (part.strip() for part in spec.rsplit("=", 1))  # a word has no "="
            if not NAME.fullmatch(name):
                raise CliSyntaxError(f"--hgen name {name!r} cannot be written in a label")
            gens.append((name, parse_a_word(word, arity)))
        self.context = HContext(arity, tuple(gens))
        self.bindings: dict[str, BFElement] = {}
        for spec in lets:
            if "=" not in spec:
                raise CliSyntaxError(f"--let needs NAME=EXPR, got {spec!r}")
            name, expr = (part.strip() for part in spec.split("=", 1))
            if name in self.bindings:
                raise bf.ContextError(f"duplicate element name {name!r}")
            self.bindings[name] = self.resolve(expr)

    def resolve(self, text: str) -> BFElement:
        name = text.strip()
        if name in self.bindings:
            return self.bindings[name]
        if name.startswith("{"):
            return parse_element(name, self.context)
        raise CliSyntaxError(f"unknown element name {name!r}")


def _cmd_element(args, session: Session) -> int:
    """parse, mul, inv, reduce and expand: one element made from the operands, printed."""
    if args.command == "mul":
        x, *others = [session.resolve(e) for e in args.elements]
        for other in others:
            x = bf.multiply(x, other)
        x = bf.reduce(x) if args.reduce else x
    else:
        x = session.resolve(args.element)
        if args.command == "inv":
            x = bf.inverse(x)
        elif args.command == "reduce":
            x = bf.reduce(x)
        elif args.command == "expand":
            x = bf.expand(x, args.leaf)
    print(bf.to_json(x) if args.json else format_element(x))
    return 0


def _cmd_cmp(args, session: Session) -> int:
    print(ORDER_NAMES[bf.compare(session.resolve(args.left), session.resolve(args.right))])
    return 0


def _cmd_sign(args, session: Session) -> int:
    x = session.resolve(args.element)
    print(SIGN_NAMES[bf.pvb_sign(x) if args.pvb else bf.bf_sign(x)])
    return 0


def _cmd_decompose(args, session: Session) -> int:
    from . import generators as gen
    x = session.resolve(args.element)
    genset = gen.generator_set(args.set, session.context)
    if genset.context != x.context:
        raise bf.ContextError(
            "element context does not match the chosen generator set "
            "(declare matching --hgen flags)")
    word = gen.decompose(x, genset)
    names = [("" if letter > 0 else "~") + genset.members[abs(letter) - 1][0] for letter in word]
    if args.json:
        import json
        print(json.dumps({"word": list(word), "names": names}))
    else:
        print(" ".join(names) if names else "1")
    if args.verify:
        value = gen.evaluate_word(word, genset)
        if not bf.equal(value, x):
            raise bf.VerificationError("decomposition failed to re-multiply")
        print(f"verified: {len(word)} letters", file=sys.stderr)
    return 0


def _cmd_gens(args, session: Session) -> int:
    from . import generators as gen
    genset = gen.generator_set(args.set, session.context)
    if args.json:
        import json
        doc = [{"name": name, "element": json.loads(bf.to_json(el))}
               for name, el in genset.members]
        print(json.dumps(doc))
    else:
        for name, el in genset.members:
            print(f"{name}: {format_element(el)}")
    return 0


def _cmd_count(args, session: Session) -> int:
    from . import generators as gen
    arity = session.context.arity
    if args.hgens_count is not None and (not args.gen2 or args.hgen):
        raise CliSyntaxError("argument -k/--hgens-count: only allowed with --gen2, without --hgen")
    if args.irreducible:
        value = len(gen.enumerate_irreducible(arity))
    elif args.gen1:
        value = len(gen.gen1_set(arity))
    elif args.gen2 and args.hgens_count is not None:
        value = len(gen.gen1_set(arity)) + arity * args.hgens_count
    elif args.gen2:
        value = len(gen.gen2_set(arity, session.context))
    else:
        value = len(gen.gen3_set(arity))
    print(value)
    return 0


def _cmd_render(args, session: Session) -> int:
    from .render import render_svg, render_text
    x = session.resolve(args.element)
    document = render_svg(x) if args.format == "svg" else render_text(x)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(document)
        print(f"wrote {args.svg}")
    else:
        print(document)
    return 0


def _cmd_selftest(args, session: Session) -> int:
    from . import selftest
    results = selftest.run_suite(args.suite, session.context.arity, args.samples, args.seed)
    if args.json:
        import dataclasses
        import json
        doc = [{"name": r.name, "params": r.params, "passed": r.passed,
                "checks": [dataclasses.asdict(c) for c in r.checks]}
               for r in results]
        print(json.dumps(doc))
    else:
        for result in results:
            print(f"[{'PASS' if result.passed else 'FAIL'}] {result.name} {result.params} "
                  f"({result.elapsed_seconds:.1f}s)")
            for line in result.lines():
                print(line)
    if not all(result.passed for result in results):
        raise bf.VerificationError("selftest suite reported violations")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise CliSyntaxError(message)


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than `minimum`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {value}")
        return value
    return integer


def _arg(*flags: str, **options) -> tuple:
    """One argument of a command, in add_argument's own names and keywords."""
    return flags, options


_SET = _arg("--set", required=True, choices=("gen1", "gen2", "gen3"))

# Every command once: its handler's name, looked up when it runs so that a
# replaced handler is the one called, and its arguments in the order they
# are added; a list of arguments is a required mutually exclusive group.
COMMANDS = {
    "parse": ("_cmd_element", [_arg("element")]),
    "mul": ("_cmd_element", [_arg("elements", nargs="+"), _arg("--reduce", action="store_true")]),
    "inv": ("_cmd_element", [_arg("element")]),
    "cmp": ("_cmd_cmp", [_arg("left"), _arg("right")]),
    "sign": ("_cmd_sign", [_arg("element"), _arg("--pvb", action="store_true")]),
    "reduce": ("_cmd_element", [_arg("element")]),
    "expand": ("_cmd_element", [_arg("element"), _arg("leaf", type=int)]),
    "decompose": ("_cmd_decompose", [_arg("element"), _SET,
                                     _arg("--verify", action="store_true")]),
    "gens": ("_cmd_gens", [_SET]),
    "count": ("_cmd_count", [
        [_arg(f, action="store_true") for f in ("--gen1", "--gen2", "--gen3", "--irreducible")],
        _arg("-k", "--hgens-count", type=_at_least(0), default=None,
             help="generator count of H for --gen2")]),
    "render": ("_cmd_render", [_arg("element"), _arg("--svg", metavar="PATH"),
                               _arg("--format", choices=("svg", "text"), default="svg")]),
    "selftest": ("_cmd_selftest", [
        _arg("--suite", default="all", choices=("all", "generating", "orders", "signstability",
                                                "braidlayer", "groupaxioms")),
        _arg("--samples", type=_at_least(1), default=25),
        _arg("--seed", type=int, required=True)]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the named command alone, or of every command when it is None."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-n", "--arity", type=int, default=2,
                        help="arity of the session (default 2)")
    common.add_argument("--hgen", action="append", default=[], metavar="NAME=WORD",
                        help="declare a label-subgroup generator (repeatable)")
    common.add_argument("--let", action="append", default=[], metavar="NAME=EXPR",
                        help="bind an element name (repeatable)")
    common.add_argument("--json", action="store_true", help="machine-readable output")

    parser = _Parser(prog="bfcalc",
                     description="calculator for pure braided tree-diagram groups")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS if command is None else (command,):
        p = sub.add_parser(name, parents=[common])
        for argument in COMMANDS[name][1]:
            if isinstance(argument, list):
                group = p.add_mutually_exclusive_group(required=True)
                for flags, options in argument:
                    group.add_argument(*flags, **options)
            else:
                p.add_argument(*argument[0], **argument[1])
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A run that names a command builds that command's parser alone; help, no
    # command and an unknown one build them all, for the full usage message.
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        session = Session(args.arity, args.hgen, args.let)
        return globals()[COMMANDS[args.command][0]](args, session)
    except (CliSyntaxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (bf.ElementError, bf.ContextError, TreeError, BraidError, bf.GeneratorSetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except bf.VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except (SchemaError, CombingLimitError, TruncationError, MemoryError, RecursionError) as exc:
        message = str(exc) or ("out of memory" if isinstance(exc, MemoryError) else "")
        print(f"{type(exc).__name__}: {message}", file=sys.stderr)
        return 2 if isinstance(exc, SchemaError) else 3


if __name__ == "__main__":
    sys.exit(main())
