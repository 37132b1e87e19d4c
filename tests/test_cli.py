import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import inspect
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import typing

import pytest
from hypothesis import given, settings, strategies as st

import bfcalc
from bfcalc import bfgroup as bf
from bfcalc import cli, freegroup, render, treepairs, trees
from bfcalc import generators as gen
from bfcalc.cli import (
    MAX_TREE_DEPTH,
    CliSyntaxError,
    Session,
    format_element,
    main,
    parse_a_word,
    parse_element,
)
from bfcalc.render import render_svg, render_text
from bfcalc.braid import AWord, BraidError, CombingLimitError, SchemaError
from bfcalc.freegroup import TruncationError
from bfcalc.trees import Tree, TreeError


H2 = ["h1=A[1,2]"]


def session(arity=2, hgens=H2, lets=()):
    return Session(arity, list(hgens), list(lets))


def parse_tree_text(text, arity):
    """A tree in the element grammar, alone on the input."""
    scanner = cli._Scanner(text)
    nested = cli._parse_tree(scanner)
    if not scanner.at_end():
        raise scanner.error("trailing input after tree")
    return trees.tree_from_nested(nested, arity)


# --- grammar

def test_parse_tree_text():
    assert parse_tree_text("*", 2) == Tree.single(2)
    assert parse_tree_text("(*,*)", 2) == Tree.caret(2)
    assert parse_tree_text("((*,*),*)", 2) == Tree.caret(2).attach(1)
    assert parse_tree_text("(*,(*,*,*),*)", 3) == Tree.caret(3).attach(2)


def test_parse_tree_arity_checked():
    with pytest.raises(TreeError, match="node of width 2, expected arity 3"):
        parse_tree_text("(*,*)", 3)
    with pytest.raises(CliSyntaxError):
        parse_tree_text("(*,*", 2)


def test_parse_words():
    assert parse_a_word("A[1,2] A[1,3]^-1", 3) == AWord(3, ((1, 2, 1), (1, 3, -1)))
    with pytest.raises(CliSyntaxError):
        parse_a_word("B[1,2]", 3)
    with pytest.raises(BraidError):
        parse_a_word("A[1,9]", 3)
    assert parse_a_word("A[01,2]^-1", 3) == AWord(3, ((1, 2, -1),))  # leading zeros are digits


def test_docstring_spells_the_two_lexical_rules():
    assert f"A-letter := {cli.A_LETTER.pattern} " in cli.__doc__
    assert f"name     := {cli.NAME.pattern} " in cli.__doc__


def test_parse_element_examples():
    ctx = session().context
    one = parse_element("{ * ; ; [1] ; * }", ctx)
    assert bf.is_identity(one)
    x = parse_element("{ (*,*) ; A[1,2] ; [1,1] ; (*,*) }", ctx)
    assert x.braid == AWord(2, ((1, 2, 1),))
    with pytest.raises(BraidError):
        parse_element("{ (*,*) ; A[1,3] ; [1,1] ; (*,*) }", ctx)
    with pytest.raises(bf.ContextError, match="unknown H-generator 'h7'"):
        parse_element("{ (*,*) ; ; [h7,1] ; (*,*) }", ctx)
    with pytest.raises(CliSyntaxError):
        parse_element("{ (*,*) ; [1,1] ; (*,*) }", ctx)


def test_bad_braid_letter_reports_where_it_starts(capsys):
    text = "{ (*,*) ; A[1,2] A[1,2]^-1^-1 ; [1,1] ; (*,*) }"
    with pytest.raises(CliSyntaxError) as caught:
        parse_element(text, session().context)
    assert (caught.value.line, caught.value.column) == (1, text.index("A[1,2]^-1^-1"))
    assert run_cli("parse", text, "-n", "2") == 1
    assert capsys.readouterr().err == (
        "error: bad braid letter 'A[1,2]^-1^-1' (line 1, column 17)\n")
    multiline = "{ (*,*) ;\n  A[1,2] B ; [1,1] ; (*,*) }"
    with pytest.raises(CliSyntaxError, match=r"got 'B' \(line 2, column 9\)$"):
        parse_element(multiline, session().context)


def test_errors_without_a_known_position_print_none(capsys):
    assert run_cli("count", "--gen1", "--gen3") == 1
    assert capsys.readouterr().err == (
        "error: argument --gen3: not allowed with argument --gen1\n")
    with pytest.raises(CliSyntaxError) as caught:
        parse_a_word("A[1,2] B[1,2]", 3)
    assert caught.value.line is None and str(caught.value) == "expected an A-letter, got 'B[1,2]'"


def test_parse_element_labels():
    ctx = session().context
    x = parse_element("{ (*,*) ; ; [h1 h1^-1 h1, 1] ; (*,*) }", ctx)
    assert x.labels == ((1, -1, 1), ())


def _corpus(count=60):
    rng = random.Random(42)
    ctx = bf.pn_context(2)
    seen = []
    while len(seen) < count - 4:
        x = gen.random_element(ctx, rng, max_leaves=7, max_braid_letters=5,
                               max_label_letters=2)
        seen.append(x)
    seen.append(bf.identity_element(ctx))
    seen.append(bf.identity_element(ctx, Tree.caret(2)))
    caret = Tree.caret(2)
    seen.append(bf.BFElement(ctx, caret, AWord(2, ((1, 2, -1),)), ((), (1,)), caret))
    seen.append(bf.BFElement(ctx, caret.attach(1), AWord(3, ()),
                             ((1, 1), (), (-1,)), caret.attach(2)))
    return ctx, seen


def test_print_parse_round_trip_corpus():
    ctx, corpus = _corpus()
    assert len(corpus) >= 50
    full_ctx = Session(2, ["a1_2=A[1,2]"], []).context
    for x in corpus:
        rendered = format_element(x)
        again = parse_element(rendered, full_ctx)
        assert again.t1 == x.t1 and again.t2 == x.t2
        assert again.braid == x.braid and again.labels == x.labels
        assert format_element(again) == rendered


def test_print_parse_round_trip_over_declared_names():
    ctx = Session(2, ["h1=A[1,2]", "a1_2=A[1,2]^-1", "x^2=A[1,2] A[1,2]"], []).context
    caret = Tree.caret(2)
    x = bf.BFElement(ctx, caret, AWord(2, ((1, 2, 1),)), ((1, -2, 3), (-3, -1)), caret)
    rendered = format_element(x)
    assert rendered == "{ (*,*) ; A[1,2] ; [ h1 a1_2^-1 x^2, x^2^-1 h1^-1 ] ; (*,*) }"
    assert parse_element(rendered, ctx) == x


@pytest.mark.parametrize("name", ["1", "x^-1", "x y", "h,1", "h]", ""])
def test_hgen_names_no_label_can_spell_exit_1(capsys, name):
    assert run_cli("parse", "{ * ; ; [1] ; * }", "-n", "2", "--hgen", f"{name}=A[1,2]") == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: --hgen name {name!r} cannot be written in a label")


def test_hgen_splits_at_the_last_equals_sign(capsys):
    # A braid word has no "=", so everything before the last one is the name.
    assert session(hgens=["a=b=A[1,2]", "c==A[1,2]^-1"]).context.names == ("a=b", "c=")
    for labels, printed in (("[a=b, 1]", "[ a=b, 1 ]"), ("[a=b,c= a=b^-1]", "[ a=b, c= a=b^-1 ]")):
        assert run_cli("parse", f"{{ (*,*) ; A[1,2] ; {labels} ; (*,*) }}", "-n", "2",
                       "--hgen", "a=b=A[1,2]", "--hgen", "c==A[1,2]^-1") == 0
        assert capsys.readouterr().out.strip() == f"{{ (*,*) ; A[1,2] ; {printed} ; (*,*) }}"
    assert run_cli("parse", "{ * ; ; [1] ; * }", "-n", "2", "--hgen", "x y=A[1,2]=") == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: --hgen name 'x y=A[1,2]' cannot be written in a label")


# Strategies from the grammar's two patterns: generator names are drawn from
# NAME, and A-letters from A_LETTER with their indices folded into range.
NAMES = st.from_regex(cli.NAME, fullmatch=True)
A_LETTERS = st.from_regex(cli.A_LETTER, fullmatch=True).map(cli.A_LETTER.fullmatch)


@st.composite
def trees_with(draw, arity, carets):
    tree = Tree.single(arity)
    for _ in range(carets):
        tree = tree.attach(draw(st.integers(1, tree.leaf_count)))
    return tree


@st.composite
def printable_elements(draw):
    n = draw(st.sampled_from((2, 3)))
    names = draw(st.lists(NAMES, max_size=2, unique=True))
    context = bf.HContext(n, tuple((name, AWord(n, ((1, 2, 1),))) for name in names))
    carets = draw(st.integers(0, 3))
    t1, t2 = draw(trees_with(n, carets)), draw(trees_with(n, carets))
    m = t1.leaf_count
    letters = []
    for match in draw(st.lists(A_LETTERS, max_size=3 if m > 1 else 0)):
        i = 1 + int(match[1]) % (m - 1)
        letters.append((i, i + 1 + int(match[2]) % (m - i), -1 if match[3] else 1))
    signed = [k for k in range(-len(names), len(names) + 1) if k]
    label = st.lists(st.sampled_from(signed or [0]), max_size=2 if names else 0).map(tuple)
    labels = tuple(draw(st.lists(label, min_size=m, max_size=m)))
    return bf.BFElement(context, t1, AWord(m, tuple(letters)), labels, t2)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(printable_elements())
def test_printed_elements_parse_back_field_for_field(x):
    again = parse_element(format_element(x), x.context)
    assert (again.context, again.t1, again.braid, again.labels, again.t2) == (
        x.context, x.t1, x.braid, x.labels, x.t2)
    # Through the JSON document too: what from_json loads prints and reads back.
    loaded = bf.from_json(bf.to_json(x))
    again = parse_element(format_element(loaded), loaded.context)
    assert (again.context, again.t1, again.braid, again.labels, again.t2) == (
        x.context, x.t1, x.braid, x.labels, x.t2)


MUTATION_CHARACTERS = st.sampled_from(list("{}()[];,*^-1A0 \n+_\u0661h")) | st.characters()


@st.composite
def one_character_mutations(draw):
    """A printed element and some texts that each differ from it in one character."""
    x = draw(printable_elements())
    text = format_element(x)
    mutated = []
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(text) - 1))
        char = draw(MUTATION_CHARACTERS)
        kind = draw(st.sampled_from(("insert", "delete", "replace")))
        mutated.append(text[:at] + ("" if kind == "delete" else char)
                       + text[at + (kind != "insert"):])
    return x.context, mutated


@settings(max_examples=50, deadline=None, derandomize=True)
@given(one_character_mutations())
def test_one_character_mutations_end_in_an_element_or_a_typed_error(case):
    context, texts = case
    for text in texts:
        try:
            assert isinstance(parse_element(text, context), bf.BFElement)
        except CliSyntaxError as exc:
            assert exc.line is not None and 0 <= exc.column <= len(text)
        except (TreeError, BraidError, bf.ContextError, bf.ElementError):
            pass


def test_json_round_trip_corpus():
    _, corpus = _corpus()
    for x in corpus:
        text = bf.to_json(x)
        assert bf.to_json(bf.from_json(text)) == text


def test_format_element_writes_deep_trees():
    depth = 1200
    tree = Tree.single(2)
    for _ in range(depth):
        tree = tree.attach(1)
    m = tree.leaf_count
    x = bf.BFElement(bf.trivial_context(2), tree, AWord.identity(m), ((),) * m, tree)
    comb_text = "(" * depth + "*" + ",*)" * depth
    labels = ", ".join(["1"] * m)
    assert format_element(x) == f"{{ {comb_text} ;  ; [ {labels} ] ; {comb_text} }}"


# --- commands and exit codes

def run_cli(*argv):
    return main(list(argv))


def test_cmd_parse_ok(capsys):
    assert run_cli("parse", "{ * ; ; [1] ; * }", "-n", "2") == 0
    assert capsys.readouterr().out.strip() == "{ * ;  ; [ 1 ] ; * }"


def test_cmd_parse_syntax_error_exit_1(capsys):
    assert run_cli("parse", "{ (*,* ; ; [1] ; * }", "-n", "2") == 1
    assert "line" in capsys.readouterr().err


def test_cmd_parse_semantic_error_exit_2(capsys):
    assert run_cli("parse", "{ (*,*) ; A[1,3] ; [1,1] ; (*,*) }", "-n", "2") == 2
    capsys.readouterr()


def test_parse_deep_tree_is_a_syntax_error(capsys):
    deep = "(" * 3000 + "*" + ",*)" * 3000
    with pytest.raises(CliSyntaxError):
        parse_tree_text(deep, 2)
    assert run_cli("parse", "{ " + deep + " ; ; [1] ; * }", "-n", "2") == 1
    err = capsys.readouterr().err
    assert f"deeper than {MAX_TREE_DEPTH}" in err and "Traceback" not in err


def test_parse_tree_at_the_depth_ceiling():
    deep = "(" * MAX_TREE_DEPTH + "*" + ",*)" * MAX_TREE_DEPTH
    assert parse_tree_text(deep, 2).leaf_count == MAX_TREE_DEPTH + 1


@pytest.mark.parametrize("error, code", [
    (CombingLimitError("combing coordinate exceeded 5 letters"), 3),
    (TruncationError("no nonconstant term up to degree 8"), 3),
    (SchemaError("conjugation rule failed validation"), 2),
    (gen.GeneratorSetError("no member named 'z'"), 2),
    (bf.VerificationError("decomposition failed to re-multiply"), 2),
    (MemoryError("out of memory"), 3),
    (MemoryError(), 3),
    (RecursionError("maximum recursion depth exceeded"), 3),
])
def test_envelope_and_rule_errors_exit_codes(monkeypatch, capsys, error, code):
    def fail(args, session):
        raise error

    monkeypatch.setattr(cli, "_cmd_sign", fail)
    assert run_cli("sign", "{ * ; ; [1] ; * }", "-n", "2") == code
    err = capsys.readouterr().err
    prefix = {gen.GeneratorSetError: "error",
              bf.VerificationError: "verification failure"}.get(type(error), type(error).__name__)
    assert err.strip().splitlines()[-1] == f"{prefix}: {str(error) or 'out of memory'}"
    assert "Traceback" not in err


def test_failed_elementary_pair_check_exits_2(monkeypatch, capsys):
    # An empty memo makes the checks run; with each pair inverted, the one at
    # the foot of a chain fails.
    assert SchemaError is freegroup.SchemaError
    elementary_pair = treepairs._elementary_pair
    monkeypatch.setattr(treepairs, "_XI_IDENTITIES",
                        freegroup.Memo(treepairs._XI_IDENTITIES.make))
    monkeypatch.setattr(treepairs, "_elementary_pair",
                        lambda arity, i: elementary_pair(arity, i)[::-1])
    let = "a={ ((*,*),*) ; ; [1,1,1] ; (*,(*,*)) }"
    assert run_cli("decompose", "a", "--set", "gen1", "-n", "2", "--let", let) == 2
    err = capsys.readouterr().err
    assert err.strip().splitlines()[-1].startswith("SchemaError: elementary-pair rewrite failed")
    assert "Traceback" not in err


def test_error_classes_live_in_bfgroup():
    assert gen.GeneratorSetError is bf.GeneratorSetError


def test_fresh_cli_import_leaves_generators_and_selftest_unloaded():
    # -S: no site hook of the host interpreter loads modules into the child.
    lazy = ("bfcalc.generators", "bfcalc.selftest", "bfcalc.render", "bfcalc.combing",
            "bfcalc.treepairs", "dataclasses", "inspect", "json", "typing", "random")
    code = f"import sys, bfcalc.cli; print(sorted(m for m in {lazy!r} if m in sys.modules))"
    src = os.path.dirname(os.path.dirname(bfcalc.__file__))
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "[]"


LAZY_LAYERS = ("bfcalc.combing", "bfcalc.treepairs")
COMMUTATOR = "{ ((*,*),*) ; A[1,2] A[1,3] A[1,2]^-1 A[1,3]^-1 ; [1,1,1] ; ((*,*),*) }"


@pytest.mark.parametrize("argv, answer, loaded", [
    # strand 1 links strands 2 and 3 zero times: kr_sign combs its level
    (["sign", COMMUTATOR, "-n", "2"], "positive", ["bfcalc.combing"]),
    (["sign", "{ (*,*) ; A[1,2] ; [1,1] ; (*,*) }", "-n", "2"], "positive", []),
    (["parse", "{ (*,*) ; A[1,2] ; [1,1] ; (*,*) }", "-n", "2"],
     "{ (*,*) ; A[1,2] ; [ 1, 1 ] ; (*,*) }", []),
    (["count", "--gen1", "-n", "2"], "10", ["bfcalc.treepairs"]),
    # a trivial braid whose letters do not cancel: no level decides, none is combed
    (["sign", "{ ((*,*),*) ; A[1,2] A[2,3] A[1,3] A[1,2]^-1 A[1,3]^-1 A[2,3]^-1 ; [1,1,1] ; "
      "((*,*),*) }", "-n", "2"], "zero", []),
])
def test_a_fresh_command_loads_only_the_layers_it_runs(argv, answer, loaded):
    code = (f"import sys, bfcalc.cli; bfcalc.cli.main({argv!r}); "
            f"print(sorted(m for m in {LAZY_LAYERS!r} if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(bfcalc.__file__))
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip().splitlines() == [answer, repr(loaded)]


# The public names that moved to a module loading on first use, by new home.
MOVED = {"combing": ("FreeWord", "artin_image", "comb", "magnus_sign", "magnus_truncated",
                     "reconstruct", "reduce_word"),
         "treepairs": ("brown_generator_pairs", "fn_factorize", "pair_multiply"),
         "generators": ("random_element",)}


def test_moved_names_resolve_to_their_new_home():
    for home, names in MOVED.items():
        module = importlib.import_module(f"bfcalc.{home}")
        for name in names:
            assert getattr(bfcalc, name) is getattr(module, name), name
    # A name the benchmark's tracer wraps in a module that no longer holds it
    # is forwarded to its new home, and nothing else is.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    forwarded = {}
    for module, names in spans.TRACED.items():
        old = importlib.import_module(f"bfcalc.{module}")
        forwarded[module] = [name for name in names if name not in vars(old)]
        home = importlib.import_module("bfcalc.treepairs" if module == "trees"
                                       else "bfcalc.combing")
        for name in forwarded[module]:
            assert getattr(old, name) is getattr(home, name), f"bfcalc.{module}.{name}"
    assert forwarded == {"trees": ["expansion_script", "fn_factorize", "pair_multiply",
                                   "pair_reduce"],
                         "freegroup": ["magnus_sign", "magnus_truncated"],
                         "braid": ["comb", "artin_image"],
                         "bfgroup": [], "generators": [], "cli": []}
    for module, name in (("braid", "_peel_front"), ("freegroup", "FreeWord"),
                         ("trees", "_xi_word"), ("braid", "no_such_name")):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(importlib.import_module(f"bfcalc.{module}"), name)


LIBRARY_MODULES = ("freegroup", "braid", "combing", "trees", "treepairs", "bfgroup",
                   "generators")


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_library_annotations_resolve(name):
    # Annotations are strings under `from __future__ import annotations`;
    # every name in them must be bound in the module although the CLI path
    # imports neither typing nor random.
    module = importlib.import_module(f"bfcalc.{name}")
    own = [v for v in vars(module).values() if getattr(v, "__module__", None) == module.__name__]
    classes = [v for v in own if inspect.isclass(v)]
    functions = [v for v in own if inspect.isfunction(v)]
    functions += [getattr(f, "__func__", f) for cls in classes for f in vars(cls).values()
                  if inspect.isfunction(getattr(f, "__func__", f))]
    assert functions
    for obj in classes + functions:
        typing.get_type_hints(obj)


FRESH_SESSION = ["-n", "2", "--hgen", "h=A[1,2]", "--let",
                 "a={ ((*,*),*) ; A[1,3] A[2,3]^-1 ; [ h, 1, h^-1 h^-1 ] ; (*,(*,*)) }"]


@pytest.mark.parametrize("command, expected", [
    (["render", "a", "--format", "text"],
     "arity 2, 3 leaves\ndomain tree: 00 01 1\nbraid: A[1,3] A[2,3]^-1\nlabel 1: h\n"
     "label 3: h^-1 h^-1\nrange tree: 0 10 11\n"),
    (["parse", "a", "--json"],
     '{"arity":2,"braid":[[1,3,1],[2,3,-1]],"hgens":[["h",[[1,2,1]]]],'
     '"labels":[[1],[],[-1,-1]],"t1":[[[],[]],[]],"t2":[[],[[],[]]]}\n'),
], ids=["render-text", "parse-json"])
def test_fresh_process_loads_render_and_json_when_used(command, expected):
    src = os.path.dirname(os.path.dirname(bfcalc.__file__))
    done = subprocess.run([sys.executable, "-S", "-m", "bfcalc.cli", *command, *FRESH_SESSION],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")


def test_module_entry_point_prints_and_exits():
    src = os.path.dirname(os.path.dirname(bfcalc.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    command = [sys.executable, "-m", "bfcalc.cli", "count", "--gen1", "-n"]
    done = subprocess.run(command + ["2"], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout, done.stderr) == (0, "10\n", "")
    bad = subprocess.run(command, capture_output=True, text=True, env=env)
    assert (bad.returncode, bad.stdout) == (1, "")
    assert bad.stderr.startswith("error: ")


GENERATOR_NAMES = ("GeneratorSet", "PureGeneratorSpec", "decompose", "enumerate_irreducible",
                   "evaluate_word", "gen1_set", "gen2_set", "gen3_set", "is_n_irreducible")


@pytest.mark.parametrize("name", GENERATOR_NAMES)
def test_package_names_resolve_to_the_generators_module(name):
    assert getattr(bfcalc, name) is getattr(gen, name)
    namespace = {}
    exec(f"from bfcalc import {name}", namespace)
    assert namespace[name] is getattr(gen, name)


def test_package_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        bfcalc.nonesuch


def test_names_the_benchmark_tracer_wraps_resolve():
    # perfbench/spans.py wraps bfcalc.<module>.<function> for every name in
    # its TRACED table; a name gone from the package breaks traced runs.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, names in spans.TRACED.items():
        for name in names:
            fn = getattr(importlib.import_module(f"bfcalc.{module}"), name, None)
            assert callable(fn), f"bfcalc.{module}.{name}"


def test_usage_error_exit_1(capsys):
    assert run_cli("nonsense") == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("count", "--gen2", "-k", "-1"),
    ("selftest", "--suite", "orders", "--samples", "-3", "--seed", "1"),
    ("selftest", "--suite", "orders", "--samples", "0", "--seed", "1"),
])
def test_out_of_range_counts_are_usage_errors(capsys, argv):
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument") and "Traceback" not in err


@pytest.mark.parametrize("argv, code", [
    (("count", "--gen1", "--gen3", "-n", "2"), 1),
    (("count", "--gen2", "--irreducible"), 1),
    (("count", "--gen1", "-k", "2"), 1),
    (("count", "-k", "2"), 1),
    (("count",), 1),
    (("count", "--gen2", "-n", "2", "--hgen", "h1=A[1,2]", "-k", "3"), 1),
])
def test_count_takes_one_set_and_k_only_with_gen2(capsys, argv, code):
    assert run_cli(*argv) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def _evaluate_to_identity(monkeypatch):
    monkeypatch.setattr(gen, "evaluate_word",
                        lambda word, genset: bf.identity_element(genset.context))


def _selftest_with_a_violation(monkeypatch):
    from bfcalc import selftest
    failing = selftest.SuiteResult("orders", {}, [selftest.Check("law", 1, 1)], 0.0)
    monkeypatch.setattr(selftest, "run_suite", lambda *args: [failing])


README_DECOMPOSE = ("decompose", "a", "--set", "gen1", "-n", "2", "--verify", "--let",
                    "a={ ((*,*),*) ; A[1,2] A[2,3]^-1 ; [1,1,1] ; (*,(*,*)) }")


@pytest.mark.parametrize("argv, patch, code, last_line", [
    (("parse", "{ (*,*) ; ; [1] ; (*,*) }", "-n", "2"), None, 2,
     "error: expected 2 labels, got 1"),
    (("parse", "{ (*,*) ; ; [1,1] ; ((*,*),*) }", "-n", "2"), None, 2,
     "error: leaf counts of the two trees differ"),
    (("parse", "{ (*,*) ; ; [1,1] ; (*,*,*) }", "-n", "2"), None, 2,
     "error: tree has a node of width 3, expected arity 2"),
    (("parse", "{ (*,*) ; ; [h1,1] ; (*,*) }", "-n", "2", "--hgen", "h1=A[1,3]"), None, 2,
     "error: pure generator indices (1,3) out of range"),
    (("parse", "{ * ; ; [1] ; * }", "-n", "2", "--hgen", "h1=A[1,2]", "--hgen", "h1=A[1,2]"),
     None, 2, "error: bad or duplicate generator name 'h1'"),
    (("parse", "{ * ; ; [1] ; * } x", "-n", "2"), None, 1,
     "error: trailing input after element (line 1, column 18)"),
    (("parse", "{ * ; A[1,2]", "-n", "2"), None, 1,
     "error: expected ';' later in the input (line 1, column 5)"),
    (README_DECOMPOSE, _evaluate_to_identity, 2,
     "verification failure: decomposition failed to re-multiply"),
    (("selftest", "--suite", "orders", "-n", "2", "--samples", "1", "--seed", "1"),
     _selftest_with_a_violation, 2, "verification failure: selftest suite reported violations"),
    (("parse", "{ (*,*) ; ; [1,] ; (*,*) }", "-n", "2"), None, 1,
     "error: empty label (write 1 for the identity) (line 1, column 15)"),
    (("parse", "a", "-n", "2", "--let", "a={ * ; ; [1] ; * }", "--let", " a ={ * ; ; [1] ; * }"),
     None, 2, "error: duplicate element name 'a'"),
    (("parse", "{ (*,*) ; A[+1,2] ; [1,1] ; (*,*) }", "-n", "2"), None, 1,
     "error: bad braid letter 'A[+1,2]' (line 1, column 10)"),
    (("parse", "{ (*,*) ; A[1_0,2] ; [1,1] ; (*,*) }", "-n", "2"), None, 1,
     "error: bad braid letter 'A[1_0,2]' (line 1, column 10)"),
    (("parse", "{ (*,*) ; A[\u0661,2] ; [1,1] ; (*,*) }", "-n", "2"), None, 1,
     "error: bad braid letter 'A[\u0661,2]' (line 1, column 10)"),
    (("parse", "{ (*,*) ; ; [h1 1,1] ; (*,*) }", "-n", "2", "--hgen", "h1=A[1,2]"), None, 1,
     "error: bad label letter '1' (line 1, column 16)"),
    (("parse", "{ (*,*) ; ; [1^-1,1] ; (*,*) }", "-n", "2", "--hgen", "h1=A[1,2]"), None, 1,
     "error: bad label letter '1^-1' (line 1, column 13)"),
    (("parse", "{ (*,*) ; ; [h1^-1^-1,1] ; (*,*) }", "-n", "2", "--hgen", "h1=A[1,2]"), None, 1,
     "error: bad label letter 'h1^-1^-1' (line 1, column 13)"),
    # An index past int()'s 4,300-digit limit is a bad letter, not an uncaught ValueError.
    pytest.param(("parse", "{ (*,*) ; A[" + "1" * 5000 + ",2] ; [1,1] ; (*,*) }", "-n", "2"),
                 None, 1, "error: bad braid letter 'A[" + "1" * 5000 + ",2]' (line 1, column 10)",
                 id="index past the int digit limit"),
])
def test_error_paths_exit_code_and_last_line(monkeypatch, capsys, argv, patch, code, last_line):
    if patch is not None:
        patch(monkeypatch)
    assert run_cli(*argv) == code
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == last_line
    if patch is _selftest_with_a_violation:
        assert "[FAIL]" in captured.out


def test_render_to_unwritable_path_exit_1(tmp_path, capsys):
    target = tmp_path / "missing" / "x.svg"
    assert run_cli("render", "a", "--svg", str(target), "-n", "2",
                   "--let", "a={ (*,*) ; A[1,2] ; [1,1] ; (*,*) }") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(target) in err and "Traceback" not in err


def test_cmd_cmp_equal(capsys):
    code = run_cli("cmp", "a", "a", "-n", "2",
                   "--let", "a={ (*,*) ; A[1,2] ; [1,1] ; (*,*) }")
    assert code == 0
    assert capsys.readouterr().out.strip() == "equal"


def test_cmd_sign(capsys):
    code = run_cli("sign", "{ (*,*) ; A[1,2]^-1 ; [1,1] ; (*,*) }", "-n", "2")
    assert code == 0
    assert capsys.readouterr().out.strip() == "negative"


def test_cmd_count_verbatim(capsys):
    assert run_cli("count", "--gen1", "-n", "2") == 0
    assert capsys.readouterr().out.strip() == "10"
    assert run_cli("count", "--gen3", "-n", "3") == 0
    assert capsys.readouterr().out.strip() == "19"
    assert run_cli("count", "--irreducible", "-n", "2") == 0
    assert capsys.readouterr().out.strip() == "8"
    assert run_cli("count", "--gen2", "-n", "3", "-k", "3") == 0
    assert capsys.readouterr().out.strip() == "25"
    assert run_cli("count", "--gen2", "-n", "2", "-k", "0") == 0
    assert capsys.readouterr().out.strip() == "10"
    assert run_cli("count", "--gen2", "-n", "3", "--hgen", "h1=A[1,2]", "--hgen", "h2=A[2,3]") == 0
    assert capsys.readouterr().out.strip() == "22"


def test_cmd_mul_inv_reduce(capsys):
    let = "a={ (*,*) ; A[1,2] ; [h1,1] ; (*,*) }"
    assert run_cli("mul", "a", "a", "-n", "2", "--hgen", "h1=A[1,2]",
                   "--let", let) == 0
    capsys.readouterr()
    assert run_cli("inv", "a", "-n", "2", "--hgen", "h1=A[1,2]", "--let", let) == 0
    out = capsys.readouterr().out
    assert "A[1,2]^-1" in out and "h1^-1" in out
    assert run_cli("reduce", "a", "-n", "2", "--hgen", "h1=A[1,2]", "--let", let) == 0
    capsys.readouterr()


def test_cmd_expand_and_json(capsys):
    let = "a={ (*,*) ; A[1,2] ; [1,1] ; (*,*) }"
    assert run_cli("expand", "a", "1", "-n", "2", "--let", let, "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["arity"] == 2
    assert bf.from_json(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def test_cmd_decompose_verify(capsys):
    let = "a={ ((*,*),*) ; A[1,2] A[2,3]^-1 ; [1,1,1] ; (*,(*,*)) }"
    assert run_cli("decompose", "a", "--set", "gen1", "-n", "2",
                   "--let", let, "--verify") == 0
    out = capsys.readouterr().out
    assert out.strip()


def test_cmd_decompose_json_and_context_mismatch(capsys):
    let = "a={ ((*,*),*) ; A[1,2] A[2,3]^-1 ; [1,1,1] ; (*,(*,*)) }"
    assert run_cli("decompose", "a", "--set", "gen1", "-n", "2", "--json", "--let", let) == 0
    assert capsys.readouterr().out.strip() == (
        '{"word": [-1, 4, -6], "names": ["~f1", "b3_1_2", "~b3_2_3"]}')
    # gen1 has no labels, so a session with label generators cannot use it
    assert run_cli("decompose", "a", "--set", "gen1", "-n", "2", "--hgen", "h1=A[1,2]",
                   "--let", let) == 2
    assert "declare matching --hgen flags" in capsys.readouterr().err


def test_cmd_gens(capsys):
    assert run_cli("gens", "--set", "gen3", "-n", "2") == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 9
    assert "f1:" in out and "l1_a1_2:" in out


def test_cmd_selftest_small(capsys):
    code = run_cli("selftest", "--suite", "groupaxioms", "-n", "2",
                   "--samples", "5", "--seed", "7")
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out


def test_cmd_selftest_generating_json(capsys):
    code = run_cli("selftest", "--suite", "generating", "-n", "2",
                   "--samples", "3", "--seed", "5", "--json")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert [suite["params"]["set"] for suite in doc] == ["gen1", "gen2", "gen3"]
    for suite in doc:
        assert suite["name"] == "generating" and suite["passed"]
        assert [check["violations"] for check in suite["checks"]] == [0]
        assert type(suite["params"]["max_word_length"]) is int
        assert suite["params"]["max_word_length"] > 0


def test_cmd_selftest_json_with_a_violation_prints_only_the_document(monkeypatch, capsys):
    _selftest_with_a_violation(monkeypatch)
    assert run_cli("selftest", "--suite", "orders", "--seed", "1", "--json") == 2
    captured = capsys.readouterr()
    assert [suite["passed"] for suite in json.loads(captured.out)] == [False]
    assert captured.err.splitlines()[-1] == "verification failure: selftest suite reported violations"


def test_cmd_render_svg(tmp_path, capsys):
    let = "a={ (*,*) ; A[1,2] ; [h1,1] ; (*,*) }"
    target = tmp_path / "out.svg"
    assert run_cli("render", "a", "--svg", str(target), "-n", "2",
                   "--hgen", "h1=A[1,2]", "--let", let) == 0
    capsys.readouterr()
    document = target.read_text()
    assert document.startswith("<svg")
    assert document.count('class="aletter"') == 1
    assert "h1" in document


# --- renderer structure

def test_render_identity_has_no_crossings():
    x = bf.identity_element(bf.pn_context(2), Tree.caret(2))
    document = render_svg(x)
    assert 'class="aletter"' not in document
    assert 'class="strand-label"' not in document
    assert 'class="caret-edge"' in document


def test_render_counts_match_content():
    ctx = bf.pn_context(2)
    caret = Tree.caret(2)
    x = bf.BFElement(ctx, caret, AWord(2, ((1, 2, 1), (1, 2, -1))),
                     ((1,), ()), caret)
    document = render_svg(x)
    assert document.count('class="aletter"') == 2
    assert document.count('class="strand-label"') == 1
    # every caret of both trees appears: one caret per tree, two edges each
    assert document.count('class="caret-edge"') == 4


def test_render_three_strands_draws_the_idle_strand():
    t = Tree.caret(2).attach(1)
    x = bf.BFElement(bf.trivial_context(2), t, AWord(3, ((1, 3, 1),)), ((),) * 3, t)
    document = render_svg(x)
    assert document.count('class="aletter"') == 1
    # A[1,3] is drawn as 4 crossing rows of 3 strands: two cross, one stays idle
    assert document.count('class="strand under"') == 8
    assert document.count('class="strand over"') == 4
    assert document.count('class="strand"') == 4
    assert document.count('class="caret-edge"') == 8


def test_render_text_mentions_labels():
    ctx = bf.pn_context(2)
    caret = Tree.caret(2)
    x = bf.BFElement(ctx, caret, AWord(2, ()), ((1,), ()), caret)
    text = render_text(x)
    assert "label 1: a1_2" in text


def _tree_edges_by_addresses(tree, xs, top, bottom, mirror):
    """Oracle: the caret edges placed through the leaf addresses and every node's prefix."""
    span = (bottom - top) / (max(tree.depths) or 1)
    leaf_y = bottom if not mirror else top
    pos = {leaf: (x, leaf_y) for x, leaf in zip(xs, tree.leaves)}
    nodes = sorted(frozenset({leaf[:k] for leaf in pos for k in range(len(leaf) + 1)}),
                   key=len, reverse=True)
    for node in nodes:
        if node in pos:
            continue
        children = [pos[node + (d,)] for d in range(tree.arity)]
        x = sum(c[0] for c in children) / len(children)
        y = top + span * len(node) if not mirror else bottom - span * len(node)
        pos[node] = (x, y)
    paths = []
    for node in nodes:
        if node == ():
            continue
        x1, y1 = pos[node[:-1]]
        x2, y2 = pos[node]
        paths.append(
            f'<line class="caret-edge" x1="{x1:.1f}" y1="{y1:.1f}" '
            f'x2="{x2:.1f}" y2="{y2:.1f}" stroke="black"/>')
    return paths


@pytest.mark.parametrize("n", (2, 3, 4))
def test_render_tree_edges_match_the_address_oracle(monkeypatch, n):
    # The elements of test_render_svg_output_is_pinned: each tree of each
    # diagram draws the oracle's edges, in its own fixed order.
    calls = []
    tree_edges = render._tree_edges

    def recorded(tree, xs, top, bottom, mirror):
        args = (tree, xs, top, bottom, mirror)
        calls.append((args, tree_edges(*args)))
        return calls[-1][1]

    monkeypatch.setattr(render, "_tree_edges", recorded)
    for seed in range(40):
        render_svg(gen.random_element(bf.pn_context(n), seed, max_leaves=13))
    assert len(calls) == 80
    for args, edges in calls:
        assert sorted(edges) == sorted(_tree_edges_by_addresses(*args))


SVG_DIGESTS = {
    2: "6e7ade1d431af97d65af3cd35154d05137b7273be57cebf2f7d16cc0f287b9bd",
    3: "88edb7b99ca570f7d7fdcd8b7eb3ae624070b415d91161a66da92a3478176edf",
    4: "b483510ad3a733729bd8f5066010639cbda40d572b9ccf9fce2a56ece5634e53",
}


@pytest.mark.parametrize("n", sorted(SVG_DIGESTS))
def test_render_svg_output_is_pinned(n):
    # Every byte of the diagrams of 40 seeded elements of up to 13 leaves,
    # caret edges and their order included.
    digest = hashlib.sha256()
    for seed in range(40):
        x = gen.random_element(bf.pn_context(n), seed, max_leaves=13)
        digest.update(render_svg(x).encode())
    assert digest.hexdigest() == SVG_DIGESTS[n]


# --- fuzzing: every input ends in a documented exit code, never a traceback

FUZZ_ELEMENTS = [
    "{ * ; ; [1] ; * }",
    "{ (*,*) ; A[1,2] ; [h1,1] ; (*,*) }",
    "{ ((*,*),*) ; A[1,2] A[2,3]^-1 ; [1,1,1] ; (*,(*,*)) }",
    "{ (*,*,*) ; A[1,3]^-1 ; [1,1,1] ; (*,*,*) }",
] + [format_element(gen.random_element(bf.pn_context(2), seed, max_leaves=5,
                                       max_braid_letters=4, max_label_letters=2))
     for seed in range(4)]
FUZZ_PIECES = list("{}()[];,*^-1A ") + ["A[1,2]", "A[2,9]", "A[0,1]", "^-1", "h1", "a1_2",
                                         "(*,*)", "9" * 30]
FUZZ_COMMON_FLAGS = [
    ("-n", "2"), ("-n", "3"), ("--hgen", "h1=A[1,2]"), ("--hgen", "a1_2=A[1,2]"),
    ("--let", "a={ (*,*) ; A[1,2] ; [1,1] ; (*,*) }"), ("--json",),
]
FUZZ_BAD_FLAGS = [
    ("-n", "1"), ("-n", "x"), ("--hgen", "h1"), ("--hgen", "h1=A[1,7]"), ("--hgen", "=A[1,2]"),
    ("--hgen", "x^-1=A[1,2]"),
    ("--let", "a"), ("--let", "a=a"), ("--set", "gen4"), ("-k", "-1"), ("--bogus",),
]
FUZZ_SETS = [("--set", "gen1"), ("--set", "gen2"), ("--set", "gen3")]
# command -> (element operands it takes, its own flags, a flag it needs)
FUZZ_COMMANDS = {
    "parse": (1, [], None), "inv": (1, [], None), "reduce": (1, [], None),
    "sign": (1, [("--pvb",)], None), "mul": (2, [("--reduce",)], None), "cmp": (2, [], None),
    "expand": (1, [], None), "decompose": (1, [("--verify",)], FUZZ_SETS), "gens": (0, [], FUZZ_SETS),
    "count": (0, [("-k", "2")], [("--gen1",), ("--gen2",), ("--gen3",), ("--irreducible",)]),
    "render": (1, [("--format", "text"), ("--format", "svg")], None),
    "bogus": (0, [], None),
}


@st.composite
def element_texts(draw):
    chars = list(draw(st.sampled_from(FUZZ_ELEMENTS)))
    for _ in range(draw(st.integers(0, 3))):
        position = draw(st.integers(0, len(chars)))
        if draw(st.booleans()) or not chars:
            chars.insert(position, draw(st.sampled_from(FUZZ_PIECES)))
        else:
            del chars[min(position, len(chars) - 1)]
    return "".join(chars)


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(list(FUZZ_COMMANDS)))
    operand_count, own_flags, needed = FUZZ_COMMANDS[command]
    operands = st.one_of(element_texts(), element_texts(), st.sampled_from(["a", "b", "1"]),
                         st.text(max_size=8))
    count = draw(st.sampled_from([operand_count] * 3 + [operand_count + 1,
                                                         max(operand_count - 1, 0)]))
    argv = [command] + draw(st.lists(operands, min_size=count, max_size=count))
    if command == "expand":
        argv.append(draw(st.sampled_from(["1", "2", "3", "0", "9", "x"])))
    flags = draw(st.lists(st.sampled_from(FUZZ_COMMON_FLAGS + own_flags), max_size=4, unique=True))
    if needed:
        flags.append(draw(st.sampled_from(needed)))
    if draw(st.integers(0, 3)) == 3:
        flags.append(draw(st.sampled_from(FUZZ_BAD_FLAGS)))
    for flag in flags:
        argv += flag
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command_lines())
def test_fuzz_cli_ends_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # only argparse's own help and version exits
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()


# --- parsers: one command's alone, or all of them

def _parsed(parser, argv):
    """The namespace a parser reads off argv, or the message of its usage error."""
    try:
        return vars(parser.parse_args(argv))
    except CliSyntaxError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command_lines())
def test_one_command_parser_reads_fuzzed_argv_as_the_full_parser(argv):
    if argv[0] in cli.COMMANDS:
        assert _parsed(cli.build_parser(argv[0]), argv) == _parsed(cli.build_parser(), argv)


def _readme_command_lines():
    """The argv of each command in the README's "Command line" block."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    readme = open(path, encoding="utf-8").read()
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    return [shlex.split(line.partition(" #")[0])[1:]
            for line in block.replace("\\\n", " ").splitlines()]


@pytest.mark.parametrize("argv", _readme_command_lines(), ids=lambda argv: argv[0])
def test_one_command_parser_reads_the_readme_examples_as_the_full_parser(argv):
    parsed = _parsed(cli.build_parser(argv[0]), argv)
    assert isinstance(parsed, dict) and parsed == _parsed(cli.build_parser(), argv)


@pytest.mark.parametrize("argv, built", [
    (["count", "--gen1", "-n", "2"], ["count"]),
    (["sign", "{ * ; ; [1] ; * }", "--bogus"], ["sign"]),
    (["nonsense"], list(cli.COMMANDS)),
    ([], list(cli.COMMANDS)),
    (["--help"], list(cli.COMMANDS)),
])
def test_main_builds_the_named_command_parser_alone(monkeypatch, capsys, argv, built):
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def recording(self, name, **options):
        names.append(name)
        return add_parser(self, name, **options)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording)
    try:
        main(argv)
    except SystemExit:  # --help
        pass
    capsys.readouterr()
    assert names == built


# sha256 of each help text under COLUMNS=80 on CPython 3.11, taken when every
# run still built all twelve subparsers; argparse's layout differs across versions.
HELP_DIGESTS = {
    "": "a0f0421d442525314889fa63b682dc87001648f38e2d97e3dcd2ab2e1dd88bb5",
    "parse": "b1d299b592ea9e5945ca57665d507cdccca07de5c5d86f5495360fe0837c2ac3",
    "mul": "cfbb24d34da370f8caa4853be746b27d30e28125ee24f117a22eb57b2e133e5a",
    "inv": "9c8d3e3f01c237a3e98bd1d2515b9ad3790d39fa5bb232e2033f7ded2f0b9d9e",
    "cmp": "cfa39abc375ae90c3b38587dfae30f70e679185fad8bd4d6d45ad669fb7dbb55",
    "sign": "c0b058a2df97cddc36fc25bc631e75ef6544a93f8591b0b508094c363227d33f",
    "reduce": "29b5e13afc8df306ebb5b999bd4a141292d2a79aceb311f576f80ec7215d3bdd",
    "expand": "7a9dcff81b15708995b404019c624e81d4b62d51038135e7d161e0b35bbe7ba2",
    "decompose": "b05e0c67608eaed903e37580c3167daccab4398ce5a95ca6c7a01255f8c1f62d",
    "gens": "52eaff073d8672017a24b2931dd1d54eee8ae84863d5c859a9b37054f30bfa5c",
    "count": "cb7edf38bb42357d0304cdceb1f09fa36fc4d036477302a9dc79112a03ec31cf",
    "render": "e5ed39c306e056e2aa7464fe687e87be0815f68aaec89ff6974d42316b04b9dd",
    "selftest": "051ad6db29643c1bd49124b9849facfcaae049fe2e16816f6d0cd33c299c5a7a",
}


def _help(run, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as caught:
        run(argv)
    assert caught.value.code == 0
    return out.getvalue()


@pytest.mark.parametrize("command", ["", *cli.COMMANDS], ids=lambda c: c or "bfcalc")
def test_help_is_pinned_and_the_full_parser_prints_it_too(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    text = _help(main, argv)
    assert text.startswith(f"usage: bfcalc {command}".rstrip() + " ")
    assert text == _help(cli.build_parser().parse_args, argv)
    if sys.version_info[:2] == (3, 11):
        assert hashlib.sha256(text.encode()).hexdigest() == HELP_DIGESTS[command]
