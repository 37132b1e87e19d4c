"""
Per-layer spans recorded from outside the library.

The tracer replaces each function named in TRACED by a wrapper in every
bfcalc module namespace that binds it: ``bfgroup`` binds ``braids_equal``,
``split_a``, ``join`` and ``fn_sign`` through ``from ... import``, and
``Tree.attach`` reaches ``trees.attach_caret`` through the module global.
A span is (function, op, start, end, parent, covered), where ``covered`` is
the time of its direct child spans, including the child's size counting;
self time is the span's duration minus ``covered``.  Spans stay in memory
and are written out when the run ends.

For the `cli` workload, each command runs in its own fresh interpreter
(cli_child.py) under its own tracer, and the parent merges the spans it
writes.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import time

TRACED = {
    "trees": ("join", "expansion_script", "attach_caret", "fn_factorize", "fn_sign",
              "pair_multiply", "pair_reduce"),
    "freegroup": ("magnus_sign", "magnus_truncated"),
    "braid": ("braids_equal", "kr_sign", "comb", "split_a", "delete_strand",
              "a_to_sigma", "artin_image"),
    "bfgroup": ("multiply", "expand", "inverse", "evaluate_product", "equal",
                "is_identity", "bf_sign", "compare", "reduce"),
    "generators": ("decompose", "evaluate_word"),
    "cli": ("parse_element", "format_element", "main"),
}


def crossings(word) -> int:
    """Crossing count of a braid word: A[i,j] spells 2(j - i) crossings."""
    letters = word.letters
    if letters and isinstance(letters[0], tuple):
        return sum(2 * (j - i) for i, j, _ in letters)
    return len(letters)


# Size counters per function.  Keys ending in "_max" merge by max, lists by
# concatenation, anything else by sum.
def _magnus_sign(sizes, args, result):
    sizes["word_letters_max"] = max(sizes.get("word_letters_max", 0), len(args[0].letters))


def _braids_equal(sizes, args, result):
    sizes["crossings_max"] = max(sizes.get("crossings_max", 0), *map(crossings, args[:2]))


def _kr_sign(sizes, args, result):
    sizes["in_letters_max"] = max(sizes.get("in_letters_max", 0), len(args[0].letters))


def _split_a(sizes, args, result):
    sizes["out_letters"] = sizes.get("out_letters", 0) + len(result.letters)


def _reduce(sizes, args, result):
    shrunk = result.leaf_count < args[0].leaf_count
    sizes["shrunk"] = sizes.get("shrunk", 0) + shrunk


def _decompose(sizes, args, result):
    sizes.setdefault("word_letters", []).append(len(result))


SIZE_HOOKS = {
    "freegroup.magnus_sign": _magnus_sign,
    "braid.braids_equal": _braids_equal,
    "braid.kr_sign": _kr_sign,
    "braid.split_a": _split_a,
    "bfgroup.reduce": _reduce,
    "generators.decompose": _decompose,
}

NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns)


class Tracer:
    """Span recorder; wrappers record only while ``recording`` is true."""

    def __init__(self):
        self.spans: list = []
        self.sizes: dict[str, dict] = {name: {} for name in NAMES}
        self.recording = False
        self.op = -1
        self._stack: list[int] = []
        self._covered: list[float] = []

    def install(self) -> None:
        originals = {}
        for module, fns in TRACED.items():
            mod = importlib.import_module("bfcalc." + module)
            for fn in fns:
                originals[id(getattr(mod, fn))] = self._wrap(f"{module}.{fn}", getattr(mod, fn))
        namespaces = [m for name, m in sys.modules.items()
                      if name == "bfcalc" or name.startswith("bfcalc.")]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _wrap(self, name, fn):
        name_id = NAMES.index(name)
        hook = SIZE_HOOKS.get(name)
        sizes = self.sizes[name]
        spans, stack, covered = self.spans, self._stack, self._covered
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            covered.append(0.0)
            result = wrapper  # sentinel: no result yet
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, self.op, start, end, parent, covered.pop())
                if hook is not None and result is not wrapper:
                    hook(sizes, args, result)
                if covered:
                    covered[-1] += clock() - start

        wrapper.__wrapped__ = fn
        return wrapper

    def merge(self, path: str) -> None:
        """Add the spans that a traced CLI command wrote, as part of the current op."""
        with open(path, encoding="utf-8") as handle:
            child = json.load(handle)
        offset = len(self.spans)
        for name_id, _, start, end, parent, cov in child["spans"]:
            self.spans.append((name_id, self.op, start, end,
                               parent + offset if parent >= 0 else -1, cov))
        for name, sizes in child["sizes"].items():
            merge_sizes(self.sizes[name], sizes)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        for name_id, _, start, end, _, cov in self.spans:
            calls[name_id] += 1
            self_s[name_id] += end - start - cov
        out = {}
        for name_id, name in enumerate(NAMES):
            out[name + ".calls"] = (calls[name_id], "count")
            out[name + ".self_s"] = (self_s[name_id], "s")
        size = self.sizes
        reduce_calls = calls[NAMES.index("bfgroup.reduce")]
        words = size["generators.decompose"].get("word_letters", [])
        out.update({
            "freegroup.magnus_sign.word_letters_max":
                (size["freegroup.magnus_sign"].get("word_letters_max", 0), "letters"),
            "braid.braids_equal.crossings_max":
                (size["braid.braids_equal"].get("crossings_max", 0), "crossings"),
            "braid.kr_sign.in_letters_max":
                (size["braid.kr_sign"].get("in_letters_max", 0), "letters"),
            "braid.split_a.out_letters":
                (size["braid.split_a"].get("out_letters", 0), "letters"),
            "bfgroup.reduce.shrunk_frac":
                (size["bfgroup.reduce"].get("shrunk", 0) / reduce_calls if reduce_calls else 0.0,
                 "ratio"),
            "generators.decompose.word_letters_p50":
                (statistics.median(words) if words else 0, "letters"),
            "generators.decompose.word_letters_max": (max(words, default=0), "letters"),
        })
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": NAMES, "fields": ["name", "op", "start", "end", "parent",
                                                  "covered"],
                       "spans": self.spans, "sizes": self.sizes}, handle)


def merge_sizes(into: dict, other: dict) -> None:
    for key, value in other.items():
        if isinstance(value, list):
            into.setdefault(key, []).extend(value)
        elif key.endswith("_max"):
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


def out_dir(root) -> str:
    path = os.path.join(root, ".bench_out")
    os.makedirs(path, exist_ok=True)
    return path

