"""
Signed-letter words of free groups, the sign and error classes shared by
every layer, the value-class decorator and the memo class.  Words are
sequences of nonzero signed integers: the letter k stands for the k-th
generator and -k for its inverse.  Reduced free words, the truncated
Magnus image of a word (a dict from monomial to coefficient) and the Magnus
sign live in the combing module; magnus_sign and magnus_truncated are read
through this module's __getattr__ for the benchmark's per-layer tracer,
which names them here.

Every value class of the library is declared with `_value_class`: its
annotated fields, in order (`cls._fields`), become slots of a plain base
class that the frozen public class derives from, adding no slots, and one
compile per class generates `__init__` (class-level defaults, then the
validating `__post_init__`), the builder `_new(*fields)`, which skips
validation and is only for values assembled from valid values, and `__eq__`
and `__hash__` over the field tuple.  `_new` stores the fields by plain
attribute assignment on a base instance, then switches its class to the
public one: cheaper than a slot descriptor call per field.  One shared
`__repr__` writes the fields as dataclasses does.  Setting or deleting an
attribute raises FrozenInstanceError; pickling and copying call the public
class, so they validate.

Every memo of the library is a Memo, which keeps one rule: a missing value
is computed by the memo's `make`, and stored only while the memo holds
fewer than MEMO_ENTRIES entries and the value comes from at most MEMO_LEAVES
leaves, strands or letters.  Past either bound the value is computed on
every use and never stored; an error is never stored.  A memo of checked
rule instances sizes an entry by the few ints it holds, so it keeps every
instance it checks until it is full.  A hit is a plain dict lookup.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import neg

NEGATIVE, ZERO, POSITIVE = -1, 0, 1

Letters = list[int] | tuple[int, ...]

MEMO_LEAVES = 32  # no value from more leaves, strands or letters is stored
MEMO_ENTRIES = 2048  # per memo


class WordError(ValueError):
    """Raised for letters outside the declared rank."""


class TruncationError(RuntimeError):
    """Raised when sign determination exceeds its truncation-degree cap."""


class SchemaError(RuntimeError):
    """Raised when a rewrite-rule instance fails its oracle check."""


class FrozenInstanceError(AttributeError):
    """Raised on setting or deleting an attribute of a value."""


def _value_repr(self):
    return self.__class__.__qualname__ + "(" + ", ".join(
        f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"


def _value_reduce(self):
    return self.__class__, tuple(getattr(self, name) for name in self._fields)


def _value_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _value_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _value_class(cls):
    """
    Rebuild `cls` as a value class (module docstring).  Names in its own
    __slots__ become extra slots outside the fields, for caches; its
    _fill_slots method, if it has one, runs after __post_init__ and in _new.
    """
    names, extra = tuple(cls.__annotations__), tuple(cls.__dict__.get("__slots__", ()))
    dropped = (*names, *extra, "__dict__", "__weakref__")
    body = {k: v for k, v in cls.__dict__.items() if k not in dropped}
    body.update(__slots__=(), __qualname__=cls.__qualname__, _fields=names,
                __repr__=_value_repr, __reduce__=_value_reduce, __setattr__=_value_setattr,
                __delattr__=_value_delattr)
    base = type(cls)(f"_{cls.__name__}Slots", cls.__bases__,
                     {"__slots__": names + extra, "__module__": cls.__module__})
    new = type(cls)(cls.__name__, (base,), body)
    scope = {f"_set_{n}": getattr(new, n).__set__ for n in names}
    scope.update({f"_dflt_{n}": cls.__dict__[n] for n in names if n in cls.__dict__},
                 _cls=new, _base=base, _make=object.__new__, __name__=cls.__module__)
    sets = "".join(f"\n    _set_{n}(self, {n})" for n in names)
    stores = "".join(f"\n    self.{n} = {n}" for n in names)
    own, other = (", ".join(f"{obj}.{n}" for n in names) + "," for obj in ("self", "other"))
    params = ", ".join(n + (f"=_dflt_{n}" if f"_dflt_{n}" in scope else "") for n in names)
    fill = "\n    self._fill_slots()" if "_fill_slots" in body else ""
    source = (f"def __init__(self, {params}):{sets}\n    self.__post_init__(){fill}\n"
              f"def _new({', '.join(names)}):\n    self = _make(_base){stores}\n"
              f"    self.__class__ = _cls{fill}\n    return self\n"
              f"def __eq__(self, other):\n    if other.__class__ is self.__class__:\n"
              f"        return ({own}) == ({other})\n    return NotImplemented\n"
              f"def __hash__(self):\n    return hash(({own}))\n")
    exec(compile(source, f"<{cls.__name__}>", "exec"), scope, made := {})  # named in profiles
    for name, function in made.items():
        function.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(new, name, staticmethod(function) if name == "_new" else function)
    return new


class Memo(dict):
    """A dict that computes a missing value by make(key) -> (value, size) (module docstring)."""
    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value, size = self.make(key)
        if size <= MEMO_LEAVES and len(self) < MEMO_ENTRIES:
            self[key] = value
        return value


def _is_int_tuple(value) -> bool:
    """A tuple of ints, bools excluded: what public constructors require of a word."""
    return type(value) is tuple and all(type(v) is int for v in value)


def reduce_onto(out: list[int], *parts: Iterable[int]) -> list[int]:
    """
    Append the parts letter by letter to `out`, cancelling each letter
    against the end of the list, and return `out`.  When `out` starts
    freely reduced, it ends freely reduced.
    """
    for part in parts:
        for letter in part:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
    return out


def reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a sequence of signed letters."""
    return tuple(reduce_onto([], letters))


def invert_letters(letters: Letters) -> Letters:
    """
    The inverse word: letters reversed, each inverted, as a list for a list
    and a tuple for a tuple.
    """
    return type(letters)(map(neg, reversed(letters)))


def _lazy_getattr(owner: str, homes: dict[str, str]):
    """The module __getattr__ (PEP 562) of `owner`: a name of `homes` loads the module named."""
    def __getattr__(name: str):
        if name not in homes:
            raise AttributeError(f"module {owner!r} has no attribute {name!r}")
        from importlib import import_module
        return getattr(import_module(f".{homes[name]}", __package__), name)
    return __getattr__


__getattr__ = _lazy_getattr(__name__, dict.fromkeys(("magnus_sign", "magnus_truncated"), "combing"))
