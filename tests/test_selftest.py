"""The self-test's law rows report violations when the law they check is broken."""

import functools
import types

import pytest

from bfcalc import bfgroup as bf
from bfcalc import selftest


def _intransitive(a, b):
    """Orders leaf counts around a cycle mod 3, so some drawn triples break transitivity."""
    return (bf.EQUAL, bf.LESS, bf.GREATER)[(b.leaf_count - a.leaf_count) % 3]


def _to_identity(x, y):
    return bf.identity_element(x.context)


_orders = functools.partial(selftest.orders_suite, 2, "pn", 12, 7)
_signs = functools.partial(selftest.sign_stability_suite, 2, 12, 7)
_axioms = functools.partial(selftest.group_axioms_suite, 2, "pn", 12, 7)
_generating = functools.partial(selftest.generating_suite, 2, "gen1", 5, 3)


BROKEN_LAWS = [
    (_orders, "trichotomy and antisymmetry", "bf.inverse", lambda x: x),
    (_orders, "positive cone is a semigroup", "bf.multiply", _to_identity),
    (_orders, "conjugation invariance of the sign", "bf.multiply", _to_identity),
    (_orders, "transitivity of compare", "bf.compare", _intransitive),
    (_orders, "two-sided bi-invariance", "bf.multiply", _to_identity),
    (_signs, "bf sign invariant under expansion", "bf.expand", lambda x, i: bf.inverse(x)),
    (_signs, "pvb sign invariant under expansion", "bf.expand", lambda x, i: bf.inverse(x)),
    (_axioms, "associativity", "bf.multiply", lambda x, y: bf.multiply(bf.inverse(x), y)),
    (_axioms, "two-sided identity", "bf.multiply", lambda x, y: x),
    (_axioms, "two-sided inverse", "bf.inverse", lambda x: x),
    (_generating, "decomposition round trips", "gen.evaluate_word",
     lambda word, genset: bf.identity_element(genset.context)),
]


@pytest.mark.parametrize("suite,label,name,broken", BROKEN_LAWS,
                         ids=[label for _, label, _, _ in BROKEN_LAWS])
def test_a_broken_law_is_reported(monkeypatch, suite, label, name, broken):
    # Only the self-test sees the broken function; the draws use the real library.  On
    # bi-invariance every one of the six comparisons per pair fails, so the total must count six.
    module, attr = name.split(".")
    real = vars(getattr(selftest, module))
    monkeypatch.setattr(selftest, module, types.SimpleNamespace(**{**real, attr: broken}))
    result = suite()
    [check] = [c for c in result.checks if c.label == label]
    assert 0 < check.violations <= check.total
    assert not result.passed


def test_run_suite_all_runs_every_suite_in_order():
    names = [r.name for r in selftest.run_suite("all", 2, 1, 3)]
    assert names == ["generating"] * 3 + ["orders"] * 2 + ["signstability", "braidlayer"] + [
        "groupaxioms"] * 2
    with pytest.raises(ValueError, match="unknown suite"):
        selftest.run_suite("bogus", 2, 1, 3)
