"""
bfcalc: pure braided tree-diagram groups as a calculator.

Elements are quadruples (tree, pure braid, strand labels, tree) over a
declared label subgroup, composed by expanding to common trees.  The
package provides the group operations, the two-level bi-order, the finite
generating families with constructive decomposition, and a command-line
front end.
"""

from .bfgroup import (
    BFElement,
    HContext,
    bf_sign,
    compare,
    equal,
    expand,
    from_json,
    identity_element,
    inverse,
    is_identity,
    multiply,
    pn_context,
    pvb_sign,
    reduce,
    to_json,
    trivial_context,
)
from .braid import (
    AWord,
    SigmaWord,
    a_to_sigma,
    braids_equal,
    delete_strand,
    is_pure,
    kr_sign,
    permutation,
    shift_embed,
    split_a,
    split_sigma,
)
from .freegroup import _lazy_getattr
from .trees import Tree, attach_caret, fn_sign, join, right_comb

__version__ = "0.1.0"

# Names whose module loads on first use: the group alone compiles none of these.
_LAZY = {
    **dict.fromkeys(("FreeWord", "artin_image", "comb", "magnus_sign", "magnus_truncated",
                     "reconstruct", "reduce_word"), "combing"),
    **dict.fromkeys(("brown_generator_pairs", "fn_factorize", "pair_multiply"), "treepairs"),
    **dict.fromkeys(("GeneratorSet", "PureGeneratorSpec", "decompose", "enumerate_irreducible",
                     "evaluate_word", "gen1_set", "gen2_set", "gen3_set", "is_n_irreducible",
                     "random_element", "verify_generating"), "generators"),
}
__getattr__ = _lazy_getattr(__name__, _LAZY)
