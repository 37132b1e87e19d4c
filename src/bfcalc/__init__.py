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
    random_element,
    reduce,
    to_json,
    trivial_context,
)
from .braid import (
    AWord,
    CombedForm,
    SigmaWord,
    a_to_sigma,
    artin_image,
    braids_equal,
    comb,
    delete_strand,
    is_pure,
    kr_sign,
    permutation,
    reconstruct,
    shift_embed,
    split_a,
    split_sigma,
)
from .freegroup import (
    FreeWord,
    NCPolynomial,
    magnus_sign,
    magnus_truncated,
    reduce_word,
)
from .generators import (
    GeneratorSet,
    PureGeneratorSpec,
    decompose,
    enumerate_irreducible,
    evaluate_word,
    gen1_set,
    gen2_set,
    gen3_set,
    is_n_irreducible,
    verify_generating,
)
from .trees import (
    Tree,
    TreePair,
    attach_caret,
    brown_generator_pairs,
    fn_factorize,
    fn_sign,
    join,
    pair_inverse,
    pair_is_identity,
    pair_multiply,
    right_comb,
)

__version__ = "0.1.0"
