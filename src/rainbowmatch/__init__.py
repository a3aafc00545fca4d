"""Rainbow matchings and short-cycle-free partial transversals.

Solvers for three guarantees on properly edge-colored structures:

* a rainbow matching of size equal to the minimum degree, when the
  graph has at least 4*delta - 3 vertices;
* a rainbow matching within 2*delta^(2/3) of the minimum degree, when
  the graph has at least 2*delta vertices;
* a partial transversal of a Latin square with at least
  n - 6*n^((k-1)/k) cells and no cycle of length <= k, plus a fully
  cycle-free variant.

Exact brute-force oracles, validators, seeded generators, and a CLI
(`rainbowmatch`) round out the toolkit. Pure Python, stdlib only.
The solvers' internal steps, states and outcomes are imported from
their own modules (`delta`, `layered`, `transversal`).
"""

from .arith import int_kth_root
from .delta import find_rainbow_matching_delta
from .errors import (
    BadShape,
    BudgetExceeded,
    ColorsExhausted,
    DuplicateEdge,
    ImproperColoring,
    InfeasibleParameters,
    InternalInvariantBroken,
    NotLatin,
    PreconditionViolated,
    RainbowError,
    SelfLoop,
)
from .generators import (
    cyclic_square,
    k4_factorization_pair,
    random_proper_graph,
    random_square,
    split_seed,
    witness_square_4,
)
from .graphs import (
    ColoredGraph,
    RainbowMatching,
    build_graph,
    format_graph,
    min_degree,
    parse_graph,
    validate_rainbow_matching,
)
from .latin import (
    CycleDecomposition,
    LatinSquare,
    PartialTransversal,
    build_square,
    cycles_of,
    parse_latin,
    serialize_latin,
    to_bipartite_factorization,
    validate_transversal,
)
from .layered import find_rainbow_matching_layered, guaranteed_size
from .oracle import (
    OracleBudget,
    max_cyclefree_transversal_exact,
    max_rainbow_matching_exact,
    max_transversal_exact,
)
from .transversal import (
    build_short_cycle_free_transversal,
    corollary_bound,
    cycle_free_transversal,
    default_cycle_bound,
    theorem_bound,
)

__version__ = "0.1.0"

__all__ = [
    "BadShape",
    "BudgetExceeded",
    "ColoredGraph",
    "ColorsExhausted",
    "CycleDecomposition",
    "DuplicateEdge",
    "ImproperColoring",
    "InfeasibleParameters",
    "InternalInvariantBroken",
    "LatinSquare",
    "NotLatin",
    "OracleBudget",
    "PartialTransversal",
    "PreconditionViolated",
    "RainbowError",
    "RainbowMatching",
    "SelfLoop",
    "build_graph",
    "build_short_cycle_free_transversal",
    "build_square",
    "corollary_bound",
    "cycle_free_transversal",
    "cycles_of",
    "cyclic_square",
    "default_cycle_bound",
    "find_rainbow_matching_delta",
    "find_rainbow_matching_layered",
    "format_graph",
    "guaranteed_size",
    "int_kth_root",
    "k4_factorization_pair",
    "max_cyclefree_transversal_exact",
    "max_rainbow_matching_exact",
    "max_transversal_exact",
    "min_degree",
    "parse_graph",
    "parse_latin",
    "random_proper_graph",
    "random_square",
    "serialize_latin",
    "split_seed",
    "theorem_bound",
    "to_bipartite_factorization",
    "validate_rainbow_matching",
    "validate_transversal",
    "witness_square_4",
]
