"""Prime-labeled rooted trees: bijective codecs for integers and positive
rationals, a grafting/raising forest algebra, bounded-height forest
generation, a combinatorial prime sieve, and a duplicate-free enumeration
of Q+.
"""

from .codec import (
    encode_integer,
    encode_rational,
    eval_integer_tree,
    eval_rational_tree,
    factor,
)
from .errors import (
    DomainError,
    InverseLabelPresent,
    MisplacedInverse,
    NotPrime,
    ParseError,
    SiblingCollision,
    SizeOverBudget,
    ZeroInput,
)
from .forest_algebra import (
    Forest,
    graft_forests,
    raise_forest,
)
from .generator import (
    all_valid_trees_bruteforce,
    g_count,
    g_forest,
)
from .primes import prime_by_index, prime_index_of
from .rationals import (
    calkin_wilf_stream,
    h_count,
    h_forest,
    minimal_stage,
    rational_stream,
    rational_tree_stream,
)
from .sieve import (
    combinatorial_sieve,
    composites_in_window,
    eratosthenes,
    literal_fixpoint_sieve,
)
from .tree_core import (
    Label,
    Tree,
    graft,
    label_tree,
    parse_sexpr,
    to_sexpr,
)

__version__ = "0.1.0"
