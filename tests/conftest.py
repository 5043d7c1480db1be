import random
import warnings

import pytest

from primeforest.primes import prime_by_index
from primeforest.tree_core import SINGLETON, Label, Tree

# hypothesis's pytest plugin imports this module inside its report hook
# when a property fails.  The import can warn (a DeprecationWarning from
# mypy_extensions), which filterwarnings = error turns into an
# INTERNALERROR that ends the session; imported here first, the hook finds
# it loaded and reports the failure
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def random_tree(rng, labels, max_height, stop=0.35):
    """Random valid integer tree over the given prime indices."""
    if max_height == 0 or rng.random() < stop:
        return SINGLETON
    arity = rng.randint(0, min(3, len(labels)))
    if arity == 0:
        return SINGLETON
    picked = rng.sample(list(labels), arity)
    return Tree(tuple((Label(prime_by_index(k)),
                       random_tree(rng, labels, max_height - 1, stop))
                      for k in picked))


@pytest.fixture
def rng():
    return random.Random(20260823)
