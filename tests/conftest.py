import random

import pytest

from primeforest.primes import prime_by_index
from primeforest.tree_core import SINGLETON, Label, Tree


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
