"""Differential test of rado._pack, which builds each packed int by
Horner's rule, against the sum of powers of the base that it replaced.

Both give the same int for every vector, and a subset of the vectors sums
to the zero vector exactly when its packed ints sum to zero, so the least
zero-sum mask found on the packed ints is the least one found by trying
every mask on the vectors themselves.
"""

import random

from radokit.rado import _least_zero_sum, _pack


def old_pack(vectors):
    """The packing before Horner's rule: base**i for every entry."""
    bound = max((abs(x) for vec in vectors for x in vec), default=0)
    base = 2 * len(vectors) * bound + 1
    return [sum(x * base**i for i, x in enumerate(vec)) for vec in vectors]


def least_zero_sum_by_brute_force(vectors):
    dims = len(vectors[0]) if vectors else 0
    for mask in range(1, 1 << len(vectors)):
        members = [vec for j, vec in enumerate(vectors) if mask >> j & 1]
        if all(sum(vec[i] for vec in members) == 0 for i in range(dims)):
            return mask
    return None


def random_residuals(rng):
    """k vectors of one dimension, 0 to 5, with negative entries, zero
    vectors, and now and then an entry of up to 40 digits."""
    k, dims = rng.randint(0, 10), rng.choice((0, 1, 1, 2, 3, 4, 5))
    vectors = []
    for _ in range(k):
        roll = rng.random()
        if roll < 0.15:
            vec = [0] * dims
        elif roll < 0.25 and vectors:
            vec = [-x for x in rng.choice(vectors)]
        else:
            vec = [rng.randint(-4, 4) for _ in range(dims)]
            if dims and rng.random() < 0.1:
                vec[rng.randrange(dims)] = rng.randint(-10**40, 10**40)
        vectors.append(vec)
    return vectors


def test_pack_matches_the_sum_of_powers():
    rng = random.Random(23102026)
    cases = [[], [[]], [[], []], [[0]], [[5], [-5]], [[0, 0], [0, 0]],
             [[1, -1, 0], [-1, 1, 0], [0, 0, 0]], [[-10**40, 3], [10**40, -3]]]
    cases += [random_residuals(rng) for _ in range(2000)]
    found = 0
    for vectors in cases:
        packed = _pack(vectors)
        assert packed == old_pack(vectors), vectors
        mask = _least_zero_sum(packed)
        assert mask == _least_zero_sum(old_pack(vectors)), vectors
        assert mask == least_zero_sum_by_brute_force(vectors), vectors
        found += mask is not None
    assert 500 <= found <= len(cases) - 500, found
