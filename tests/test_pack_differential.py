"""Differential test of rado._pack, which drops columns by the sign lemma
and builds each candidate's packed int by Horner's rule, against the sum of
powers of the base that it replaced and against trying every mask.

Both packings give the same int for every candidate, every zero-sum subset
of the columns lies within the candidates, and no row is one-signed on
them.  A subset of the candidates sums to the zero vector exactly when its
packed ints sum to zero, so the least zero-sum mask found on the packed
ints, read over the candidates, is the least one found by trying every
mask on all the columns.
"""

import random

from radokit.rado import _least_zero_sum, _pack


def old_pack(vectors):
    """The packing before Horner's rule: base**i for every entry."""
    bound = max((abs(x) for vec in vectors for x in vec), default=0)
    base = 2 * len(vectors) * bound + 1
    return [sum(x * base**i for i, x in enumerate(vec)) for vec in vectors]


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


def zero_sum_masks(vectors):
    """Every nonempty mask whose vectors sum to zero, in ascending order."""
    dims = len(vectors[0]) if vectors else 0
    for mask in range(1, 1 << len(vectors)):
        members = [vec for j, vec in enumerate(vectors) if mask >> j & 1]
        if all(sum(vec[i] for vec in members) == 0 for i in range(dims)):
            yield mask


def one_signed(rng, vectors):
    """The vectors with one coordinate made nonnegative or nonpositive in
    all of them, so that the sign lemma cuts."""
    if not vectors or not vectors[0]:
        return vectors
    i, sign = rng.randrange(len(vectors[0])), rng.choice((1, -1))
    return [vec[:i] + [sign * abs(vec[i])] + vec[i + 1:] for vec in vectors]


def test_pack_matches_the_sum_of_powers():
    rng = random.Random(23102026)
    cases = [[], [[]], [[], []], [[0]], [[5], [-5]], [[0, 0], [0, 0]],
             [[1, -1, 0], [-1, 1, 0], [0, 0, 0]], [[-10**40, 3], [10**40, -3]],
             [[1, 0], [2, 1], [-3, -1]], [[1, -1], [-1, 0], [0, 1]]]
    cases += [random_residuals(rng) for _ in range(1000)]
    cases += [one_signed(rng, random_residuals(rng)) for _ in range(1000)]
    found = cut = 0
    for vectors in cases:
        rows = [list(row) for row in zip(*vectors)]
        width = len(vectors) + rng.randint(0, 3)
        cols = sorted(rng.sample(range(width), len(vectors)))
        rest = [[0] * width for _ in rows]
        for row, full in zip(rows, rest):
            for j, x in zip(cols, row):
                full[j] = x
        cand, packed = _pack(rest, cols)
        keep = [j in cand for j in cols]
        assert set(cand) <= set(cols) and cand == sorted(cand), vectors
        kept = [vec for vec, k in zip(vectors, keep) if k]
        assert packed == old_pack(kept), vectors
        for full in rest:
            signs = {x > 0 for j, x in enumerate(full) if j in cand and x}
            assert len(signs) != 1, vectors
        for mask in zero_sum_masks(vectors):
            assert all(keep[j] for j in range(len(vectors)) if mask >> j & 1), vectors
        mask = _least_zero_sum(packed)
        if mask is not None:
            mask = sum(1 << cols.index(j) for p, j in enumerate(cand) if mask >> p & 1)
        assert mask == next(zero_sum_masks(vectors), None), vectors
        found += mask is not None
        cut += len(cand) < len(cols)
    assert 500 <= found <= len(cases) - 500, found
    assert 500 <= cut <= len(cases) - 500, cut
