import random
from fractions import Fraction as F

import pytest

from conftest import insert_columns, random_matrix
from linalg_reference import format_matrix, rank, rref
from radokit.linalg import RatMatrix, parse_matrix


class TestRatMatrix:
    def test_from_rows_and_accessors(self):
        M = RatMatrix.from_rows([[1, 2], [3, 4]])
        assert (M.rows, M.cols) == (2, 2)
        assert M.at(1, 0) == 3
        assert M.row(0) == (1, 2)

    def test_entries_are_fractions(self):
        M = RatMatrix.from_rows([[1, F(1, 2)]])
        assert all(isinstance(x, F) for x in M.entries)

    def test_keeps_given_fractions_and_converts_ints(self):
        half = F(1, 2)
        M = RatMatrix.from_rows([[half, 2], (half, -1)])
        assert M.entries[0] is half and M.entries[2] is half
        assert [(type(x), x) for x in M.entries[1::2]] == [(F, 2), (F, -1)]

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            RatMatrix.from_rows([[1, 2], [3]])

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(ValueError):
            RatMatrix(2, 2, (F(1),))

    def test_empty(self):
        M = RatMatrix.from_rows([])
        assert (M.rows, M.cols) == (0, 0)


class TestRref:
    """The Fraction rref of tests/linalg_reference.py, from which the naive
    columns-condition oracle takes its ranks."""

    def test_dependent_rows(self):
        R, pivots = rref(RatMatrix.from_rows([[2, 4], [1, 2]]))
        assert R.to_lists() == [[1, 2], [0, 0]]
        assert pivots == [0]

    def test_identity_fixed(self):
        I3 = RatMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        R, pivots = rref(I3)
        assert R == I3
        assert pivots == [0, 1, 2]

    def test_already_echelon(self):
        M = RatMatrix.from_rows([[1, 1, -1]])
        R, pivots = rref(M)
        assert R == M
        assert pivots == [0]

    def test_zero_rows_sink(self):
        R, pivots = rref(RatMatrix.from_rows([[0, 0], [1, 5]]))
        assert R.to_lists() == [[1, 5], [0, 0]]
        assert pivots == [0]

    def test_idempotent_with_increasing_pivots(self):
        rng = random.Random(21)
        for _ in range(50):
            M = random_matrix(rng, max_rows=4, max_cols=5)
            R, pivots = rref(M)
            assert all(a < b for a, b in zip(pivots, pivots[1:]))
            R2, pivots2 = rref(R)
            assert R2 == R and pivots2 == pivots


class TestRank:
    def test_rank_of_transpose(self):
        rng = random.Random(22)
        for _ in range(50):
            M = random_matrix(rng, max_rows=4, max_cols=4)
            assert rank(M) == rank(RatMatrix.from_rows(zip(*M.to_lists())))


def prefix_solve(vectors, target):
    """Write target in the integer column vectors the way columns_condition
    does at a step: lay the vectors out first and the target after them,
    insert the vectors' columns only, in a random order seeded by the
    input, and read the answer off the target's column, or None when a
    rest row leaves it nonzero."""
    k = len(vectors)
    rows = [[vec[i] for vec in vectors] + [t] for i, t in enumerate(target)]
    order = random.Random(repr((vectors, target))).sample(range(k), k)
    pivots, rows = insert_columns(rows, order)
    if any(row[k] for row in rows[len(pivots):]):
        return None
    coeffs = [F(0)] * k
    for row, c in zip(rows, pivots):
        coeffs[c] = F(row[k], row[c])
    return coeffs


class TestPrefixElimination:
    """Inserting the first k columns of wider rows: the rest rows hold the
    later columns' residuals and the pivot rows their coefficients."""

    def test_standard_basis(self):
        assert prefix_solve([(1, 0), (0, 1)], (3, -2)) == [3, -2]

    def test_outside(self):
        assert prefix_solve([(1, 1)], (1, 2)) is None

    def test_overdetermined_consistent(self):
        assert prefix_solve([(1, 0, 1), (0, 1, 1)], (2, 3, 5)) == [2, 3]
        assert prefix_solve([(2, 0, 2), (0, 3, 3)], (1, 1, 2)) == [F(1, 2), F(1, 3)]

    def test_no_used_columns(self):
        rows = [[0, 0], [1, -1]]
        assert insert_columns(rows, []) == ([], [[0, 0], [1, -1]])
        assert rows == [[0, 0], [1, -1]]
        assert prefix_solve([], (0, 0)) == []
        assert prefix_solve([], (1, 0)) is None

    def test_free_variables_pinned_to_zero(self):
        assert prefix_solve([(1, 0), (2, 0), (0, 1)], (3, 4)) == [3, 0, 4]

    def test_later_columns_are_never_pivots(self):
        assert insert_columns([[0, 5, 1], [0, 0, 7]], [0]) \
            == ([], [[0, 5, 1], [0, 0, 7]])
        pivots, rows = insert_columns([[2, 4, 1], [1, 3, 0]], [0])
        assert pivots == [0]
        assert rows[1][0] == 0 and rows[1][1:] != [0, 0]

    def test_witness_soundness_and_rank_agreement(self):
        rng = random.Random(23)
        for _ in range(100):
            dim = rng.randint(1, 4)
            k = rng.randint(0, 4)
            vectors = [tuple(rng.randint(-3, 3) for _ in range(dim))
                       for _ in range(k)]
            target = tuple(rng.randint(-3, 3) for _ in range(dim))
            coeffs = prefix_solve(vectors, target)
            base = RatMatrix.from_rows([[vec[i] for vec in vectors]
                                        for i in range(dim)])
            ext = RatMatrix.from_rows(
                [[vec[i] for vec in vectors] + [target[i]] for i in range(dim)])
            assert (coeffs is not None) == (rank(base) == rank(ext))
            if coeffs is not None:
                for i in range(dim):
                    assert sum(c * vec[i] for c, vec in zip(coeffs, vectors)) \
                        == target[i]


class TestTextFormat:
    def test_parse_basic(self):
        M = parse_matrix("1 1 -1\n0 1/2 3")
        assert M.to_lists() == [[1, 1, -1], [0, F(1, 2), 3]]

    def test_comments_and_blanks_ignored(self):
        M = parse_matrix("# heading\n\n1 2\n  # indented comment\n3 4\n")
        assert M.to_lists() == [[1, 2], [3, 4]]

    def test_empty_text(self):
        assert parse_matrix("") == RatMatrix.from_rows([])

    def test_rejects_bad_token(self):
        with pytest.raises(ValueError):
            parse_matrix("1 x")

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            parse_matrix("1 2\n3")

    def test_round_trip(self):
        rng = random.Random(24)
        for _ in range(20):
            M = random_matrix(rng)
            assert parse_matrix(format_matrix(M)) == M
