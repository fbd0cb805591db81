import random
import time
from fractions import Fraction as F

import pytest

import radokit.rado
from conftest import column, oracle_columns_condition, oracle_extends, random_matrix
from linalg_reference import in_span
from radokit.linalg import RatMatrix
from radokit.rado import (
    CCCertificate,
    columns_condition,
    first_entries,
    verify_cc_certificate,
)
from radokit.systems import CoefficientSchedule, SystemSpec
from systems_reference import dense_stacked_matrix, dense_truncated_system
from test_cc_lemma_differential import search_lengths

SCHUR = RatMatrix.from_rows([[1, 1, -1]])


class TestColumnsCondition:
    def test_schur_certificate(self):
        cert = columns_condition(SCHUR)
        assert cert.blocks == ((0, 2), (1,))
        assert cert.witnesses == ((F(1), F(0)),)
        assert verify_cc_certificate(SCHUR, cert)

    def test_no_zero_sum_subset(self):
        assert columns_condition(RatMatrix.from_rows([[1, 1, -3]])) is None

    def test_single_block(self):
        cert = columns_condition(RatMatrix.from_rows([[2, -1, -1]]))
        assert cert.blocks == ((0, 1, 2),)
        assert cert.witnesses == ()

    def test_multirow(self):
        # x+y=z chained with y+z=w: columns 1,3,4 cancel, column 2 spans
        M = RatMatrix.from_rows([[1, 1, -1, 0], [0, 1, 1, -1]])
        cert = columns_condition(M)
        assert cert.blocks == ((0, 2, 3), (1,))
        assert cert.witnesses == ((F(2), F(1), F(0)),)
        assert verify_cc_certificate(M, cert)

    def test_free_used_columns_get_zero_coefficients(self):
        # column 1 is used but not a pivot, so its coefficient is zero
        cert = columns_condition(RatMatrix.from_rows([[2, -2, 1]]))
        assert cert.blocks == ((0, 1), (2,))
        assert cert.witnesses == ((F(1, 2), F(0)),)

    def test_witnesses_follow_the_ascending_used_columns(self):
        # the used columns 0 and 2 are not contiguous; each witness lists
        # the used columns in ascending order, pivots first found
        M = RatMatrix.from_rows([[1, 2, -1, 0, 3], [0, 1, 0, -1, 1]])
        cert = columns_condition(M)
        assert cert.blocks == ((0, 2), (1, 3), (4,))
        assert cert.witnesses == ((F(2), F(0)), (F(1), F(1), F(0), F(0)))
        assert verify_cc_certificate(M, cert)

    def test_column_count_guard(self):
        wide = RatMatrix.from_rows([[0] * 33])
        with pytest.raises(ValueError, match="32"):
            columns_condition(wide)

    def test_no_columns(self):
        assert columns_condition(RatMatrix.from_rows([])) is None

    def test_oracle_agreement(self):
        rng = random.Random(31)
        for _ in range(100):
            M = random_matrix(rng)
            assert (columns_condition(M) is not None) == oracle_columns_condition(M)

    def test_certificates_round_trip(self):
        rng = random.Random(32)
        seen = 0
        for _ in range(150):
            M = random_matrix(rng)
            cert = columns_condition(M)
            if cert is not None:
                seen += 1
                assert verify_cc_certificate(M, cert)
        assert seen > 10

    def test_row_scaling_invariance(self):
        rng = random.Random(33)
        for _ in range(50):
            M = random_matrix(rng)
            i = rng.randrange(M.rows)
            c = F(rng.choice([x for x in range(-3, 4) if x]),
                  rng.randint(1, 3))
            scaled = RatMatrix.from_rows(
                [c * x for x in M.row(k)] if k == i else M.row(k)
                for k in range(M.rows))
            assert columns_condition(scaled) == columns_condition(M)

    def test_no_rows(self):
        cert = columns_condition(RatMatrix(0, 3, ()))
        assert cert.blocks == ((0,), (1,), (2,))
        assert cert.witnesses == ((F(0),), (F(0), F(0)))

    def test_column_permutation_equivariance(self):
        rng = random.Random(34)
        for _ in range(50):
            M = random_matrix(rng)
            perm = list(range(M.cols))
            rng.shuffle(perm)
            P = RatMatrix.from_rows([M.at(i, p) for p in perm]
                                    for i in range(M.rows))
            cert_p = columns_condition(P)
            assert (columns_condition(M) is None) == (cert_p is None)
            if cert_p is None:
                continue
            # relabel the permuted certificate's blocks back to M's columns
            # and check the partition conditions semantically
            blocks = [sorted(perm[j] for j in block) for block in cert_p.blocks]
            assert sorted(j for b in blocks for j in b) == list(range(M.cols))
            total = [sum(M.at(i, j) for j in blocks[0]) for i in range(M.rows)]
            assert all(x == 0 for x in total)
            used: list[int] = list(blocks[0])
            for block in blocks[1:]:
                target = tuple(sum(M.at(i, j) for j in block)
                               for i in range(M.rows))
                assert in_span([column(M, j) for j in used], target) is not None
                used += block


def zero_sum_blocks(M):
    """Every nonempty column subset summing to zero, as sorted index lists."""
    out = []
    for mask in range(1, 1 << M.cols):
        block = [j for j in range(M.cols) if mask >> j & 1]
        if all(sum(M.at(i, j) for j in block) == 0 for i in range(M.rows)):
            out.append(block)
    return out


class TestExtensionLemma:
    """If a matrix has a certificate, every used set whose first block sums
    to zero extends to one; this is what lets columns_condition skip
    backtracking."""

    def accepted(self, seed, count):
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            M = random_matrix(rng, max_rows=2, max_cols=6, lo=-2, hi=2)
            if oracle_columns_condition(M):
                out.append(M)
        return out

    def test_every_zero_sum_first_block_extends(self):
        for M in self.accepted(41, 40):
            for block in zero_sum_blocks(M):
                assert oracle_extends(M, block)

    def test_every_greedy_prefix_extends(self):
        for M in self.accepted(42, 40):
            cert = columns_condition(M)
            used = []
            for block in cert.blocks:
                used += block
                assert oracle_extends(M, used)

    def test_random_admissible_walks_extend(self):
        # any chain, not only the greedy one: random zero-sum first block,
        # then random admissible blocks, checking each used set on the way
        rng = random.Random(43)
        for M in self.accepted(43, 40):
            used = list(rng.choice(zero_sum_blocks(M)))
            while len(used) < M.cols:
                assert oracle_extends(M, used)
                rest = [j for j in range(M.cols) if j not in used]
                blocks = [
                    [rest[i] for i in range(len(rest)) if mask >> i & 1]
                    for mask in range(1, 1 << len(rest))
                ]
                admissible = [
                    b for b in blocks
                    if in_span([column(M, j) for j in used],
                               [sum(M.at(i, j) for j in b) for i in range(M.rows)])
                    is not None
                ]
                used += rng.choice(admissible)


def positive_row(rng, v):
    rows = [[rng.randint(1, 3) for _ in range(v)],
            [rng.randint(-3, 3) for _ in range(v)]]
    rng.shuffle(rows)
    return RatMatrix.from_rows(rows)


def pinned_pair(rng, v):
    cols = [(1, 0), (-1, 0)] + [(rng.randint(2, 3), rng.randint(1, 3))
                                for _ in range(v - 2)]
    rng.shuffle(cols)
    return RatMatrix.from_rows([[c[0] for c in cols], [c[1] for c in cols]])


class TestWideMatrices:
    """Worst cases at and near the 32-column cap, each within 2 s."""

    BUDGET_S = 2.0

    def timed(self, M):
        start = time.perf_counter()
        cert = columns_condition(M)
        elapsed = time.perf_counter() - start
        assert elapsed < self.BUDGET_S, f"{M.rows}x{M.cols} took {elapsed:.2f}s"
        return cert

    @pytest.mark.parametrize("family", [positive_row, pinned_pair])
    def test_32_column_refusals(self, family):
        rng = random.Random(51)
        for _ in range(3):
            assert self.timed(family(rng, 32)) is None

    @staticmethod
    def mixed_powers_of_two(rng):
        """+-2^j for j < 32 with both signs: binary expansions are unique, so
        no nonempty subset sums to zero, and no sign cuts a column."""
        signs = [1, -1] + [rng.choice((1, -1)) for _ in range(30)]
        rng.shuffle(signs)
        return [s * 2**j for j, s in enumerate(signs)]

    def test_1x32_mixed_powers_of_two(self):
        M = RatMatrix.from_rows([self.mixed_powers_of_two(random.Random(52))])
        assert search_lengths(self.timed, radokit.rado, M) == (None, [32])

    def test_2x32_mixed_sign_refusal(self):
        rng = random.Random(53)
        rows = [self.mixed_powers_of_two(rng),
                [1, -1] + [rng.randint(-3, 3) for _ in range(30)]]
        M = RatMatrix.from_rows(rows)
        assert search_lengths(self.timed, radokit.rado, M) == (None, [32])

    def test_all_zero_1x32(self):
        M = RatMatrix.from_rows([[0] * 32])
        cert = self.timed(M)
        assert cert.blocks == tuple((j,) for j in range(32))
        assert verify_cc_certificate(M, cert)

    @pytest.mark.parametrize("schedule,alpha,cols", [
        (CoefficientSchedule("qpow", 2), 1, 26),
        (CoefficientSchedule("allprimespair"), 2, 27),
    ])
    def test_depth_6_truncations(self, schedule, alpha, cols):
        M = RatMatrix.from_rows(dense_truncated_system(SystemSpec(alpha, 6, schedule)))
        assert M.cols == cols
        cert = self.timed(M)
        assert cert is not None
        assert verify_cc_certificate(M, cert)


class TestVerifyCertificate:
    def test_recompute_accepts(self):
        cert = CCCertificate(((0, 2), (1,)), ((F(1), F(0)),))
        assert verify_cc_certificate(SCHUR, cert)

    def test_nonzero_first_block_rejected(self):
        cert = CCCertificate(((0, 1), (2,)), ((F(1), F(1)),))
        assert not verify_cc_certificate(SCHUR, cert)

    def test_wrong_witness_rejected(self):
        cert = CCCertificate(((0, 2), (1,)), ((F(2), F(0)),))
        assert not verify_cc_certificate(SCHUR, cert)

    def test_incomplete_partition_rejected(self):
        cert = CCCertificate(((0, 2),), ())
        assert not verify_cc_certificate(SCHUR, cert)

    def test_witness_count_mismatch_rejected(self):
        cert = CCCertificate(((0, 2), (1,)), ())
        assert not verify_cc_certificate(SCHUR, cert)

    def test_out_of_range_raises(self):
        cert = CCCertificate(((0, 5),), ())
        with pytest.raises(ValueError):
            verify_cc_certificate(SCHUR, cert)


class TestFirstEntries:
    def test_identity(self):
        report = first_entries(RatMatrix.from_rows([[1, 0], [0, 1]]))
        assert report.entries == ((0, 0, F(1)), (1, 1, F(1)))
        assert report.zero_rows == ()
        assert report.all_equal
        assert report.common_value == 1

    def test_zero_row_flagged(self):
        report = first_entries(RatMatrix.from_rows([[0, 0, 0]]))
        assert report.entries == ()
        assert report.zero_rows == (0,)

    def test_mixed_values(self):
        report = first_entries(RatMatrix.from_rows([[2, 1], [3, 1]]))
        assert report.entries == ((0, 0, F(2)), (1, 0, F(3)))
        assert not report.all_equal
        assert report.common_value is None

    def test_stacked_matrix_first_entries_all_one(self):
        d = CoefficientSchedule.explicit(
            [[F(1, 7), F(2, 7), F(3, 7)],
             [F(1, 11), F(2, 11), F(3, 11)],
             [F(1, 13), F(2, 13), F(3, 13)]]
        )
        stack = RatMatrix.from_rows(dense_stacked_matrix(SystemSpec(3, 4, d)))
        report = first_entries(stack)
        assert report.zero_rows == ()
        assert report.common_value == 1


class TestWeakFirstEntries:
    def test_identity_holds(self):
        assert first_entries(RatMatrix.from_rows([[1, 0], [0, 1]])).condition_holds()

    def test_zero_row_fails(self):
        M = RatMatrix.from_rows([[1, 0], [0, 0]])
        assert not first_entries(M).condition_holds()

    def test_unequal_in_same_column_fails(self):
        M = RatMatrix.from_rows([[2, 1], [3, 1]])
        assert not first_entries(M).condition_holds()

    def test_per_column_reading_vs_strict(self):
        # first entries 1 and 2 sit in different columns: fine per column,
        # rejected when one global constant is demanded
        M = RatMatrix.from_rows([[1, 0], [0, 2]])
        assert first_entries(M).condition_holds()
        assert not first_entries(M).condition_holds(strict=True)

    def test_strict_accepts_constant(self):
        M = RatMatrix.from_rows([[1, 5], [0, 1]])
        assert first_entries(M).condition_holds(strict=True)
