"""Matrix container tests: CSR, banded storage, Matrix Market round-trips."""

import numpy as np
import pytest

from elastica.sparse import (BandedSymMatrix, MatrixFormatError,
                             SparseSymMatrix, read_matrix_market,
                             write_matrix_market)


def random_symmetric_csr(rng, n=12, density=0.3):
    dense = rng.standard_normal((n, n))
    dense = dense + dense.T
    mask = rng.random((n, n)) < density
    mask = mask | mask.T
    np.fill_diagonal(mask, True)
    dense[~mask] = 0.0
    rows, cols = np.nonzero(dense)
    return SparseSymMatrix.from_coo(n, rows, cols, dense[rows, cols]), dense


class TestSparseSym:
    def test_from_coo_sums_duplicates(self):
        m = SparseSymMatrix.from_coo(2, [0, 0, 1, 0, 1, 0],
                                     [0, 1, 0, 1, 1, 0],
                                     [1.0, 2.0, 3.0, 1.0, 5.0, 1.0])
        dense = m.to_dense()
        assert dense[0, 0] == 2.0 and dense[0, 1] == 3.0
        assert np.array_equal(dense, dense.T)

    def test_rejects_asymmetric(self):
        with pytest.raises(MatrixFormatError):
            SparseSymMatrix.from_coo(2, [0, 1], [1, 0], [1.0, 2.0])

    def test_matvec_matches_dense(self, rng):
        m, dense = random_symmetric_csr(rng)
        x = rng.standard_normal(12)
        assert np.allclose(m.matvec(x), dense @ x, atol=1e-13)
        X = rng.standard_normal((12, 5))
        assert np.allclose(m.matvec(X), dense @ X, atol=1e-13)

    def test_matvec_handles_empty_rows(self):
        m = SparseSymMatrix.from_coo(3, [0, 2, 0, 2], [0, 2, 2, 0],
                                     [1.0, 1.0, 0.5, 0.5])
        out = m.matvec(np.ones(3))
        assert np.allclose(out, [1.5, 0.0, 1.5])
        # leading and trailing empty rows, and no entries at all
        m = SparseSymMatrix.from_coo(4, [1], [1], [2.0])
        assert np.array_equal(m.matvec(np.ones(4)), [0.0, 2.0, 0.0, 0.0])
        m = SparseSymMatrix.from_coo(2, [], [], [])
        assert np.array_equal(m.matvec(np.ones((2, 3))), np.zeros((2, 3)))


class TestBanded:
    def test_round_trip_and_matvec(self, rng):
        dense = rng.standard_normal((9, 9))
        dense = np.triu(dense, -2)
        dense = np.tril(dense.T + dense, 2)
        dense = np.triu(dense.T, -2).T  # symmetric pentadiagonal
        dense = 0.5 * (dense + dense.T)
        dense[np.abs(np.subtract.outer(np.arange(9), np.arange(9))) > 2] = 0
        b = BandedSymMatrix.from_dense(dense)
        assert b.bandwidth == 2
        assert np.allclose(b.to_dense(), dense)
        x = rng.standard_normal((9, 3))
        assert np.allclose(b.matvec(x), dense @ x, atol=1e-13)

    def test_norm1(self, rng):
        dense = np.diag(rng.standard_normal(7))
        dense[2, 1] = dense[1, 2] = 4.0
        b = BandedSymMatrix.from_dense(dense)
        assert b.norm1() == pytest.approx(
            np.abs(dense).sum(axis=0).max(), rel=1e-15)


class TestMatrixMarket:
    def test_round_trip_exact(self, rng, tmp_path):
        m, _ = random_symmetric_csr(rng)
        path = tmp_path / "m.mtx"
        write_matrix_market(path, m, comment="test matrix")
        back = read_matrix_market(path)
        assert back.order == m.order
        assert np.array_equal(back.indptr, m.indptr)
        assert np.array_equal(back.indices, m.indices)
        assert np.array_equal(back.data, m.data)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n1 1\n1.0\n")
        with pytest.raises(MatrixFormatError):
            read_matrix_market(path)

    def test_general_rejected(self, tmp_path):
        path = tmp_path / "gen.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n")
        with pytest.raises(MatrixFormatError):
            read_matrix_market(path)
