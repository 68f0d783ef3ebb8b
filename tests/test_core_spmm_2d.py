"""Tests for the 2D (SUMMA-style) distributed SpMM variants."""

import numpy as np
import pytest

from repro.comm import make_communicator
from repro.core import Dist2DSparseMatrix, Grid2D, spmm
from repro.graphs import erdos_renyi_graph, gcn_normalize


@pytest.fixture(scope="module")
def graph():
    return gcn_normalize(erdos_renyi_graph(48, avg_degree=7, seed=4))


@pytest.fixture()
def dense(graph):
    return np.random.default_rng(1).normal(size=(graph.shape[0], 5))


class TestGrid2D:
    def test_rank_coords_round_trip(self):
        grid = Grid2D(3, 4)
        assert grid.nranks == 12
        for r in range(12):
            i, j = grid.coords(r)
            assert grid.rank(i, j) == r

    def test_groups(self):
        grid = Grid2D(2, 3)
        assert grid.row_group(1) == [3, 4, 5]
        assert grid.col_group(2) == [2, 5]

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid2D(0, 2)
        grid = Grid2D(2, 2)
        with pytest.raises(ValueError):
            grid.rank(2, 0)
        with pytest.raises(ValueError):
            grid.coords(4)


class TestDist2DSparseMatrix:
    def test_blocks_cover_all_nonzeros(self, graph):
        grid = Grid2D(3, 2)
        matrix = Dist2DSparseMatrix.uniform(graph, grid)
        assert matrix.nnz == graph.nnz

    def test_nnz_cols_are_local_and_sorted(self, graph):
        grid = Grid2D(2, 4)
        matrix = Dist2DSparseMatrix.uniform(graph, grid)
        for i in range(2):
            for j in range(4):
                cols = matrix.nnz_cols(i, j)
                width = matrix.col_dist.block_size(j)
                assert np.all(cols >= 0) and np.all(cols < width)
                assert np.all(np.diff(cols) > 0)

    def test_rejects_non_square(self):
        import scipy.sparse as sp
        from repro.core import BlockRowDistribution
        with pytest.raises(ValueError):
            Dist2DSparseMatrix(sp.random(4, 6, 0.5, format="csr"),
                               BlockRowDistribution.uniform(4, 2),
                               BlockRowDistribution.uniform(6, 2))


@pytest.mark.parametrize("pr,pc", [(2, 2), (4, 2), (2, 4), (3, 3)])
class TestCorrectness:
    def test_oblivious_matches_direct(self, graph, dense, pr, pc):
        grid = Grid2D(pr, pc)
        matrix = Dist2DSparseMatrix.uniform(graph, grid)
        comm = make_communicator(grid.nranks, machine="perlmutter")
        out = spmm(matrix, dense, comm, algorithm="2d", sparsity_aware=False,
                   grid=grid)
        np.testing.assert_allclose(out, graph @ dense, atol=1e-9)

    def test_sparsity_aware_matches_direct(self, graph, dense, pr, pc):
        grid = Grid2D(pr, pc)
        matrix = Dist2DSparseMatrix.uniform(graph, grid)
        comm = make_communicator(grid.nranks, machine="perlmutter")
        out = spmm(matrix, dense, comm, algorithm="2d", sparsity_aware=True,
                   grid=grid)
        np.testing.assert_allclose(out, graph @ dense, atol=1e-9)


class TestCommunicationAccounting:
    def test_sparsity_aware_moves_no_more_gather_bytes(self, graph, dense):
        """The point-to-point phase of the SA variant never moves more data
        than the all-gather phase of the oblivious variant."""
        grid = Grid2D(4, 2)
        matrix = Dist2DSparseMatrix.uniform(graph, grid)

        comm_obl = make_communicator(grid.nranks, machine="perlmutter")
        spmm(matrix, dense, comm_obl, algorithm="2d", sparsity_aware=False,
             grid=grid)
        gather_bytes = comm_obl.events.total_bytes(category="bcast")

        comm_sa = make_communicator(grid.nranks, machine="perlmutter")
        spmm(matrix, dense, comm_sa, algorithm="2d", sparsity_aware=True,
             grid=grid)
        exchange_bytes = comm_sa.events.total_bytes(category="alltoall")

        assert exchange_bytes <= gather_bytes

    def test_allreduce_volume_identical_between_variants(self, graph, dense):
        grid = Grid2D(2, 2)
        matrix = Dist2DSparseMatrix.uniform(graph, grid)
        comms = []
        for aware in (False, True):
            comm = make_communicator(grid.nranks, machine="perlmutter")
            spmm(matrix, dense, comm, algorithm="2d", sparsity_aware=aware,
                 grid=grid)
            comms.append(comm.events.total_bytes(category="allreduce"))
        assert comms[0] == comms[1]

    def test_single_column_grid_has_no_row_reduction_traffic(self, graph, dense):
        grid = Grid2D(4, 1)
        matrix = Dist2DSparseMatrix.uniform(graph, grid)
        comm = make_communicator(4, machine="perlmutter")
        out = spmm(matrix, dense, comm, algorithm="2d", sparsity_aware=True,
                   grid=grid)
        np.testing.assert_allclose(out, graph @ dense, atol=1e-9)
        assert comm.events.total_bytes(category="allreduce") == 0


class TestValidation:
    def test_mismatched_grid(self, graph, dense):
        matrix = Dist2DSparseMatrix.uniform(graph, Grid2D(2, 2))
        comm = make_communicator(4)
        with pytest.raises(ValueError):
            spmm(matrix, dense, comm, algorithm="2d", sparsity_aware=False,
                 grid=Grid2D(4, 1))

    def test_mismatched_comm(self, graph, dense):
        grid = Grid2D(2, 2)
        matrix = Dist2DSparseMatrix.uniform(graph, grid)
        with pytest.raises(ValueError):
            spmm(matrix, dense, make_communicator(3), algorithm="2d",
                 sparsity_aware=True, grid=grid)

    def test_mismatched_dense(self, graph):
        grid = Grid2D(2, 2)
        matrix = Dist2DSparseMatrix.uniform(graph, grid)
        comm = make_communicator(4)
        with pytest.raises(ValueError):
            spmm(matrix, np.ones((5, 2)), comm, algorithm="2d",
                 sparsity_aware=False, grid=grid)
