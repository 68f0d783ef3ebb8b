"""The local multiply of the distributed SpMMs, across graph families.

Every rank multiplies scipy CSR blocks by dense row panels: the
sparsity-aware variants use the *compacted* block of
:func:`repro.core.nnzcols.split_block_row` (columns renumbered to
``NnzCols``) against the packed rows they received, the oblivious variants
its full-width widening against the whole ``H_j``.  These tests pin the
identities that make both exact, on every synthetic graph family the
datasets are built from and for several block counts:

* ``sum_j compact_ij @ H_j[NnzCols(i, j)] == A_i @ H``;
* the lazily built full-width block equals slicing the block row directly;
* ``NnzCols`` lists exactly the non-empty columns of each block;
* no nonzero is lost or duplicated by the split.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import BlockRowDistribution
from repro.core.nnzcols import nnz_columns_per_block, split_block_row
from repro.graphs import gcn_normalize
from repro.graphs.generators import (chung_lu_graph, community_ring_graph,
                                     degree_corrected_sbm, erdos_renyi_graph,
                                     grid_graph, preferential_attachment_graph,
                                     rmat_graph)

GRAPHS = {
    "erdos_renyi": lambda: erdos_renyi_graph(60, avg_degree=5, seed=3),
    "rmat": lambda: rmat_graph(64, avg_degree=6, seed=3),
    "chung_lu": lambda: chung_lu_graph(60, avg_degree=5, seed=3),
    "dc_sbm": lambda: degree_corrected_sbm(60, avg_degree=6, n_communities=4,
                                           seed=3),
    "community_ring": lambda: community_ring_graph(60, avg_degree=6,
                                                   n_communities=4, seed=3),
    "pref_attach": lambda: preferential_attachment_graph(60, avg_degree=4,
                                                         seed=3),
    "grid": lambda: grid_graph(8),
}
NBLOCKS = (1, 3, 4)
F = 5


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def graph(request):
    return gcn_normalize(GRAPHS[request.param]())


def _block_rows(adj, nblocks):
    """(bounds, [(lo, hi, block_row)]) of a uniform block-row layout."""
    dist = BlockRowDistribution.uniform(adj.shape[0], nblocks)
    bounds = dist.bounds
    rows = [(int(bounds[i]), int(bounds[i + 1]),
             adj[int(bounds[i]):int(bounds[i + 1])].tocsr())
            for i in range(nblocks)]
    return bounds, rows


@pytest.mark.parametrize("nblocks", NBLOCKS)
def test_compacted_blocks_reproduce_block_row_product(graph, nblocks):
    rng = np.random.default_rng(nblocks)
    h = rng.normal(size=(graph.shape[0], F))
    bounds, rows = _block_rows(graph, nblocks)
    for _, _, block_row in rows:
        acc = np.zeros((block_row.shape[0], F))
        for info in split_block_row(block_row, bounds):
            lo = int(bounds[info.block])
            packed = h[lo:int(bounds[info.block + 1])][info.nnz_cols_local]
            acc += info.compact @ packed
        np.testing.assert_allclose(acc, block_row @ h, rtol=0, atol=1e-12)


@pytest.mark.parametrize("nblocks", NBLOCKS)
def test_full_widening_equals_direct_slice(graph, nblocks):
    bounds, rows = _block_rows(graph, nblocks)
    for _, _, block_row in rows:
        for info in split_block_row(block_row, bounds):
            lo, hi = int(bounds[info.block]), int(bounds[info.block + 1])
            full = info.full
            assert full.shape == (block_row.shape[0], hi - lo)
            assert full.has_sorted_indices
            np.testing.assert_array_equal(
                full.toarray(), block_row[:, lo:hi].toarray())


@pytest.mark.parametrize("nblocks", NBLOCKS)
def test_nnz_cols_are_exactly_the_nonempty_columns(graph, nblocks):
    bounds, rows = _block_rows(graph, nblocks)
    for _, _, block_row in rows:
        for info in split_block_row(block_row, bounds):
            lo, hi = int(bounds[info.block]), int(bounds[info.block + 1])
            col_nnz = np.diff(block_row[:, lo:hi].tocsc().indptr)
            np.testing.assert_array_equal(info.nnz_cols_local,
                                          np.flatnonzero(col_nnz))
            np.testing.assert_array_equal(info.nnz_cols_global,
                                          info.nnz_cols_local + lo)
            assert np.all(np.diff(info.nnz_cols_local) > 0)
            assert info.n_needed_rows == info.compact.shape[1]
            # Compaction drops every empty column and nothing else.
            assert np.all(np.diff(info.compact.tocsc().indptr) > 0)


@pytest.mark.parametrize("nblocks", NBLOCKS)
def test_split_conserves_nonzeros(graph, nblocks):
    bounds, rows = _block_rows(graph, nblocks)
    for _, _, block_row in rows:
        infos = split_block_row(block_row, bounds)
        assert len(infos) == nblocks
        assert [info.block for info in infos] == list(range(nblocks))
        assert sum(info.nnz for info in infos) == block_row.nnz
        assert (sum(float(info.compact.sum()) for info in infos)
                == pytest.approx(float(block_row.sum()), abs=1e-12))
        for info in infos:
            assert not info.full_materialized


class TestEdgeCases:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_value_dtype_is_preserved(self, dtype):
        block_row = sp.random(6, 12, density=0.4, random_state=1,
                              format="csr", dtype=dtype)
        for info in split_block_row(block_row, [0, 5, 12]):
            assert info.compact.dtype == dtype
            assert info.full.dtype == dtype

    def test_zero_block_row_needs_nothing(self):
        block_row = sp.csr_matrix((4, 10))
        infos = split_block_row(block_row, [0, 4, 10])
        assert [info.n_needed_rows for info in infos] == [0, 0]
        assert [info.full.shape for info in infos] == [(4, 4), (4, 6)]
        assert all(info.full.nnz == 0 for info in infos)

    def test_rank_without_rows(self):
        block_row = sp.csr_matrix((0, 8))
        infos = split_block_row(block_row, [0, 3, 8])
        assert [info.compact.shape for info in infos] == [(0, 0), (0, 0)]
        assert [info.width for info in infos] == [3, 5]

    def test_empty_destination_block(self):
        block_row = sp.csr_matrix(np.array([[1.0, 0.0, 2.0, 0.0],
                                            [0.0, 3.0, 0.0, 4.0]]))
        infos = split_block_row(block_row, [0, 2, 2, 4])
        assert [info.width for info in infos] == [2, 0, 2]
        assert infos[1].n_needed_rows == 0 and infos[1].full.shape == (2, 0)
        np.testing.assert_array_equal(infos[2].nnz_cols_global, [2, 3])

    def test_widening_shares_the_value_buffer(self):
        block_row = sp.random(5, 9, density=0.5, random_state=2, format="csr")
        info = split_block_row(block_row, [0, 4, 9])[1]
        assert np.shares_memory(info.full.data, info.compact.data)
        assert info.full_materialized

    def test_helper_matches_split(self):
        block_row = sp.random(7, 14, density=0.3, random_state=3,
                              format="csr")
        bounds = [0, 3, 9, 14]
        for cols, info in zip(nnz_columns_per_block(block_row, bounds),
                              split_block_row(block_row, bounds)):
            np.testing.assert_array_equal(cols, info.nnz_cols_local)

    @pytest.mark.parametrize("bounds", [[0], [1, 8], [0, 5, 7], [0, 6, 3, 8]],
                             ids=["too-short", "bad-start", "bad-end",
                                  "decreasing"])
    def test_bad_bounds_rejected(self, bounds):
        with pytest.raises(ValueError):
            split_block_row(sp.csr_matrix((2, 8)), bounds)
