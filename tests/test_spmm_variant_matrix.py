"""Every registered SpMM variant on every synthetic graph family.

The compiled-plan tests pin bit-identity on one random graph; this matrix
checks the paper's correctness and volume claims on the degree
distributions the datasets are built from (uniform, power-law, R-MAT,
community-structured, preferential attachment, mesh), on the
deterministic ``sim`` backend:

* each of the six ``(algorithm, mode)`` variants computes ``A H``;
* for each algorithm family the sparsity-aware mode never moves more
  bytes than the oblivious one;
* the 1D sparsity-aware exchange moves exactly the ``NnzCols`` rows the
  analysis predicts, on uniform and uneven block layouts;
* after partitioning and relabelling with any registered partitioner, the
  1D sparsity-aware SpMM is still exact and its per-rank send volume is
  the partition metric ``communication_volumes_1d`` times the row size.
"""

import numpy as np
import pytest

from repro.comm import make_communicator
from repro.core import (BlockRowDistribution, DistDenseMatrix,
                        DistSparseMatrix, Dist2DSparseMatrix, Grid2D,
                        ProcessGrid, available_spmm_variants,
                        predicted_bytes_per_spmm, spmm)
from repro.graphs import (gcn_normalize, permute_rows, permutation_from_parts,
                          symmetric_permutation)
from repro.graphs.generators import (chung_lu_graph, community_ring_graph,
                                     degree_corrected_sbm, erdos_renyi_graph,
                                     grid_graph, preferential_attachment_graph,
                                     rmat_graph)
from repro.partition import PARTITIONERS, communication_volumes_1d, get_partitioner

P, F = 4, 3
ELEMENT_BYTES = 8
GRAPHS = {
    "erdos_renyi": lambda: erdos_renyi_graph(48, avg_degree=5, seed=5),
    "rmat": lambda: rmat_graph(64, avg_degree=6, seed=5),
    "chung_lu": lambda: chung_lu_graph(48, avg_degree=5, seed=5),
    "dc_sbm": lambda: degree_corrected_sbm(48, avg_degree=6, n_communities=4,
                                           seed=5),
    "community_ring": lambda: community_ring_graph(48, avg_degree=6,
                                                   n_communities=4, seed=5),
    "pref_attach": lambda: preferential_attachment_graph(48, avg_degree=4,
                                                         seed=5),
    "grid": lambda: grid_graph(7),
}
VARIANTS = [("1d", "oblivious"), ("1d", "sparsity_aware"),
            ("1.5d", "oblivious"), ("1.5d", "sparsity_aware"),
            ("2d", "oblivious"), ("2d", "sparsity_aware")]


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def graph(request):
    adj = gcn_normalize(GRAPHS[request.param]())
    h = np.random.default_rng(adj.shape[0]).normal(size=(adj.shape[0], F))
    return adj, h


def _run(adj, h, algorithm, sparsity_aware):
    """(global result, communicator) of one sim-backend multiply."""
    n = adj.shape[0]
    comm = make_communicator(P)
    if algorithm == "2d":
        grid = Grid2D(2, 2)
        out = spmm(Dist2DSparseMatrix.uniform(adj, grid), h, comm,
                   algorithm="2d", sparsity_aware=sparsity_aware, grid=grid)
        return np.asarray(out), comm
    grid = ProcessGrid(P, 2) if algorithm == "1.5d" else None
    dist = BlockRowDistribution.uniform(n, grid.nrows if grid else P)
    out = spmm(DistSparseMatrix(adj, dist), DistDenseMatrix.from_global(h, dist),
               comm, algorithm=algorithm, sparsity_aware=sparsity_aware,
               grid=grid)
    return out.to_global(), comm


def test_matrix_covers_every_registered_variant():
    assert sorted(VARIANTS) == sorted(available_spmm_variants())


@pytest.mark.parametrize("algorithm,mode", VARIANTS)
def test_variant_computes_a_times_h(graph, algorithm, mode):
    adj, h = graph
    out, _ = _run(adj, h, algorithm, mode == "sparsity_aware")
    np.testing.assert_allclose(out, adj @ h, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("algorithm", ["1d", "1.5d", "2d"])
def test_sparsity_aware_never_moves_more_bytes(graph, algorithm):
    adj, h = graph
    _, aware = _run(adj, h, algorithm, True)
    _, oblivious = _run(adj, h, algorithm, False)
    assert aware.events.total_bytes() <= oblivious.events.total_bytes()


@pytest.mark.parametrize("sizes", [None, "uneven"])
def test_1d_exchange_moves_exactly_the_predicted_rows(graph, sizes):
    adj, h = graph
    n = adj.shape[0]
    if sizes is None:
        dist = BlockRowDistribution.uniform(n, P)
    else:
        dist = BlockRowDistribution([n // 2, 0, n // 8, n - n // 2 - n // 8])
    matrix = DistSparseMatrix(adj, dist)
    comm = make_communicator(P)
    out = spmm(matrix, DistDenseMatrix.from_global(h, dist), comm,
               algorithm="1d", sparsity_aware=True)
    np.testing.assert_allclose(out.to_global(), adj @ h, atol=1e-12)
    np.testing.assert_array_equal(
        comm.events.bytes_sent_by_rank(P, category="alltoall"),
        predicted_bytes_per_spmm(matrix, F, sparsity_aware=True))


@pytest.mark.parametrize("name", sorted(PARTITIONERS))
def test_partitioned_1d_volume_equals_partition_metric(name):
    adj = gcn_normalize(community_ring_graph(64, avg_degree=6,
                                             n_communities=8, seed=9))
    h = np.random.default_rng(9).normal(size=(64, F))
    result = get_partitioner(name, seed=2).partition(adj, P)
    perm = permutation_from_parts(result.parts, P)
    dist = BlockRowDistribution.from_partition(result.part_sizes())
    permuted = symmetric_permutation(adj, perm)
    comm = make_communicator(P)
    out = spmm(DistSparseMatrix(permuted, dist),
               DistDenseMatrix.from_global(permute_rows(h, perm), dist),
               comm, algorithm="1d", sparsity_aware=True)
    # Undo the relabelling: row perm[v] of the result belongs to vertex v.
    np.testing.assert_allclose(out.to_global()[perm], adj @ h, atol=1e-12)
    volume = communication_volumes_1d(adj, result.parts, P)
    np.testing.assert_array_equal(
        comm.events.bytes_sent_by_rank(P, category="alltoall"),
        volume.send_volume * F * ELEMENT_BYTES)
