"""Ablation — 1D vs 1.5D vs 2D sparsity-aware SpMM at the kernel level.

CAGNET found 2D algorithms less performant than 1D/1.5D for full-batch GNN
training, and the paper's conclusion notes sparsity-awareness generalises
to those layouts.  This bench compares one sparsity-aware SpMM under the
three layouts on the same (GVB-partitioned) graph with 16 simulated GPUs:
correctness against the direct product, exchanged bytes and simulated
kernel time.
"""

import numpy as np

from repro.bench import bench_scale, format_table
from repro.comm import make_communicator
from repro.core import (BlockRowDistribution, Dist2DSparseMatrix,
                        DistDenseMatrix, DistSparseMatrix, Grid2D, ProcessGrid,
                        spmm)
from repro.graphs import gcn_normalize, load_dataset
from repro.graphs.adjacency import permutation_from_parts, symmetric_permutation
from repro.partition import get_partitioner


P = 16
MACHINE = "perlmutter-scaled"


def _partitioned(adjacency, nblocks, seed=0):
    part = get_partitioner("gvb", seed=seed).partition(adjacency, nblocks)
    perm = permutation_from_parts(part.parts, nblocks)
    permuted = symmetric_permutation(gcn_normalize(adjacency), perm)
    dist = BlockRowDistribution.from_partition(part.part_sizes())
    return permuted, dist


def run_layout_comparison(scale: float, seed: int = 0):
    dataset = load_dataset("amazon", scale=scale, seed=seed)
    f = 64
    # The comparison is at the kernel level: the same dense operand is used
    # against each layout's (permuted) matrix, and each result is verified
    # against the direct product with that matrix.
    h = np.random.default_rng(seed).normal(size=(dataset.n_vertices, f))
    rows = []

    # --- 1D -----------------------------------------------------------
    permuted, dist = _partitioned(dataset.adjacency, P, seed)
    matrix = DistSparseMatrix(permuted, dist)
    dense = DistDenseMatrix.from_global(h, dist)
    comm = make_communicator(P, backend="sim", machine=MACHINE)
    out_1d = spmm(matrix, dense, comm, algorithm="1d", sparsity_aware=True)
    np.testing.assert_allclose(out_1d.to_global(), permuted @ h, atol=1e-8)
    stats = comm.stats.summary()
    rows.append({"layout": "1D", "exchanged_MB": stats["total_MB"],
                 "sim_time_s": stats["elapsed_s"],
                 "max_MB_per_rank": stats["max_MB_per_rank"]})

    # --- 1.5D (c = 2) ---------------------------------------------------
    c = 2
    permuted15, dist15 = _partitioned(dataset.adjacency, P // c, seed)
    matrix15 = DistSparseMatrix(permuted15, dist15)
    dense15 = DistDenseMatrix.from_global(h, dist15)
    grid15 = ProcessGrid(nranks=P, replication=c)
    comm15 = make_communicator(P, backend="sim", machine=MACHINE)
    out_15d = spmm(matrix15, dense15, comm15, algorithm="1.5d",
                   sparsity_aware=True, grid=grid15)
    np.testing.assert_allclose(out_15d.to_global(), permuted15 @ h, atol=1e-8)
    stats15 = comm15.stats.summary()
    rows.append({"layout": "1.5D (c=2)", "exchanged_MB": stats15["total_MB"],
                 "sim_time_s": stats15["elapsed_s"],
                 "max_MB_per_rank": stats15["max_MB_per_rank"]})

    # --- 2D (4 x 4) -----------------------------------------------------
    grid2d = Grid2D(4, 4)
    permuted2d, _ = _partitioned(dataset.adjacency, 4, seed)
    matrix2d = Dist2DSparseMatrix.uniform(permuted2d, grid2d)
    comm2d = make_communicator(P, backend="sim", machine=MACHINE)
    out_2d = spmm(matrix2d, h, comm2d, algorithm="2d", sparsity_aware=True,
                  grid=grid2d)
    np.testing.assert_allclose(out_2d, permuted2d @ h, atol=1e-8)
    stats2d = comm2d.stats.summary()
    rows.append({"layout": "2D (4x4)", "exchanged_MB": stats2d["total_MB"],
                 "sim_time_s": stats2d["elapsed_s"],
                 "max_MB_per_rank": stats2d["max_MB_per_rank"]})
    return rows


def test_ablation_2d_vs_1d_spmm(benchmark, save_report):
    scale = min(bench_scale(), 0.3)
    rows = benchmark.pedantic(lambda: run_layout_comparison(scale),
                              rounds=1, iterations=1)
    text = format_table(
        rows, columns=["layout", "exchanged_MB", "max_MB_per_rank",
                       "sim_time_s"],
        title="Ablation — sparsity-aware SpMM under 1D / 1.5D / 2D layouts "
              "(Amazon stand-in, 16 GPUs, f=64)")
    save_report("ablation_2d_spmm", text)

    by_layout = {r["layout"]: r for r in rows}
    # The 1D layout on a well-partitioned graph moves the least data; the
    # 2D layout pays the row-group all-reduce — the reason CAGNET (and the
    # paper) prefer 1D/1.5D for full-batch GNN training.
    assert by_layout["1D"]["exchanged_MB"] <= \
        by_layout["2D (4x4)"]["exchanged_MB"] * 1.05
    assert by_layout["1D"]["sim_time_s"] <= \
        by_layout["2D (4x4)"]["sim_time_s"] * 1.05
