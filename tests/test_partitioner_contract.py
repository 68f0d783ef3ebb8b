"""The contract every registered partitioner keeps.

The trainer, the benchmark sweeps and the planner treat ``PARTITIONERS``
as interchangeable: whatever scheme is chosen, its output is relabelled
into contiguous blocks and handed to the distributed SpMM.  That only
works if every scheme, on every input, returns

* one part id per vertex, in range, with every part non-empty;
* the same assignment for the same seed;
* a relabelling that is a permutation grouping each part contiguously, in
  part order, with block sizes equal to the part sizes;
* a ``partition_report`` whose figures agree with the metric functions.
"""

import numpy as np
import pytest

from repro.graphs import symmetric_permutation
from repro.graphs.generators import community_ring_graph, erdos_renyi_graph
from repro.partition import (PARTITIONERS, communication_volumes_1d, edgecut,
                             get_partitioner, load_imbalance, part_nonzeros,
                             part_sizes, partition_report)

NAMES = sorted(PARTITIONERS)
GRAPHS = {
    "community": lambda: community_ring_graph(72, avg_degree=8,
                                              n_communities=6,
                                              p_external=0.05, seed=4),
    "random": lambda: erdos_renyi_graph(60, avg_degree=5, seed=4),
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def graph(request):
    return GRAPHS[request.param]()


@pytest.mark.parametrize("nparts", [2, 4])
@pytest.mark.parametrize("name", NAMES)
def test_assignment_is_complete_and_non_empty(graph, name, nparts):
    result = get_partitioner(name, seed=1).partition(graph, nparts)
    assert result.parts.shape == (graph.shape[0],)
    assert result.nparts == nparts
    assert result.parts.min() >= 0 and result.parts.max() < nparts
    assert np.all(result.part_sizes() > 0)
    assert result.part_sizes().sum() == graph.shape[0]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_assignment(graph, name):
    first = get_partitioner(name, seed=7).partition(graph, 3)
    second = get_partitioner(name, seed=7).partition(graph, 3)
    np.testing.assert_array_equal(first.parts, second.parts)


@pytest.mark.parametrize("name", NAMES)
def test_relabelling_groups_parts_contiguously(graph, name):
    result = get_partitioner(name, seed=1).partition(graph, 4)
    perm = result.relabeling()
    n = graph.shape[0]
    np.testing.assert_array_equal(np.sort(perm), np.arange(n))
    new_parts = np.empty(n, dtype=np.int64)
    new_parts[perm] = result.parts
    # In the relabelled order the part ids are non-decreasing: part 0's
    # vertices first, then part 1, ... as the block-row layout expects.
    assert np.all(np.diff(new_parts) >= 0)
    np.testing.assert_array_equal(np.bincount(new_parts, minlength=4),
                                  result.block_sizes())
    # Relabelling is a symmetric permutation: it keeps every edge.
    permuted = symmetric_permutation(graph, perm)
    assert permuted.nnz == graph.nnz
    assert edgecut(permuted, new_parts) == edgecut(graph, result.parts)


@pytest.mark.parametrize("name", NAMES)
def test_report_agrees_with_metric_functions(graph, name):
    result = get_partitioner(name, seed=1).partition(graph, 4)
    report = partition_report(graph, result.parts, 4)
    volume = communication_volumes_1d(graph, result.parts, 4)
    assert report["nparts"] == 4.0
    assert report["edgecut"] == edgecut(graph, result.parts)
    assert report["vertex_imbalance"] == pytest.approx(
        load_imbalance(part_sizes(result.parts, 4)))
    assert report["nnz_imbalance"] == pytest.approx(
        load_imbalance(part_nonzeros(graph, result.parts, 4)))
    assert report["total_volume"] == volume.total
    assert report["max_send_volume"] == volume.max_send
    assert report["max_send_volume"] >= report["avg_send_volume"]
    # Each cut edge can make at most one row travel in each direction.
    assert volume.total <= 2 * report["edgecut"]
