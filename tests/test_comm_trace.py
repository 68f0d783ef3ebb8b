"""Tests for Chrome-trace export and the overlap analysis."""

import json

import numpy as np
import pytest

from repro.comm import (chrome_trace, make_communicator, overlap_analysis,
                        save_chrome_trace)
from repro.core import (BlockRowDistribution, DistDenseMatrix, DistSparseMatrix,
                        spmm)
from repro.graphs import erdos_renyi_graph, gcn_normalize


@pytest.fixture()
def run_sa():
    """A small sparsity-aware SpMM run with its communicator."""
    graph = gcn_normalize(erdos_renyi_graph(32, avg_degree=6, seed=1))
    dist = BlockRowDistribution.uniform(32, 4)
    matrix = DistSparseMatrix(graph, dist)
    h = np.random.default_rng(0).normal(size=(32, 4))
    dense = DistDenseMatrix.from_global(h, dist)
    comm = make_communicator(4, machine="perlmutter")
    spmm(matrix, dense, comm, algorithm="1d", sparsity_aware=True)
    return comm


class TestChromeTrace:
    def test_one_slice_per_message_plus_metadata(self, run_sa):
        events = chrome_trace(run_sa)
        slices = [e for e in events if e.get("ph") == "X"]
        metadata = [e for e in events if e.get("ph") == "M"]
        assert len(metadata) == run_sa.nranks
        assert len(slices) == len(run_sa.events)

    def test_slices_carry_volume_and_destination(self, run_sa):
        slices = [e for e in chrome_trace(run_sa) if e.get("ph") == "X"]
        total_bytes = sum(e["args"]["bytes"] for e in slices)
        assert total_bytes == run_sa.events.total_bytes()
        for entry in slices:
            assert entry["dur"] > 0
            assert 0 <= entry["tid"] < run_sa.nranks
            assert 0 <= entry["args"]["dst"] < run_sa.nranks

    def test_sender_slices_do_not_overlap(self, run_sa):
        slices = [e for e in chrome_trace(run_sa) if e.get("ph") == "X"]
        by_sender = {}
        for entry in slices:
            by_sender.setdefault(entry["tid"], []).append(entry)
        for entries in by_sender.values():
            entries.sort(key=lambda e: e["ts"])
            for a, b in zip(entries, entries[1:]):
                assert a["ts"] + a["dur"] <= b["ts"] + 1e-6

    def test_save_writes_valid_json(self, run_sa, tmp_path):
        path = save_chrome_trace(run_sa, str(tmp_path / "traces" / "run.json"))
        with open(path) as handle:
            payload = json.load(handle)
        assert "traceEvents" in payload
        assert len(payload["traceEvents"]) > 0

    def test_empty_run(self, tmp_path):
        comm = make_communicator(2)
        events = chrome_trace(comm)
        assert all(e["ph"] == "M" for e in events)


class TestOverlapAnalysis:
    def test_bounds_are_consistent(self, run_sa):
        report = overlap_analysis(run_sa)
        assert report.perfect_overlap_s <= report.measured_s + 1e-12
        assert report.potential_speedup >= 1.0
        assert report.measured_s == pytest.approx(run_sa.timeline.elapsed())
        d = report.as_dict()
        assert d["potential_speedup"] == pytest.approx(report.potential_speedup)

    def test_oblivious_run_is_communication_dominated(self):
        """For the CAGNET baseline on several ranks, communication exceeds
        compute on the bottleneck rank, so perfect overlap is bounded by the
        communication term."""
        graph = gcn_normalize(erdos_renyi_graph(48, avg_degree=8, seed=2))
        dist = BlockRowDistribution.uniform(48, 8)
        matrix = DistSparseMatrix(graph, dist)
        h = np.random.default_rng(1).normal(size=(48, 32))
        dense = DistDenseMatrix.from_global(h, dist)
        comm = make_communicator(8, machine="perlmutter")
        spmm(matrix, dense, comm, algorithm="1d", sparsity_aware=False)
        report = overlap_analysis(comm)
        assert report.communication_s > report.compute_s
        assert report.perfect_overlap_s >= report.communication_s * 0.99

    def test_no_communication_single_rank(self):
        comm = make_communicator(1)
        comm.charge_spmm(0, 1e6)
        report = overlap_analysis(comm)
        assert report.communication_s == 0.0
        assert report.potential_speedup == pytest.approx(1.0)
