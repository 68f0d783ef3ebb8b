"""Tests for the sweep utilities of the benchmark harness."""

import math

import pytest

from repro.bench import (feature_width_sweep, grid_points, partitioner_sweep,
                         replication_sweep, run_grid)


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
class TestGrid:
    def test_grid_points_cartesian_product(self):
        points = grid_points({"a": [1, 2], "b": ["x", "y", "z"]})
        assert len(points) == 6
        assert {"a": 2, "b": "z"} in points

    def test_empty_grid(self):
        assert grid_points({}) == [{}]

    def test_empty_dimension_rejected(self):
        with pytest.raises(ValueError):
            grid_points({"a": []})

    def test_run_grid_collects_and_skips(self):
        def fn(x):
            if x == 2:
                raise ValueError("infeasible")
            return {"x": x, "y": x * x}

        rows = run_grid(fn, {"x": [1, 2, 3]})
        assert len(rows) == 3
        assert rows[0]["y"] == 1
        assert "skipped" in rows[1]
        assert rows[2]["y"] == 9

    def test_run_grid_raises_when_asked(self):
        def fn(x):
            raise ValueError("boom")
        with pytest.raises(ValueError):
            run_grid(fn, {"x": [1]}, skip_errors=False)


class TestConcreteSweeps:
    """Small-scale smoke runs of the ablation sweeps (tiny graphs)."""

    def test_feature_width_sweep_shows_widening_gap(self):
        rows = feature_width_sweep(dataset_name="amazon", widths=(8, 64),
                                   p=8, scale=0.05, epochs=1, seed=0)
        assert len(rows) == 4
        by_key = {(r["f"], r["scheme"]): r["epoch_time_s"] for r in rows
                  if "epoch_time_s" in r}
        # The sparsity-aware advantage at the wide setting is at least as
        # large as at the narrow setting (both measured as CAGNET / SA+GVB).
        narrow = by_key[(8, "CAGNET")] / by_key[(8, "SA+GVB")]
        wide = by_key[(64, "CAGNET")] / by_key[(64, "SA+GVB")]
        assert wide >= narrow * 0.8   # allow latency noise at tiny scale

    def test_replication_sweep_rows(self):
        rows = replication_sweep(dataset_name="protein", p=16,
                                 replication_factors=(1, 2), scale=0.05,
                                 epochs=1, seed=0)
        assert len(rows) == 4
        assert all("replication" in r or "skipped" in r for r in rows)

    def test_partitioner_sweep_includes_new_partitioners(self):
        rows = partitioner_sweep(dataset_name="reddit",
                                 partitioners=("block", "gvb", "hypergraph"),
                                 p=4, scale=0.05, epochs=1, seed=0)
        assert {r["partitioner"] for r in rows} == {"block", "gvb", "hypergraph"}
        for row in rows:
            assert math.isfinite(row["epoch_time_s"])
