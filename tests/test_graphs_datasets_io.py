"""Tests for the dataset registry."""

import numpy as np
import pytest

from repro.graphs import (DATASET_NAMES, PAPER_SPECS, dataset_summary,
                          load_dataset)


class TestRegistry:
    def test_all_four_datasets_listed(self):
        assert set(DATASET_NAMES) == {"reddit", "amazon", "protein", "papers"}

    def test_paper_specs_match_table3(self):
        assert PAPER_SPECS["reddit"].vertices == 232_965
        assert PAPER_SPECS["papers"].edges == 3_231_371_744
        assert PAPER_SPECS["amazon"].features == 300
        assert PAPER_SPECS["protein"].labels == 24

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_dataset("citeseer")

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            load_dataset("reddit", scale=0.0)


class TestLoadDataset:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_loads_and_validates(self, name):
        ds = load_dataset(name, scale=0.05, n_features=8, n_classes=3, seed=0)
        ds.node_data.validate()
        assert ds.n_vertices == ds.adjacency.shape[0]
        assert ds.node_data.features.shape == (ds.n_vertices, 8)
        assert ds.spec is PAPER_SPECS[name]

    def test_deterministic(self):
        a = load_dataset("amazon", scale=0.05, seed=9)
        b = load_dataset("amazon", scale=0.05, seed=9)
        assert (a.adjacency != b.adjacency).nnz == 0
        np.testing.assert_allclose(a.node_data.features, b.node_data.features)

    def test_scale_changes_size(self):
        small = load_dataset("papers", scale=0.05, seed=0)
        large = load_dataset("papers", scale=0.2, seed=0)
        assert large.n_vertices > small.n_vertices

    def test_relative_character_preserved(self):
        datasets = {name: load_dataset(name, scale=0.3, seed=0)
                    for name in DATASET_NAMES}
        # Reddit densest, papers largest — as in Table 3.
        assert datasets["reddit"].avg_degree == max(
            d.avg_degree for d in datasets.values())
        assert datasets["papers"].n_vertices == max(
            d.n_vertices for d in datasets.values())

    def test_feature_label_defaults_follow_table3(self):
        ds = load_dataset("amazon", scale=0.1, seed=0)
        assert ds.n_features == 300
        assert ds.n_classes <= 24

    def test_permuted_consistency(self):
        ds = load_dataset("reddit", scale=0.05, n_features=6, n_classes=3,
                          seed=0)
        perm = np.random.default_rng(0).permutation(ds.n_vertices)
        permuted = ds.permuted(perm)
        assert permuted.nnz == ds.nnz
        # Degree of vertex v is preserved at its new position.
        deg_old = np.diff(ds.adjacency.indptr)
        deg_new = np.diff(permuted.adjacency.indptr)
        np.testing.assert_array_equal(deg_new[perm], deg_old)

    def test_dataset_summary_fields(self):
        ds = load_dataset("protein", scale=0.05, seed=0)
        row = dataset_summary(ds)
        for key in ("name", "vertices", "edges", "features", "labels",
                    "paper_vertices", "paper_edges"):
            assert key in row
        assert row["paper_vertices"] == PAPER_SPECS["protein"].vertices
