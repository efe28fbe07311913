"""Integration tests: every table/figure driver runs at tiny scale."""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLE5,
    Table3Result,
    prepare_workload,
    run_figure5,
    run_figure6,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
)
from repro.experiments.figure6 import view_separation_score
from repro.experiments.runner import EXPERIMENTS


@pytest.fixture(scope="module")
def workload():
    return prepare_workload(ExperimentConfig.tiny())


class TestConfigPresets:
    def test_presets_exist(self):
        assert ExperimentConfig.tiny().num_eval_negatives == 50
        assert ExperimentConfig.quick().dataset.num_users == 400
        assert ExperimentConfig.paper().dataset.num_users == 190_080

    def test_from_environment_defaults_to_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXPERIMENT_SCALE", raising=False)
        assert ExperimentConfig.from_environment().dataset.num_users == 400
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "tiny")
        assert ExperimentConfig.from_environment().dataset.num_users == 80

    def test_scaled_epochs(self):
        assert ExperimentConfig.tiny().scaled_epochs(7).training.num_epochs == 7


class TestTable2:
    def test_runs_and_formats(self, workload):
        result = run_table2(workload=workload)
        table = result.format()
        assert "#Users" in table and "Paper (Beibei)" in table
        assert result.statistics.num_behaviors == workload.split.full.num_behaviors

    def test_paper_reference_consistency(self):
        assert PAPER_TABLE2["#Successful"] + PAPER_TABLE2["#Failed"] == PAPER_TABLE2["#Group-buying Behaviors"]


class TestTable3:
    def test_subset_run(self, workload):
        result = run_table3(workload=workload, model_names=["MF", "GBMF", "GBGCN"])
        assert set(result.metrics) == {"MF", "GBMF", "GBGCN"}
        for metrics in result.metrics.values():
            assert 0.0 <= metrics["Recall@10"] <= 1.0
        assert "Improvement" in result.format()
        assert result.best_baseline("Recall@10") in {"MF", "GBMF"}
        assert isinstance(result.improvements()["NDCG@10"], float)
        p_value = result.significance_p_value("NDCG@10")
        assert p_value is None or 0.0 <= p_value <= 1.0

    def test_p_value_scores_users_with_the_named_metric(self):
        # Every rank falls inside the top 10 at a different position: each
        # user's Recall@10 is 1 for both models, while NDCG@10 tells them apart.
        gbgcn_ranks = np.array([0, 1, 0, 2, 0, 1, 0, 3, 1, 0, 2, 0])
        baseline_ranks = np.array([5, 7, 6, 9, 8, 5, 7, 6, 9, 8, 4, 6])
        result = Table3Result(
            metrics={
                "GBGCN": {"Recall@10": 1.0, "NDCG@10": 0.8},
                "MF": {"Recall@10": 1.0, "NDCG@10": 0.3},
            },
            per_user_ranks={"GBGCN": gbgcn_ranks, "MF": baseline_ranks},
        )
        assert result.significance_p_value("Recall@10") == 1.0
        assert result.significance_p_value("NDCG@10") < 0.05
        with pytest.raises(ValueError, match="HR@10"):
            result.significance_p_value("HR@10")

    def test_paper_reference_shape(self):
        # In the paper GBGCN wins every metric and GBMF is the best baseline.
        for metric, value in PAPER_TABLE3["GBGCN"].items():
            assert value >= max(PAPER_TABLE3[m][metric] for m in PAPER_TABLE3 if m != "GBGCN")
        assert PAPER_TABLE3["GBMF"]["Recall@10"] > PAPER_TABLE3["MF"]["Recall@10"]


class TestTable4:
    def test_subset_run(self, workload):
        result = run_table4(workload=workload, model_names=["MF", "GBGCN"])
        assert result.timings["GBGCN"].train_seconds_per_epoch > 0
        assert "Train (s/epoch)" in result.format()

    def test_paper_reference_shape(self):
        assert PAPER_TABLE4["GBGCN"]["train"] > PAPER_TABLE4["MF"]["train"]


class TestTable5:
    def test_subset_run(self, workload):
        result = run_table5(workload=workload, variants=["GBGCN", "Without User Roles"])
        assert set(result.metrics) == {"GBGCN", "Without User Roles"}
        assert isinstance(result.relative_change("Without User Roles", "Recall@10"), float)
        assert "Improve." in result.format()

    def test_paper_reference_shape(self):
        for variant, metrics in PAPER_TABLE5.items():
            if variant == "GBGCN":
                continue
            assert metrics["NDCG@10"] <= PAPER_TABLE5["GBGCN"]["NDCG@10"]


class TestFigures:
    def test_figure5_runs(self, workload):
        result = run_figure5(workload=workload)
        assert set(result.distributions) == {
            "user_in_view", "item_in_view", "user_cross_view", "item_cross_view",
        }
        assert "Mean cosine similarity" in result.format()

    def test_figure6_separation_score(self):
        near = np.random.default_rng(0).normal(0, 0.5, size=(30, 2))
        far = near + np.array([10.0, 0.0])
        assert view_separation_score(near, far) > 1.0
        assert view_separation_score(near, near) < 0.1

    def test_registry_contains_all_experiments(self):
        assert set(EXPERIMENTS) == {"table2", "table3", "table4", "table5", "figure4", "figure5", "figure6", "sparsity"}
