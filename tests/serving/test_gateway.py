"""ServingGateway: routing, traffic splits, and mixed-model batching."""

import numpy as np
import pytest

from repro.models import ModelSettings, build_model
from repro.persist import save_model
from repro.serving import (
    ModelCatalog,
    ServingGateway,
    TrafficSplit,
    UnknownCatalogModelError,
)

SETTINGS = ModelSettings(embedding_dim=8)
CATALOG_MODELS = {"gbgcn": "GBGCN", "mf": "MF", "itempop": "ItemPop"}


@pytest.fixture()
def catalog(small_split, tmp_path):
    directory = tmp_path / "models"
    for stem, model_name in CATALOG_MODELS.items():
        save_model(build_model(model_name, small_split.train, SETTINGS), directory / f"{stem}.npz")
    return ModelCatalog(directory, small_split.train)


@pytest.fixture()
def gateway(catalog):
    return ServingGateway(catalog, default_model="gbgcn")


def some_users(split, count=24):
    return np.asarray(sorted(split.test))[:count]


def rows_served(gateway):
    """Per-model served rows: the A/B tally in the gateway's metrics."""
    models = gateway.metrics.snapshot()["models"]
    return {name: model["rows_served"] for name, model in models.items()}


class TestTrafficSplit:
    def test_rejects_empty_and_invalid_weights(self):
        with pytest.raises(ValueError):
            TrafficSplit({})
        with pytest.raises(ValueError):
            TrafficSplit({"a": -1.0, "b": 2.0})
        with pytest.raises(ValueError):
            TrafficSplit({"a": 0.0})

    def test_weights_are_normalized(self):
        split = TrafficSplit({"a": 3.0, "b": 1.0})
        assert split.weights == {"a": 0.75, "b": 0.25}

    def test_assignment_is_sticky_and_roughly_proportional(self):
        split = TrafficSplit({"a": 0.7, "b": 0.3}, seed=5)
        users = np.arange(4000)
        first = split.assign(users)
        assert (split.assign(users) == first).all()
        share = float(np.mean(first == "a"))
        assert 0.65 < share < 0.75

    def test_different_seeds_decorrelate(self):
        users = np.arange(2000)
        one = TrafficSplit({"a": 0.5, "b": 0.5}, seed=1).assign(users)
        two = TrafficSplit({"a": 0.5, "b": 0.5}, seed=2).assign(users)
        assert (one != two).any()

    def test_single_model_takes_all_traffic(self):
        split = TrafficSplit({"only": 1.0})
        assert (split.assign(np.arange(100)) == "only").all()


class TestZeroWeightArms:
    def test_zero_weight_arm_receives_exactly_zero_traffic(self):
        split = TrafficSplit({"keep": 1.0, "ramped_down": 0.0}, seed=3)
        assert (split.assign(np.arange(20000)) == "keep").all()

    def test_boundary_hash_never_routes_to_zero_weight_last_arm(self, monkeypatch):
        # Regression: the fp-edge guard `minimum(buckets, len(models) - 1)`
        # used to clamp the hash ≈ 1.0 boundary onto the *last declared*
        # arm — even a 0%-weight one.  Pin the hash to the worst case.
        import repro.serving.gateway as gateway_module

        monkeypatch.setattr(
            gateway_module, "_hash_unit_interval", lambda users, seed: np.full(users.shape, 1.0)
        )
        split = TrafficSplit({"a": 0.5, "b": 0.5, "ramped_down": 0.0}, seed=1)
        assert (split.assign(np.arange(8)) == "b").all()

    def test_zero_weight_arm_stays_listed_but_inactive(self):
        split = TrafficSplit({"a": 2.0, "z": 0.0}, seed=1)
        assert split.models == ["a", "z"]  # declared arms keep their order
        assert split.weights == {"a": 1.0, "z": 0.0}

    def test_property_degenerate_weight_maps(self):
        # Property: over random weight maps (including many zero arms and
        # wildly different scales), zero-weight arms get exactly zero
        # traffic and positive arms roughly their share.
        rng = np.random.default_rng(42)
        users = np.arange(6000)
        for trial in range(25):
            num_arms = int(rng.integers(1, 7))
            weights = {}
            for index in range(num_arms):
                if rng.random() < 0.4 and index != 0:
                    weights[f"m{index}"] = 0.0
                else:
                    weights[f"m{index}"] = float(rng.uniform(0.05, 10.0))
            if sum(weights.values()) == 0.0:
                weights["m0"] = 1.0
            split = TrafficSplit(weights, seed=trial)
            assignments = split.assign(users)
            served = set(str(name) for name in np.unique(assignments))
            zero_arms = {name for name, weight in weights.items() if weight == 0.0}
            assert served.isdisjoint(zero_arms), (weights, served)
            for name, share in split.weights.items():
                observed = float(np.mean(assignments == name))
                assert abs(observed - share) < 0.05, (weights, name, observed)


class TestRouting:
    def test_default_model_answers_unnamed_requests(self, gateway, catalog, small_split):
        users = some_users(small_split)
        result = gateway.top_k(users, k=5)
        reference = catalog.recommender("gbgcn").recommend(users, k=5)
        assert np.array_equal(result.items, reference.items)
        assert rows_served(gateway) == {"gbgcn": users.size}

    def test_named_model_overrides_default(self, gateway, catalog, small_split):
        users = some_users(small_split)
        result = gateway.top_k(users, k=5, model="mf")
        reference = catalog.recommender("mf").recommend(users, k=5)
        assert np.array_equal(result.items, reference.items)

    def test_scores_block(self, gateway, small_split):
        users = some_users(small_split, count=4)
        items = np.arange(6)
        block = gateway.scores(users, items, model="mf")
        assert block.shape == (4, 6)

    def test_no_default_and_no_model_is_an_error(self, catalog, small_split):
        gateway = ServingGateway(catalog)
        with pytest.raises(ValueError, match="default_model"):
            gateway.top_k(some_users(small_split))

    def test_unknown_default_fails_at_construction(self, catalog):
        with pytest.raises(UnknownCatalogModelError):
            ServingGateway(catalog, default_model="nope")


class TestMixedBatch:
    def test_rows_align_with_requests_and_match_per_model_serving(
        self, gateway, catalog, small_split
    ):
        users = some_users(small_split, count=9)
        names = ["gbgcn", "mf", "itempop"]
        requests = [(names[i % 3], int(user)) for i, user in enumerate(users)]
        mixed = gateway.top_k_mixed(requests, k=5)

        assert mixed.models == [name for name, _ in requests]
        assert np.array_equal(mixed.users, users)
        for name in names:
            rows = np.asarray([i for i, (request_name, _) in enumerate(requests) if request_name == name])
            reference = catalog.recommender(name).recommend(users[rows], k=5)
            assert np.array_equal(mixed.items[rows], reference.items)
            assert np.array_equal(mixed.scores[rows], reference.scores)

    def test_each_model_scores_once_not_per_row(self, gateway, catalog, small_split):
        users = some_users(small_split, count=12)
        requests = [("mf", int(user)) for user in users]
        gateway.top_k_mixed(requests, k=3)
        # One cold start, and every subsequent access is a hit on the same
        # resident -- the 12 rows were served by a single recommend call.
        assert catalog.stats.cold_starts == 1

    def test_bad_row_fails_before_any_model_scores(self, gateway, catalog, small_split):
        users = some_users(small_split, count=3)
        requests = [("mf", int(users[0])), ("nope", int(users[1])), ("gbgcn", int(users[2]))]
        with pytest.raises(UnknownCatalogModelError):
            gateway.top_k_mixed(requests, k=3)
        assert rows_served(gateway) == {}
        assert catalog.stats.cold_starts == 0

    def test_empty_requests_rejected(self, gateway):
        with pytest.raises(ValueError, match="at least one"):
            gateway.top_k_mixed([])

    def test_for_request_strips_padding(self, gateway, small_split):
        users = some_users(small_split, count=2)
        mixed = gateway.top_k_mixed([("mf", int(users[0])), ("gbgcn", int(users[1]))], k=5)
        for index in range(2):
            items = mixed.for_request(index)
            assert len(items) <= 5
            assert (items >= 0).all()


class TestTrafficSplitServing:
    def test_every_user_is_served_by_their_assigned_model(self, gateway, catalog, small_split):
        users = some_users(small_split)
        split = TrafficSplit({"gbgcn": 0.5, "mf": 0.5}, seed=3)
        result = gateway.top_k_split(split, users, k=5)

        assignments = split.assign(users)
        assert result.models == [str(name) for name in assignments]
        for name in ("gbgcn", "mf"):
            rows = np.flatnonzero(assignments == name)
            if rows.size == 0:
                continue
            reference = catalog.recommender(name).recommend(users[rows], k=5)
            assert np.array_equal(result.items[rows], reference.items)

    def test_rows_served_tally_split_traffic(self, gateway, small_split):
        users = some_users(small_split)
        split = TrafficSplit({"gbgcn": 0.5, "mf": 0.5}, seed=3)
        gateway.top_k_split(split, users, k=5)
        assert sum(rows_served(gateway).values()) == users.size

    def test_empty_user_batch(self, gateway):
        result = gateway.top_k_split(TrafficSplit({"mf": 1.0}), np.asarray([], dtype=np.int64), k=5)
        assert result.items.shape == (0, 5)
        assert result.models == []

    def test_bad_deadline_fails_at_entry_before_name_checks(self, gateway, small_split):
        empty = np.asarray([], dtype=np.int64)
        with pytest.raises(ValueError, match="deadline seconds"):
            gateway.top_k_split(TrafficSplit({"mf": 1.0}), empty, k=5, deadline=-1)
        with pytest.raises(ValueError, match="deadline seconds"):
            gateway.top_k_mixed([("no-such-model", 0)], k=5, deadline=-1)


class TestGatewayMetrics:
    def test_requests_rows_and_latency_recorded_per_model(self, gateway, small_split):
        users = some_users(small_split, count=12)
        gateway.top_k(users, k=5)                       # default model: gbgcn
        gateway.top_k(users[:4], k=5, model="mf")
        gateway.top_k_mixed([("mf", int(users[0])), ("itempop", int(users[1]))], k=3)

        snap = gateway.metrics.snapshot()
        assert snap["models"]["gbgcn"]["requests"] == 1
        assert snap["models"]["gbgcn"]["rows_served"] == 12
        assert snap["models"]["mf"]["requests"] == 2
        assert snap["models"]["mf"]["rows_served"] == 5
        assert snap["models"]["itempop"]["rows_served"] == 1
        latency = snap["models"]["gbgcn"]["request_latency"]
        assert latency["count"] == 1
        assert 0.0 < latency["p50"] <= latency["max"] * 1.5

    def test_gateway_shares_the_catalog_registry_by_default(self, gateway, catalog, small_split):
        users = some_users(small_split, count=4)
        gateway.top_k(users, k=3, model="mf")
        snap = catalog.metrics.snapshot()
        # One snapshot covers both the gateway's request and the catalog's
        # cold start for the same model.
        assert snap["models"]["mf"]["requests"] == 1
        assert snap["models"]["mf"]["cold_starts"] == 1
