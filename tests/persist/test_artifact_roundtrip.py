"""Registry-wide conformance: save → load → score with bitwise parity.

One parametrized suite over every name in ``ALL_MODEL_NAMES`` (plus the
pre-training model) proving the artifact layer's core guarantee: a model
loaded from disk scores every (user, item) pair with *exactly* the bits of
the model that was saved — embeddings, sparse similarity matrices,
popularity counts and all.  A second suite proves the checkpoint-resume
path: train, checkpoint mid-run, reload in a "fresh process" and get the
identical model back.
"""

import numpy as np
import pytest

from repro.models import ALL_MODEL_NAMES, ModelSettings, build_model
from repro.optim import Adam
from repro.persist import (
    NPZ_FORMAT_VERSION,
    load_model,
    load_state_into,
    read_header,
    read_state_dict,
    save_model,
)
from repro.training import ModelCheckpoint, Trainer, build_batch_iterator

pytestmark = pytest.mark.persist

SETTINGS = ModelSettings(embedding_dim=8)


def scoring_users(dataset) -> np.ndarray:
    return np.arange(min(24, dataset.num_users), dtype=np.int64)


class TestSaveLoadScoreParity:
    @pytest.mark.parametrize("name", ALL_MODEL_NAMES + ["GBGCN-pretrain"])
    def test_score_all_items_bitwise_parity(self, name, small_split, tmp_path):
        train = small_split.train
        model = build_model(name, train, SETTINGS)
        model.eval()
        users = scoring_users(train)
        expected = model.score_all_items(users)

        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path, train)

        assert type(loaded) is type(model)
        got = loaded.score_all_items(users)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", ALL_MODEL_NAMES)
    def test_header_is_self_describing(self, name, small_split, tmp_path):
        train = small_split.train
        model = build_model(name, train, SETTINGS)
        path = tmp_path / "model.npz"
        save_model(model, path)
        header = read_header(path)
        # npz artifacts still carry the v1 stamp (the layout is unchanged,
        # so v1 readers keep reading them); only ``layout="dir"`` is v2.
        assert header.format_version == NPZ_FORMAT_VERSION
        assert header.model_name == name
        assert header.settings == SETTINGS.to_dict()
        assert header.schema["num_users"] == train.num_users
        assert header.schema["num_items"] == train.num_items
        assert sorted(header.state_keys) == sorted(model.state_dict())

    def test_directly_built_gbgcn_roundtrips_via_config(self, small_split, tmp_path):
        """A GBGCN constructed by hand (no registry) rebuilds from its config."""
        from repro.core import GBGCN, GBGCNConfig
        from repro.graph import build_hetero_graph

        train = small_split.train
        config = GBGCNConfig(embedding_dim=8, num_layers=1, alpha=0.4, beta=0.1)
        model = GBGCN(
            train.num_users,
            train.num_items,
            build_hetero_graph(train),
            config=config,
            rng=np.random.default_rng(3),
        )
        model.eval()
        users = scoring_users(train)
        expected = model.score_all_items(users)

        path = tmp_path / "gbgcn.npz"
        save_model(model, path, dataset=train)
        loaded = load_model(path, train)
        assert loaded.config == config
        assert loaded.score_all_items(users).tobytes() == expected.tobytes()

    def test_recorded_gbgcn_config_wins_over_settings(self, small_split, tmp_path):
        """A hand-built GBGCN saved alongside generic settings must rebuild
        from its true config, not from the settings-derived one."""
        from repro.core import GBGCN, GBGCNConfig
        from repro.graph import build_hetero_graph

        train = small_split.train
        config = GBGCNConfig(embedding_dim=8, num_layers=1, alpha=0.4, beta=0.1)
        model = GBGCN(
            train.num_users,
            train.num_items,
            build_hetero_graph(train),
            config=config,
            rng=np.random.default_rng(3),
        )
        model.eval()
        users = scoring_users(train)
        expected = model.score_all_items(users)

        path = tmp_path / "gbgcn.npz"
        # Explicit settings whose derived config (alpha=0.6, 2 layers, ...)
        # disagrees with the model's actual config.
        save_model(model, path, dataset=train, settings=SETTINGS, model_name="GBGCN")
        loaded = load_model(path, train)
        assert loaded.config == config
        assert loaded.score_all_items(users).tobytes() == expected.tobytes()

    def test_loaded_gbgcn_can_be_resaved_and_reloaded(self, small_split, tmp_path):
        """The config rebuild path rebinds identity, so load→save→load works."""
        from repro.core import GBGCN, GBGCNConfig
        from repro.graph import build_hetero_graph

        train = small_split.train
        model = GBGCN(
            train.num_users,
            train.num_items,
            build_hetero_graph(train),
            config=GBGCNConfig(embedding_dim=8),
            rng=np.random.default_rng(3),
        )
        model.eval()
        users = scoring_users(train)
        expected = model.score_all_items(users)

        first = tmp_path / "first.npz"
        save_model(model, first, dataset=train)
        loaded = load_model(first, train)
        second = tmp_path / "second.npz"
        save_model(loaded, second)  # no dataset arg: identity must be bound
        again = load_model(second, train)
        assert read_header(second).schema == read_header(first).schema
        assert again.score_all_items(users).tobytes() == expected.tobytes()

    def test_load_state_into_prebuilt_model(self, small_split, tmp_path):
        train = small_split.train
        model = build_model("MF", train, SETTINGS)
        path = tmp_path / "mf.npz"
        save_model(model, path)

        other = build_model("MF", train, ModelSettings(embedding_dim=8, seed=7))
        users = scoring_users(train)
        assert not np.array_equal(other.score_all_items(users), model.score_all_items(users))
        load_state_into(other, path, dataset=train)
        assert np.array_equal(other.score_all_items(users), model.score_all_items(users))


class TestCheckpointResumeParity:
    @pytest.mark.parametrize("name", ["MF", "GBGCN", "SIGR", "NGCF"])
    def test_two_epoch_checkpoint_reloads_identically(self, name, small_split, tmp_path):
        train = small_split.train
        model = build_model(name, train, SETTINGS)
        iterator = build_batch_iterator(model, train, batch_size=256, seed=0)
        checkpoint = ModelCheckpoint(tmp_path / "ckpt.npz", save_best_only=False)
        trainer = Trainer(
            model, Adam(model.parameters(), lr=0.01), iterator, evaluator=None, callbacks=[checkpoint]
        )
        trainer.fit(2)
        assert checkpoint.num_saves == 2

        model.eval()
        users = scoring_users(train)
        expected = model.score_all_items(users)

        resumed = load_model(tmp_path / "ckpt.npz", train)
        assert resumed.score_all_items(users).tobytes() == expected.tobytes()

    def test_restore_best_from_checkpoint_in_fresh_process(self, small_split, small_evaluator, tmp_path):
        train = small_split.train
        model = build_model("MF", train, SETTINGS)
        iterator = build_batch_iterator(model, train, batch_size=256, seed=0)
        checkpoint = ModelCheckpoint(tmp_path / "best.npz", save_best_only=True)
        trainer = Trainer(
            model,
            Adam(model.parameters(), lr=0.01),
            iterator,
            evaluator=small_evaluator,
            selection_metric="Recall@10",
            callbacks=[checkpoint],
        )
        trainer.fit(2)
        assert checkpoint.num_saves >= 1
        users = scoring_users(train)
        best_scores = model.score_all_items(users)

        # Simulate a fresh process: a trainer with no in-memory best state
        # restores the best weights from the checkpoint's artifact when the
        # path is given explicitly.
        fresh_model = build_model("MF", train, ModelSettings(embedding_dim=8, seed=11))
        fresh_trainer = Trainer(fresh_model, Adam(fresh_model.parameters(), lr=0.01), iterator)
        assert not np.array_equal(fresh_model.score_all_items(users), best_scores)
        fresh_trainer.restore_best(checkpoint_path=checkpoint.path)
        assert np.array_equal(fresh_model.score_all_items(users), best_scores)

    def test_end_of_fit_restore_never_loads_stale_artifact(self, small_split, tmp_path):
        """fit() without validation must keep its trained weights even when a
        best-only checkpoint from an earlier run sits on the callback."""
        train = small_split.train
        stale_model = build_model("MF", train, ModelSettings(embedding_dim=8, seed=3))
        checkpoint = ModelCheckpoint(tmp_path / "stale.npz", save_best_only=True)
        save_model(stale_model, checkpoint.path)
        checkpoint.num_saves = 1

        model = build_model("MF", train, SETTINGS)
        iterator = build_batch_iterator(model, train, batch_size=256, seed=0)
        trainer = Trainer(
            model, Adam(model.parameters(), lr=0.01), iterator, evaluator=None, callbacks=[checkpoint]
        )
        trainer.fit(2)
        users = scoring_users(train)
        stale_model.eval()
        assert not np.array_equal(model.score_all_items(users), stale_model.score_all_items(users))

    def test_explicit_checkpoint_path_wins_over_in_memory_state(
        self, small_split, small_evaluator, tmp_path
    ):
        train = small_split.train
        other = build_model("MF", train, ModelSettings(embedding_dim=8, seed=9))
        other_path = tmp_path / "other.npz"
        save_model(other, other_path)
        users = scoring_users(train)
        other.eval()
        other_scores = other.score_all_items(users)

        model = build_model("MF", train, SETTINGS)
        iterator = build_batch_iterator(model, train, batch_size=256, seed=0)
        trainer = Trainer(
            model, Adam(model.parameters(), lr=0.01), iterator, evaluator=small_evaluator
        )
        trainer.fit(2)  # populates the in-memory best state
        trainer.restore_best(checkpoint_path=other_path, dataset=train)
        assert np.array_equal(model.score_all_items(users), other_scores)

    def test_restore_best_from_explicit_path(self, small_split, tmp_path):
        train = small_split.train
        model = build_model("MF", train, SETTINGS)
        path = tmp_path / "mf.npz"
        save_model(model, path)
        users = scoring_users(train)
        expected = model.score_all_items(users)

        other = build_model("MF", train, ModelSettings(embedding_dim=8, seed=5))
        trainer = Trainer(other, Adam(other.parameters(), lr=0.01), batch_iterator=[])
        trainer.restore_best(checkpoint_path=path)
        assert np.array_equal(other.score_all_items(users), expected)


class TestServingFromArtifact:
    def test_embedding_store_cold_start(self, small_split, tmp_path):
        from repro.serving import EmbeddingStore, TopKRecommender

        train = small_split.train
        model = build_model("GBGCN", train, SETTINGS)
        warm = EmbeddingStore(model)
        warm.refresh()
        users = scoring_users(train)
        expected = warm.score_all_items(users)

        path = tmp_path / "gbgcn.npz"
        save_model(model, path)
        cold = EmbeddingStore.from_artifact(path, train)
        assert cold.model.factor_version == 1  # propagated once, at load
        assert cold.score_all_items(users).tobytes() == expected.tobytes()

        warm_top = TopKRecommender(warm, k=5, dataset=small_split.full).recommend(users)
        cold_top = TopKRecommender(cold, k=5, dataset=small_split.full).recommend(users)
        assert np.array_equal(warm_top.items, cold_top.items)

    def test_state_dict_readable_without_dataset(self, small_split, tmp_path):
        train = small_split.train
        model = build_model("MF", train, SETTINGS)
        path = tmp_path / "mf.npz"
        save_model(model, path)
        header, state = read_state_dict(path)
        assert header.model_name == "MF"
        assert set(state) == set(model.state_dict())
        for key, value in model.state_dict().items():
            assert np.array_equal(state[key], value)
