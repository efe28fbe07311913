"""Module/Parameter system: discovery, state_dict, train/eval modes."""

import numpy as np
import pytest

from repro.nn import Embedding, Linear, MLP, Module, Parameter, eval_mode


class Composite(Module):
    def __init__(self):
        super().__init__()
        self.linear = Linear(4, 3)
        self.embedding = Embedding(5, 4)
        self.extra = Parameter(np.zeros(2))
        self.blocks = [Linear(2, 2), Linear(2, 2)]
        self.by_name = {"head": Linear(3, 1)}

    def forward(self, x):
        return self.linear(x)


class TestParameterDiscovery:
    def test_named_parameters_cover_all(self):
        model = Composite()
        names = dict(model.named_parameters())
        assert "linear.weight" in names
        assert "linear.bias" in names
        assert "embedding.weight" in names
        assert "extra" in names
        assert "blocks.0.weight" in names
        assert "blocks.1.bias" in names
        assert "by_name.head.weight" in names

    def test_parameters_count(self):
        model = Composite()
        expected = 4 * 3 + 3 + 5 * 4 + 2 + 2 * (2 * 2 + 2) + 3 + 1
        assert model.num_parameters() == expected

    def test_named_modules_includes_nested(self):
        model = Composite()
        names = [name for name, _ in model.named_modules()]
        assert "" in names
        assert "linear" in names
        assert "blocks.0" in names
        assert "by_name.head" in names


class TestTrainEval:
    def test_modes_propagate(self):
        model = Composite()
        assert model.training
        model.eval()
        assert not model.training
        assert not model.linear.training
        assert not model.blocks[1].training
        model.train()
        assert model.by_name["head"].training

    def test_eval_mode_restores_train_mode_on_every_exit(self):
        model = Composite()
        with eval_mode(model) as inside:
            assert inside is model
            assert not any(module.training for _, module in model.named_modules())
        assert all(module.training for _, module in model.named_modules())
        with pytest.raises(RuntimeError):
            with eval_mode(model):
                raise RuntimeError("scoring failed")
        assert all(module.training for _, module in model.named_modules())

    def test_eval_mode_leaves_a_module_in_eval_mode_alone(self, monkeypatch):
        model = Composite().eval()
        calls = []
        monkeypatch.setattr(model, "eval", lambda: calls.append("eval"))
        monkeypatch.setattr(model, "train", lambda: calls.append("train"))
        with pytest.raises(RuntimeError):
            with eval_mode(model):
                raise RuntimeError("scoring failed")
        with eval_mode(model):
            pass
        assert calls == []
        assert not model.training

    def test_zero_grad_clears_all(self):
        model = Composite()
        for parameter in model.parameters():
            parameter.grad = np.ones_like(parameter.data)
        model.zero_grad()
        assert all(parameter.grad is None for parameter in model.parameters())


class TestStateDict:
    def test_round_trip(self):
        model = Composite()
        state = model.state_dict()
        other = Composite()
        other.load_state_dict(state)
        for (_, a), (_, b) in zip(model.named_parameters(), other.named_parameters()):
            assert np.allclose(a.data, b.data)

    def test_state_dict_is_a_copy(self):
        model = Composite()
        state = model.state_dict()
        state["extra"][:] = 99.0
        assert not np.allclose(model.extra.data, 99.0)

    def test_strict_mismatch_raises(self):
        model = Composite()
        with pytest.raises(KeyError):
            model.load_state_dict({"nonexistent": np.zeros(1)})

    def test_non_strict_ignores_unknown_and_missing(self):
        model = Composite()
        model.load_state_dict({"extra": np.ones(2), "unknown": np.zeros(3)}, strict=False)
        assert np.allclose(model.extra.data, 1.0)

    def test_shape_mismatch_raises(self):
        model = Composite()
        with pytest.raises(ValueError):
            model.load_state_dict({"extra": np.zeros(5)}, strict=False)

    def test_forward_not_implemented_on_base(self):
        with pytest.raises(NotImplementedError):
            Module().forward()
