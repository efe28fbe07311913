"""Activations, concat/stack, dropout, softmax: values and gradients."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    check_gradients,
    concat,
    dropout,
    leaky_relu,
    log_sigmoid,
    relu,
    sigmoid,
    softmax,
    softplus,
    stack,
    tanh,
    ACTIVATIONS,
)


def make(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)


class TestActivations:
    def test_sigmoid_values(self):
        x = Tensor([0.0, 100.0, -100.0])
        out = sigmoid(x).data
        assert np.isclose(out[0], 0.5)
        assert np.isclose(out[1], 1.0)
        assert np.isclose(out[2], 0.0)

    def test_sigmoid_gradients(self):
        x = make((3, 4), 1)
        check_gradients(lambda: sigmoid(x).sum(), {"x": x})

    @pytest.mark.parametrize("scale", [0.01, 1.0, 5.0, 30.0, 100.0])
    def test_sigmoid_bytes_equal_the_two_branch_form(self, scale):
        # Each branch is one IEEE division of the shared exp(-min(|x|, 60)),
        # whichever arrays hold it; NaN takes the negative branch.
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 60.0, -60.0, 60.1, -60.1,
                   700.0, -700.0, np.inf, -np.inf, np.nan]
        values = np.concatenate([special, np.random.default_rng(7).normal(scale=scale, size=4096)])
        decay = np.exp(-np.minimum(np.abs(values), 60.0))
        expected = np.where(values >= 0, 1.0 / (decay + 1.0), decay / (decay + 1.0))
        assert sigmoid(Tensor(values)).data.tobytes() == expected.tobytes()

    def test_log_sigmoid_matches_log_of_sigmoid(self):
        x = make((5,), 2)
        assert np.allclose(log_sigmoid(x).data, np.log(sigmoid(x).data))

    def test_log_sigmoid_stable_for_large_negative(self):
        x = Tensor([-500.0])
        value = log_sigmoid(x).data
        assert np.isfinite(value).all()
        assert np.isclose(value[0], -500.0)

    def test_log_sigmoid_gradients(self):
        x = make((4, 2), 3)
        check_gradients(lambda: log_sigmoid(x).sum(), {"x": x})

    def test_softplus_values_and_gradients(self):
        x = make((6,), 4)
        assert np.allclose(softplus(x).data, np.log1p(np.exp(x.data)))
        check_gradients(lambda: softplus(x).sum(), {"x": x})

    def test_relu_values(self):
        x = Tensor([-1.0, 0.0, 2.0])
        assert np.allclose(relu(x).data, [0.0, 0.0, 2.0])

    def test_relu_gradients(self):
        x = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
        relu(x).sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0, 1.0])

    def test_leaky_relu_values(self):
        x = Tensor([-2.0, 3.0])
        assert np.allclose(leaky_relu(x, 0.1).data, [-0.2, 3.0])

    def test_leaky_relu_gradients(self):
        x = make((5,), 5)
        check_gradients(lambda: leaky_relu(x, 0.2).sum(), {"x": x})

    def test_tanh_gradients(self):
        x = make((3, 3), 6)
        check_gradients(lambda: tanh(x).sum(), {"x": x})

    def test_activation_registry(self):
        assert set(ACTIVATIONS) == {"sigmoid", "relu", "leaky_relu", "tanh", "identity"}
        x = Tensor([1.0, -1.0])
        assert np.allclose(ACTIVATIONS["identity"](x).data, x.data)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = make((4, 6), 10)
        out = softmax(x, axis=-1).data
        assert np.allclose(out.sum(axis=-1), 1.0)

    def test_invariant_to_shift(self):
        x = make((3, 5), 11)
        shifted = Tensor(x.data + 100.0)
        assert np.allclose(softmax(x).data, softmax(shifted).data)

    def test_gradients(self):
        x = make((2, 4), 12)
        weights = np.random.default_rng(13).normal(size=(2, 4))
        check_gradients(lambda: (softmax(x, axis=-1) * Tensor(weights)).sum(), {"x": x})


class TestConcatStack:
    def test_concat_values(self):
        a, b = Tensor([[1.0, 2.0]]), Tensor([[3.0]])
        assert np.allclose(concat([a, b], axis=1).data, [[1.0, 2.0, 3.0]])

    def test_concat_gradients_axis0(self):
        a, b = make((2, 3), 20), make((4, 3), 21)
        check_gradients(lambda: (concat([a, b], axis=0) ** 2).sum(), {"a": a, "b": b})

    def test_concat_gradients_axis1(self):
        a, b, c = make((2, 3), 22), make((2, 1), 23), make((2, 2), 24)
        check_gradients(lambda: (concat([a, b, c], axis=1) ** 2).sum(), {"a": a, "b": b, "c": c})

    def test_stack_shape_and_gradients(self):
        a, b = make((3,), 25), make((3,), 26)
        stacked = stack([a, b], axis=0)
        assert stacked.shape == (2, 3)
        check_gradients(lambda: (stack([a, b], axis=0) ** 2).sum(), {"a": a, "b": b})


class TestDropout:
    def test_disabled_in_eval(self):
        x = make((10, 10), 30)
        out = dropout(x, 0.5, training=False)
        assert out is x

    def test_zero_rate_is_identity(self):
        x = make((4, 4), 31)
        assert dropout(x, 0.0) is x

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            dropout(make((2, 2), 32), 1.0)

    def test_scaling_preserves_expectation(self):
        rng = np.random.default_rng(33)
        x = Tensor(np.ones((2000,)))
        out = dropout(x, 0.3, rng=rng, training=True)
        assert abs(out.data.mean() - 1.0) < 0.1

    def test_gradient_uses_same_mask(self):
        rng = np.random.default_rng(34)
        x = Tensor(np.ones((50,)), requires_grad=True)
        out = dropout(x, 0.5, rng=rng, training=True)
        out.sum().backward()
        # Gradient is exactly the mask applied in the forward pass.
        assert np.allclose(x.grad, out.data)
