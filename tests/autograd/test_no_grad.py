"""Graph recording control: no_grad, requires_grad propagation."""

import sys
import threading

import numpy as np

from repro.autograd import Tensor, is_grad_enabled, no_grad, sigmoid


class TestNoGrad:
    def test_context_toggles_flag(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_nested_contexts(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_ops_inside_no_grad_do_not_require_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            out = sigmoid(a * 2.0)
        assert not out.requires_grad
        assert out._parents == ()

    def test_tensor_created_inside_no_grad(self):
        with no_grad():
            t = Tensor([1.0], requires_grad=True)
        assert not t.requires_grad

    def test_exception_restores_flag(self):
        try:
            with no_grad():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert is_grad_enabled()


class TestGradModeIsPerThread:
    def test_overlapping_blocks_leave_every_thread_recording(self):
        # A enters, B enters, A exits, B exits: with one process-wide flag,
        # B restores the False it saw on entry and gradients stay off.
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        after = {}

        def first():
            with no_grad():
                a_in.set()
                b_in.wait(5)
            after["a"] = is_grad_enabled()
            a_out.set()

        def second():
            a_in.wait(5)
            with no_grad():
                b_in.set()
                a_out.wait(5)
            after["b"] = is_grad_enabled()

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert after == {"a": True, "b": True}
        assert is_grad_enabled()

    def test_a_thread_parked_in_no_grad_does_not_stop_backward_elsewhere(self):
        parked, release = threading.Event(), threading.Event()

        def park():
            with no_grad():
                parked.set()
                release.wait(5)

        thread = threading.Thread(target=park)
        thread.start()
        try:
            assert parked.wait(5)
            a = Tensor([1.0, 2.0], requires_grad=True)
            (a * a).sum().backward()
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive()
        assert np.allclose(a.grad, [2.0, 4.0])

    def test_a_new_thread_starts_recording(self):
        seen = []
        with no_grad():
            thread = threading.Thread(target=lambda: seen.append(is_grad_enabled()))
            thread.start()
            thread.join(10)
        assert not thread.is_alive()
        assert seen == [True]

    def test_many_threads_switching_modes_each_see_their_own(self):
        # More threads than cores, switching often: a shared flag would let
        # one thread's block leak into another's tensor creation.
        wrong = []
        start = threading.Barrier(8)

        def churn():
            start.wait(10)
            for _ in range(1000):
                if not Tensor([1.0], requires_grad=True).requires_grad:
                    wrong.append("recorded nothing outside no_grad")
                with no_grad():
                    if Tensor([1.0], requires_grad=True).requires_grad:
                        wrong.append("recorded inside no_grad")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert is_grad_enabled()


class TestRequiresGradPropagation:
    def test_result_requires_grad_if_any_parent_does(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=False)
        assert (a + b).requires_grad
        assert (b * b).requires_grad is False

    def test_constant_branch_gets_no_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=False)
        (a * b).sum().backward()
        assert b.grad is None
        assert np.allclose(a.grad, [3.0, 4.0])
