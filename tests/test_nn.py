from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgflow.nn import (
    NNError,
    NumericalError,
    ParamStore,
    Tape,
    adam_step,
    finite_difference_check,
    glorot_uniform,
    mlp_apply,
    mlp_apply_np,
    register_mlp,
)
from cgflow.seeding import rng_from


def make_store(rng, shapes):
    store = ParamStore()
    for name, shape in shapes.items():
        store.register(name, rng.normal(size=shape))
    return store


class TestTapeOps:
    def test_zero_weights_zero_output(self):
        store = ParamStore()
        store.register("m.0.w", np.zeros((3, 4)))
        store.register("m.0.b", np.zeros(4))
        tape = Tape(store)
        out = mlp_apply(tape, "m", tape.const(np.ones(3)), n_layers=1)
        assert np.array_equal(tape.value(out), np.zeros(4))

    def test_identity_linear_layer(self):
        store = ParamStore()
        store.register("m.0.w", np.eye(3))
        store.register("m.0.b", np.zeros(3))
        tape = Tape(store)
        x = np.array([1.5, -2.0, 0.25])
        out = mlp_apply(tape, "m", tape.const(x), n_layers=1)
        assert np.array_equal(tape.value(out), x)

    def test_tape_forward_matches_straight_line(self, rng):
        store = ParamStore()
        register_mlp(store, "m", [5, 7, 3], rng_from(4))
        x = rng.normal(size=(6, 5))
        tape = Tape(store)
        node = mlp_apply(tape, "m", tape.const(x), n_layers=2)
        plain = mlp_apply_np(store, "m", x, n_layers=2)
        assert np.array_equal(tape.value(node), plain)

    def test_linear_regression_gradient_closed_form(self, rng):
        # loss = 0.5 * ||x W - y||^2  ->  dW = x^T (x W - y)
        store = ParamStore()
        w = rng.normal(size=(4, 3))
        store.register("w", w)
        x = rng.normal(size=(5, 4))
        y = rng.normal(size=(5, 3))
        tape = Tape(store)
        pred = tape.affine(tape.const(x), tape.param("w"))
        diff = tape.sub(pred, tape.const(y))
        loss = tape.scale(tape.sum_all(tape.mul(diff, diff)), 0.5)
        grads = tape.backward(loss)
        assert np.allclose(grads["w"], x.T @ (x @ w - y), atol=1e-12)

    def test_constant_subgraph_gets_no_gradient(self, rng):
        store = make_store(rng, {"w": (3, 3), "unused": (2, 2)})
        tape = Tape(store)
        x = tape.const(rng.normal(size=3))
        out = tape.sum_all(tape.affine(x, tape.param("w")))
        dead = tape.mul(tape.const(2.0), tape.const(3.0))  # never feeds the loss
        grads = tape.backward(out)
        assert "unused" not in grads
        assert tape.value(dead) == 6.0

    def test_non_scalar_loss_rejected(self, rng):
        store = make_store(rng, {"w": (3, 3)})
        tape = Tape(store)
        node = tape.affine(tape.const(rng.normal(size=3)), tape.param("w"))
        with pytest.raises(NNError):
            tape.backward(node)

    def test_log_softmax_normalizes(self, rng):
        tape = Tape()
        node = tape.log_softmax(tape.const(rng.normal(size=7)))
        assert np.exp(tape.value(node)).sum() == pytest.approx(1.0, abs=1e-12)

    def test_shift_invariance_of_log_softmax(self, rng):
        logits = rng.normal(size=5)
        t1, t2 = Tape(), Tape()
        a = t1.value(t1.log_softmax(t1.const(logits)))
        b = t2.value(t2.log_softmax(t2.const(logits + 123.4)))
        assert np.allclose(a, b, atol=1e-12)

    def test_finite_difference_random_graph(self, rng):
        store = ParamStore()
        register_mlp(store, "m", [6, 8, 8, 1], rng_from(7))
        x = rng.normal(size=(4, 6))

        def build(tape: Tape) -> int:
            out = mlp_apply(tape, "m", tape.const(x), n_layers=3)
            pooled = tape.mean_rows(tape.silu(out))
            return tape.sum_all(tape.mul(pooled, pooled))

        err = finite_difference_check(build, store, rng_from(8), n_coords=64)
        assert err < 1e-4

    def test_mean_rows_broadcast_concat_rowdot_gradients(self, rng):
        store = make_store(rng, {"w": (8, 4)})
        x = rng.normal(size=(5, 4))
        probe = rng.normal(size=4)

        def build(tape: Tape) -> int:
            base = tape.const(x)
            pooled = tape.mean_rows(base)
            ctx = tape.broadcast_rows(pooled, 5)
            joint = tape.concat_cols(base, ctx)
            proj = tape.affine(joint, tape.param("w"))
            scores = tape.rowdot(proj, tape.const(probe))
            picked = tape.pick(tape.log_softmax(scores), 2)
            return tape.mul(picked, picked)

        err = finite_difference_check(build, store, rng_from(9), n_coords=32)
        assert err < 1e-4


class TestAdam:
    def test_zero_gradient_no_change(self, rng):
        store = make_store(rng, {"w": (3, 3)})
        before = store.get("w").copy()
        adam_step(store, {"w": np.zeros((3, 3))}, lr=0.1)
        assert np.array_equal(store.get("w"), before)

    def test_descent_direction_on_square(self):
        store = ParamStore()
        store.register("w", np.array(1.0))
        adam_step(store, {"w": np.array(2.0)}, lr=0.1)  # d(w^2)/dw at w=1
        assert float(store.get("w")) < 1.0

    def test_quadratic_convergence(self):
        # f(w) = (w - w*)^T diag(1, 10) (w - w*), w* = (3, -2)
        store = ParamStore()
        store.register("w", np.zeros(2))
        target = np.array([3.0, -2.0])
        scale = np.array([1.0, 10.0])
        for _ in range(3000):
            g = 2 * scale * (store.get("w") - target)
            adam_step(store, {"w": g}, lr=0.01)
        assert np.linalg.norm(store.get("w") - target) < 1e-3

    def test_lr_override(self, rng):
        store = ParamStore()
        store.register("a", np.array(0.0))
        store.register("b", np.array(0.0))
        adam_step(store, {"a": np.array(1.0), "b": np.array(1.0)}, lr=1e-4, lr_overrides={"b": 1e-2})
        da = abs(float(store.get("a")))
        db = abs(float(store.get("b")))
        assert db == pytest.approx(100 * da, rel=1e-6)

    def test_nan_gradient_names_tensor(self, rng):
        store = make_store(rng, {"theta": (2,)})
        with pytest.raises(NumericalError, match="theta"):
            adam_step(store, {"theta": np.array([np.nan, 0.0])}, lr=0.1)

    def test_bitwise_deterministic_training(self, rng):
        def run():
            store = ParamStore()
            register_mlp(store, "m", [4, 8, 2], rng_from(3))
            data_rng = rng_from(17)
            for _ in range(20):
                x = data_rng.normal(size=(3, 4))
                y = data_rng.normal(size=(3, 2))
                tape = Tape(store)
                pred = mlp_apply(tape, "m", tape.const(x), n_layers=2)
                diff = tape.sub(pred, tape.const(y))
                loss = tape.sum_all(tape.mul(diff, diff))
                adam_step(store, tape.backward(loss), lr=1e-3)
            return store

        s1, s2 = run(), run()
        for name in s1.names():
            assert np.array_equal(s1.get(name), s2.get(name))


class TestCheckpoint:
    def test_bit_exact_round_trip(self, rng, tmp_path):
        store = ParamStore()
        register_mlp(store, "m", [4, 8, 2], rng_from(3))
        store.register("log_Z", np.array(0.731))
        for _ in range(3):
            grads = {n: rng.normal(size=store.get(n).shape) for n in store.names()}
            adam_step(store, grads, lr=1e-3)
        path = tmp_path / "model.ckpt"
        store.save(path, meta={"config_hash": "abc"})
        loaded, meta = ParamStore.load(path)
        assert meta == {"config_hash": "abc"}
        assert loaded.step == store.step
        assert loaded.names() == store.names()
        for name in store.names():
            assert np.array_equal(loaded.get(name), store.get(name))
            for a, b in zip(loaded.moments(name), store.moments(name)):
                assert np.array_equal(a, b)
        # byte-identical re-save
        loaded.save(tmp_path / "again.ckpt", meta={"config_hash": "abc"})
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTCK" + b"\x00" * 16)
        with pytest.raises(NNError):
            ParamStore.load(path)

    @staticmethod
    def _small_checkpoint(tmp_path) -> bytes:
        store = ParamStore()
        register_mlp(store, "m", [2, 3, 1], rng_from(5))
        store.register("log_Z", np.array(0.25))
        path = tmp_path / "small.ckpt"
        store.save(path, meta={"config_hash": "abc"})
        return path.read_bytes()

    def test_every_truncation_raises_nnerror(self, tmp_path):
        data = self._small_checkpoint(tmp_path)
        path = tmp_path / "cut.ckpt"
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(NNError):
                ParamStore.load(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "padded.ckpt"
        path.write_bytes(self._small_checkpoint(tmp_path) + b"\x00")
        with pytest.raises(NNError, match="trailing"):
            ParamStore.load(path)

    @settings(max_examples=200, deadline=None)
    @given(cut=st.integers(min_value=0), garbage=st.binary(max_size=64))
    def test_corrupt_tail_raises_nnerror_or_loads(self, tmp_path_factory, cut, garbage):
        # a valid prefix followed by arbitrary bytes either parses as a whole
        # checkpoint or fails as NNError, never as struct/numpy/unicode errors
        tmp_path = tmp_path_factory.mktemp("ckpt")
        data = self._small_checkpoint(tmp_path)
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(data[: cut % (len(data) + 1)] + garbage)
        try:
            ParamStore.load(path)
        except NNError:
            pass


class TestInit:
    def test_glorot_bounds(self, rng):
        w = glorot_uniform(rng, (30, 50))
        bound = np.sqrt(6.0 / 80.0)
        assert np.abs(w).max() <= bound
        assert w.shape == (30, 50)
