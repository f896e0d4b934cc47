"""Minimal differentiable core: parameter store, gradient tape, Adam.

Everything is float64.  A :class:`Tape` records primitive operations
(affine, broadcast add/sub/mul, SiLU, mean-pool over rows, column concat,
row-wise dot, log-softmax, reductions) in execution order; the backward
pass walks that order in reverse exactly once, accumulating gradients into
the named parameter leaves.  Accumulation order is fixed, so identical
seeds give bitwise-identical training runs.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

CHECKPOINT_MAGIC = b"CGFW1"


class NNError(ValueError):
    pass


class NumericalError(RuntimeError):
    """NaN/Inf encountered; message names the offending tensor or step."""


# ---------------------------------------------------------------------------
# Parameter store
# ---------------------------------------------------------------------------


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    if len(shape) == 2:
        fan_in, fan_out = shape
    else:
        fan_in = fan_out = int(np.prod(shape)) or 1
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


class ParamStore:
    """Named float64 tensors plus Adam moment buffers and a step counter."""

    def __init__(self) -> None:
        self._tensors: dict[str, np.ndarray] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step: int = 0

    def register(self, name: str, value: np.ndarray) -> None:
        if name in self._tensors:
            raise NNError(f"tensor {name!r} already registered")
        arr = np.array(value, dtype=np.float64)
        self._tensors[name] = arr
        self._m[name] = np.zeros_like(arr)
        self._v[name] = np.zeros_like(arr)

    def names(self) -> list[str]:
        return list(self._tensors)

    def get(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def set(self, name: str, value: np.ndarray) -> None:
        current = self._tensors[name]
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != current.shape:
            raise NNError(f"shape mismatch for {name!r}: {arr.shape} != {current.shape}")
        self._tensors[name] = arr.copy()

    def moments(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        return self._m[name], self._v[name]

    def n_parameters(self) -> int:
        return sum(t.size for t in self._tensors.values())

    def copy(self) -> "ParamStore":
        other = ParamStore()
        for name, t in self._tensors.items():
            other.register(name, t)
            other._m[name] = self._m[name].copy()
            other._v[name] = self._v[name].copy()
        other.step = self.step
        return other

    # -- checkpoint format: magic, u32 tensor count, per-tensor records
    #    (u32 name length, name, u32 rank, u64 dims, little-endian f64
    #    payload), then Adam moments (u64 step, per-tensor m and v payloads
    #    in the same order), then a u32-length JSON provenance blob.

    def save(self, path: str | Path, meta: dict | None = None) -> None:
        parts = [CHECKPOINT_MAGIC, struct.pack("<I", len(self._tensors))]
        for name, tensor in self._tensors.items():
            encoded = name.encode("utf-8")
            parts.append(struct.pack("<I", len(encoded)))
            parts.append(encoded)
            parts.append(struct.pack("<I", tensor.ndim))
            for dim in tensor.shape:
                parts.append(struct.pack("<Q", dim))
            parts.append(tensor.astype("<f8").tobytes())
        parts.append(struct.pack("<Q", self.step))
        for name in self._tensors:
            parts.append(self._m[name].astype("<f8").tobytes())
            parts.append(self._v[name].astype("<f8").tobytes())
        blob = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
        parts.append(struct.pack("<I", len(blob)))
        parts.append(blob)
        Path(path).write_bytes(b"".join(parts))

    @classmethod
    def load(cls, path: str | Path) -> tuple["ParamStore", dict]:
        """Read a checkpoint; a truncated, padded or corrupt file raises NNError."""
        data = Path(path).read_bytes()
        if data[:5] != CHECKPOINT_MAGIC:
            raise NNError(f"{path}: bad checkpoint magic {data[:5]!r}")
        offset = 5

        def take(n: int) -> bytes:
            nonlocal offset
            if offset + n > len(data):
                raise NNError(f"{path}: checkpoint truncated at byte {len(data)}")
            chunk = data[offset : offset + n]
            offset += n
            return chunk

        def u32() -> int:
            return struct.unpack("<I", take(4))[0]

        def text(n: int) -> str:
            try:
                return take(n).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise NNError(f"{path}: corrupt checkpoint text: {exc}") from None

        def f64(shape: tuple[int, ...]) -> np.ndarray:
            return np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape).copy()

        store = cls()
        for _ in range(u32()):
            name = text(u32())
            dims = tuple(struct.unpack("<Q", take(8))[0] for _ in range(u32()))
            store.register(name, f64(dims))
        store.step = struct.unpack("<Q", take(8))[0]
        for name, tensor in store._tensors.items():
            store._m[name] = f64(tensor.shape)
            store._v[name] = f64(tensor.shape)
        try:
            meta = json.loads(text(u32()))
        except json.JSONDecodeError as exc:
            raise NNError(f"{path}: corrupt checkpoint provenance: {exc}") from None
        if offset != len(data):
            raise NNError(f"{path}: {len(data) - offset} trailing bytes after checkpoint")
        if not isinstance(meta, dict):
            raise NNError(f"{path}: checkpoint provenance is not a JSON object")
        return store, meta


def adam_step(
    store: ParamStore,
    grads: dict[str, np.ndarray],
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    lr_overrides: dict[str, float] | None = None,
) -> None:
    """Standard Adam with bias correction; per-tensor learning-rate override."""
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient for tensor {name!r}")
    store.step += 1
    t = store.step
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name in store.names():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(store.get(name))
        m, v = store.moments(name)
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        rate = lr if lr_overrides is None else lr_overrides.get(name, lr)
        update = rate * (m / bc1) / (np.sqrt(v / bc2) + eps)
        store.set(name, store.get(name) - update)


# ---------------------------------------------------------------------------
# Gradient tape
# ---------------------------------------------------------------------------


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


@dataclass
class _Node:
    value: np.ndarray
    parents: tuple[int, ...]
    backward: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None
    param_name: str | None = None


class Tape:
    """Append-only op recorder; append order is the topological order."""

    def __init__(self, store: ParamStore | None = None) -> None:
        self.store = store
        self._nodes: list[_Node] = []
        self._param_leaf: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def value(self, node: int) -> np.ndarray:
        return self._nodes[node].value

    def const(self, value) -> int:
        return self._push(np.asarray(value, dtype=np.float64), (), None)

    def param(self, name: str) -> int:
        if self.store is None:
            raise NNError("tape has no parameter store")
        if name not in self._param_leaf:
            node = self._push(self.store.get(name), (), None, param_name=name)
            self._param_leaf[name] = node
        return self._param_leaf[name]

    def _push(self, value, parents, backward, param_name=None) -> int:
        self._nodes.append(_Node(np.asarray(value, dtype=np.float64), tuple(parents), backward, param_name))
        return len(self._nodes) - 1

    # -- primitive ops ------------------------------------------------------

    def affine(self, x: int, w: int, b: int | None = None) -> int:
        xv, wv = self.value(x), self.value(w)
        out = xv @ wv
        if b is not None:
            out = out + self.value(b)

        def back(g: np.ndarray):
            if xv.ndim == 1:
                gx = g @ wv.T
                gw = np.outer(xv, g)
            else:
                gx = g @ wv.T
                gw = xv.T @ g
            if b is None:
                return gx, gw
            gb = g if xv.ndim == 1 else g.sum(axis=0)
            return gx, gw, gb

        parents = (x, w) if b is None else (x, w, b)
        return self._push(out, parents, back)

    def add(self, a: int, b: int) -> int:
        av, bv = self.value(a), self.value(b)
        out = av + bv
        return self._push(
            out, (a, b), lambda g: (_unbroadcast(g, av.shape), _unbroadcast(g, bv.shape))
        )

    def sub(self, a: int, b: int) -> int:
        av, bv = self.value(a), self.value(b)
        out = av - bv
        return self._push(
            out, (a, b), lambda g: (_unbroadcast(g, av.shape), _unbroadcast(-g, bv.shape))
        )

    def mul(self, a: int, b: int) -> int:
        av, bv = self.value(a), self.value(b)
        out = av * bv
        return self._push(
            out,
            (a, b),
            lambda g: (_unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)),
        )

    def scale(self, a: int, c: float) -> int:
        av = self.value(a)
        return self._push(av * c, (a,), lambda g: (g * c,))

    def silu(self, x: int) -> int:
        xv = self.value(x)
        sig = 1.0 / (1.0 + np.exp(-xv))
        out = xv * sig

        def back(g: np.ndarray):
            return (g * sig * (1.0 + xv * (1.0 - sig)),)

        return self._push(out, (x,), back)

    def mean_rows(self, x: int) -> int:
        xv = self.value(x)
        n = xv.shape[0]
        out = xv.mean(axis=0)

        def back(g: np.ndarray):
            return (np.repeat(g[None, :] / n, n, axis=0),)

        return self._push(out, (x,), back)

    def broadcast_rows(self, v: int, n: int) -> int:
        vv = self.value(v)
        out = np.repeat(vv[None, :], n, axis=0)
        return self._push(out, (v,), lambda g: (g.sum(axis=0),))

    def concat_cols(self, a: int, b: int) -> int:
        av, bv = self.value(a), self.value(b)
        out = np.concatenate([av, bv], axis=1)
        split = av.shape[1]
        return self._push(out, (a, b), lambda g: (g[:, :split], g[:, split:]))

    def rowdot(self, a: int, b: int) -> int:
        """(N, F) x (F,) -> (N,): per-row elementwise product summed over F."""
        av, bv = self.value(a), self.value(b)
        out = av @ bv

        def back(g: np.ndarray):
            return (np.outer(g, bv), g @ av)

        return self._push(out, (a, b), back)

    def sum_all(self, x: int) -> int:
        xv = self.value(x)
        return self._push(xv.sum(), (x,), lambda g: (np.full(xv.shape, float(g)),))

    def log_softmax(self, x: int) -> int:
        xv = self.value(x)
        shifted = xv - xv.max()
        out = shifted - np.log(np.exp(shifted).sum())

        def back(g: np.ndarray):
            return (g - np.exp(out) * g.sum(),)

        return self._push(out, (x,), back)

    def pick(self, x: int, index: int) -> int:
        xv = self.value(x)

        def back(g: np.ndarray):
            gx = np.zeros_like(xv)
            gx[index] = float(g)
            return (gx,)

        return self._push(xv[index], (x,), back)

    # -- reverse pass --------------------------------------------------------

    def backward(self, loss: int) -> dict[str, np.ndarray]:
        if self.value(loss).ndim != 0:
            raise NNError("backward requires a scalar loss node")
        grads: list[np.ndarray | None] = [None] * (loss + 1)
        grads[loss] = np.asarray(1.0)
        param_grads: dict[str, np.ndarray] = {}
        for idx in range(loss, -1, -1):
            g = grads[idx]
            if g is None:
                continue
            node = self._nodes[idx]
            if node.param_name is not None:
                acc = param_grads.get(node.param_name)
                param_grads[node.param_name] = g.copy() if acc is None else acc + g
            if node.backward is None:
                continue
            for parent, pg in zip(node.parents, node.backward(g)):
                if grads[parent] is None:
                    grads[parent] = pg.copy()
                else:
                    grads[parent] = grads[parent] + pg
        return param_grads


# ---------------------------------------------------------------------------
# MLP helper and gradient checker
# ---------------------------------------------------------------------------


def mlp_param_shapes(prefix: str, dims: Iterable[int]) -> dict[str, tuple[int, ...]]:
    dims = list(dims)
    shapes: dict[str, tuple[int, ...]] = {}
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        shapes[f"{prefix}.{i}.w"] = (fan_in, fan_out)
        shapes[f"{prefix}.{i}.b"] = (fan_out,)
    return shapes


def register_mlp(
    store: ParamStore, prefix: str, dims: Iterable[int], rng: np.random.Generator
) -> None:
    for name, shape in mlp_param_shapes(prefix, dims).items():
        if name.endswith(".b"):
            store.register(name, np.zeros(shape))
        else:
            store.register(name, glorot_uniform(rng, shape))


def mlp_apply(tape: Tape, prefix: str, x: int, n_layers: int) -> int:
    """Affine-SiLU stack with a linear final layer, reading weights by prefix."""
    h = x
    for i in range(n_layers):
        h = tape.affine(h, tape.param(f"{prefix}.{i}.w"), tape.param(f"{prefix}.{i}.b"))
        if i < n_layers - 1:
            h = tape.silu(h)
    return h


def mlp_apply_np(store: ParamStore, prefix: str, x: np.ndarray, n_layers: int) -> np.ndarray:
    """Tape-free forward pass; mirrors :func:`mlp_apply` arithmetic exactly."""
    h = x
    for i in range(n_layers):
        h = h @ store.get(f"{prefix}.{i}.w") + store.get(f"{prefix}.{i}.b")
        if i < n_layers - 1:
            h = h * (1.0 / (1.0 + np.exp(-h)))
    return h


def finite_difference_check(
    build_loss: Callable[[Tape], int],
    store: ParamStore,
    rng: np.random.Generator,
    n_coords: int = 64,
    h: float = 1e-5,
) -> float:
    """Max relative error of tape gradients vs central differences.

    ``build_loss`` must be a pure function of the store's parameters.
    """
    tape = Tape(store)
    loss_node = build_loss(tape)
    grads = tape.backward(loss_node)

    names = store.names()
    sizes = np.array([store.get(n).size for n in names])
    probs = sizes / sizes.sum()
    max_rel = 0.0
    for _ in range(n_coords):
        name = names[int(rng.choice(len(names), p=probs))]
        tensor = store.get(name)
        flat_idx = int(rng.integers(tensor.size))
        original = tensor.flat[flat_idx]

        tensor.flat[flat_idx] = original + h
        t_plus = Tape(store)
        loss_plus = float(t_plus.value(build_loss(t_plus)))
        tensor.flat[flat_idx] = original - h
        t_minus = Tape(store)
        loss_minus = float(t_minus.value(build_loss(t_minus)))
        tensor.flat[flat_idx] = original

        numeric = (loss_plus - loss_minus) / (2.0 * h)
        analytic = grads.get(name, np.zeros_like(tensor)).flat[flat_idx]
        # the 1e-4 floor keeps difference-quotient roundoff on near-zero
        # coordinates from registering as gradient error
        denom = max(abs(numeric), abs(analytic), 1e-4)
        max_rel = max(max_rel, abs(numeric - analytic) / denom)
    return max_rel
