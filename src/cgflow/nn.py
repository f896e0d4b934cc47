"""Minimal differentiable core: parameter store, gradient tape, Adam.

Everything is float64.  A :class:`Tape` records primitive operations
(affine, broadcast add/sub/mul, SiLU, and over the row spans of a stacked
matrix the mean, row broadcast, affine, row-wise dot and log-softmax; row
and column concat, picks, reductions) in execution order; the backward
pass walks that order in reverse exactly once, accumulating gradients into
the named parameter leaves.  Accumulation order is fixed, so identical
seeds give bitwise-identical training runs.

Each model writes its forward pass once against the op names shared by
:class:`Tape` and :class:`Eval`: on a tape for training, on the
forward-only evaluator for inference, with bitwise-equal results.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ArtifactError, InvariantError, NumericalError
from .fileio import atomic_open

CHECKPOINT_MAGIC = b"CGFW1"

# (offset, rows) of each object's block in a matrix of stacked per-point rows
Spans = Sequence[tuple[int, int]]


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
            raise InvariantError(f"tensor {name!r} already registered")
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
            raise InvariantError(f"shape mismatch for {name!r}: {arr.shape} != {current.shape}")
        self._tensors[name] = arr.copy()

    def moments(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        return self._m[name], self._v[name]

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
        with atomic_open(path) as fh:
            fh.write(b"".join(parts))

    @classmethod
    def load(cls, path: str | Path) -> tuple["ParamStore", dict]:
        """Read a checkpoint; a truncated, padded or corrupt file raises ArtifactError."""
        data = Path(path).read_bytes()
        if data[:5] != CHECKPOINT_MAGIC:
            raise ArtifactError(f"{path}: bad checkpoint magic {data[:5]!r}")
        offset = 5

        def take(n: int) -> bytes:
            nonlocal offset
            if offset + n > len(data):
                raise ArtifactError(f"{path}: checkpoint truncated at byte {len(data)}")
            chunk = data[offset : offset + n]
            offset += n
            return chunk

        def u32() -> int:
            return struct.unpack("<I", take(4))[0]

        def text(n: int) -> str:
            try:
                return take(n).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ArtifactError(f"{path}: corrupt checkpoint text: {exc}") from None

        def f64(shape: tuple[int, ...]) -> np.ndarray:
            return np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape).copy()

        store = cls()
        for _ in range(u32()):
            name = text(u32())
            if name in store._tensors:
                raise ArtifactError(f"{path}: tensor {name!r} stored twice")
            dims = tuple(struct.unpack("<Q", take(8))[0] for _ in range(u32()))
            store.register(name, f64(dims))
        store.step = struct.unpack("<Q", take(8))[0]
        for name, tensor in store._tensors.items():
            store._m[name] = f64(tensor.shape)
            store._v[name] = f64(tensor.shape)
        try:
            meta = json.loads(text(u32()))
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"{path}: corrupt checkpoint provenance: {exc}") from None
        if offset != len(data):
            raise ArtifactError(f"{path}: {len(data) - offset} trailing bytes after checkpoint")
        if not isinstance(meta, dict):
            raise ArtifactError(f"{path}: checkpoint provenance is not a JSON object")
        return store, meta


def adam_step(
    store: ParamStore,
    grads: dict[str, np.ndarray],
    lr: float,
    lr_overrides: dict[str, float] | None = None,
) -> None:
    """Standard Adam with bias correction; per-tensor learning-rate override."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
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


def _slice_mean(x: np.ndarray, offset: int, rows: int) -> np.ndarray:
    # np.mean's own arithmetic (one add.reduce down the rows, then a true
    # divide by the count), kept as a (1, F) row and without np.mean's
    # Python-level overhead; bitwise equal to x[offset:offset + rows].mean(0)
    return x[offset : offset + rows].sum(axis=0, keepdims=True) / rows


def _stack(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def stack_rows(blocks: list[np.ndarray]) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """The row blocks stacked into one matrix (a single block is returned
    as it is), and each block's (offset, rows) in it."""
    spans = []
    offset = 0
    for block in blocks:
        m = len(block)
        spans.append((offset, m))
        offset += m
    return _stack(blocks), spans


def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max()
    return shifted - np.log(np.exp(shifted).sum())


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
            raise InvariantError("tape has no parameter store")
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

    def segment_mean(self, x: int, spans: Spans) -> int:
        """(P, F) -> (k, F): row j is the mean of the rows of ``spans[j]``."""
        xv = self.value(x)
        out = _stack([_slice_mean(xv, o, m) for o, m in spans])

        def back(g: np.ndarray):
            gx = np.zeros_like(xv)
            for j, (o, m) in enumerate(spans):
                gx[o : o + m] = g[j] / m
            return (gx,)

        return self._push(out, (x,), back)

    def broadcast_rows(self, v: int, spans: Spans) -> int:
        """(k, F) -> (P, F): row j of ``v`` fills the rows of ``spans[j]``."""
        vv = self.value(v)
        out = np.repeat(vv, [m for _, m in spans], axis=0)

        def back(g: np.ndarray):
            gv = np.empty_like(vv)
            for j, (o, m) in enumerate(spans):
                gv[j] = g[o : o + m].sum(axis=0)
            return (gv,)

        return self._push(out, (v,), back)

    def segment_affine(self, x: int, w: int, b: int, spans: Spans) -> int:
        """``x @ w + b`` with the product taken separately per span of rows."""
        xv, wv = self.value(x), self.value(w)
        out = _stack([xv[o : o + m] @ wv for o, m in spans]) + self.value(b)
        return self._push(out, (x, w, b), lambda g: (g @ wv.T, xv.T @ g, g.sum(axis=0)))

    def concat_cols(self, a: int, b: int) -> int:
        av, bv = self.value(a), self.value(b)
        out = np.concatenate([av, bv], axis=1)
        split = av.shape[1]
        return self._push(out, (a, b), lambda g: (g[:, :split], g[:, split:]))

    def concat_rows(self, a: int, b: int) -> int:
        av, bv = self.value(a), self.value(b)
        split = av.shape[0]
        return self._push(np.concatenate([av, bv]), (a, b), lambda g: (g[:split], g[split:]))

    def rowdot(self, a: int, b: int, spans: Spans) -> int:
        """(N, F) x (k, F) -> (N,): each row of ``spans[j]`` dotted with row
        j of ``b``, one matrix-vector product per span."""
        av, bv = self.value(a), self.value(b)
        out = _stack([av[o : o + m] @ bv[j] for j, (o, m) in enumerate(spans)])

        def back(g: np.ndarray):
            ga = np.zeros_like(av)
            gb = np.empty_like(bv)
            for j, (o, m) in enumerate(spans):
                ga[o : o + m] = np.outer(g[o : o + m], bv[j])
                gb[j] = g[o : o + m] @ av[o : o + m]
            return ga, gb

        return self._push(out, (a, b), back)

    def sum_all(self, x: int) -> int:
        xv = self.value(x)
        return self._push(xv.sum(), (x,), lambda g: (np.full(xv.shape, float(g)),))

    def log_softmax(self, x: int, spans: Spans) -> int:
        """Log-softmax of a vector, taken separately over each span of entries."""
        xv = self.value(x)
        out = _stack([_log_softmax(xv[o : o + m]) for o, m in spans])

        def back(g: np.ndarray):
            gx = np.zeros_like(xv)
            for o, m in spans:
                gs = g[o : o + m]
                gx[o : o + m] = gs - np.exp(out[o : o + m]) * gs.sum()
            return (gx,)

        return self._push(out, (x,), back)

    def pick(self, x: int, index: int | list[int]) -> int:
        """Entry ``index`` of a vector, or the vector of entries at a list of
        distinct indices."""
        xv = self.value(x)

        def back(g: np.ndarray):
            gx = np.zeros_like(xv)
            gx[index] = g
            return (gx,)

        return self._push(xv[index], (x,), back)

    # -- reverse pass --------------------------------------------------------

    def backward(self, loss: int) -> dict[str, np.ndarray]:
        if self.value(loss).ndim != 0:
            raise InvariantError("backward requires a scalar loss node")
        grads: list[np.ndarray | None] = [None] * (loss + 1)
        grads[loss] = np.asarray(1.0)
        param_grads: dict[str, np.ndarray] = {}
        for idx in range(loss, -1, -1):
            g = grads[idx]
            if g is None:
                continue
            # a node's gradient is complete once the walk reaches it; drop it
            # then, so a packed tape's large gradients do not all stay alive
            grads[idx] = None
            node = self._nodes[idx]
            if node.param_name is not None:
                acc = param_grads.get(node.param_name)
                param_grads[node.param_name] = g.copy() if acc is None else acc + g
            if node.backward is None:
                continue
            # no backward writes into a gradient array, so a parent may
            # hold the array (or a view of it) that its child passed down
            for parent, pg in zip(node.parents, node.backward(g)):
                if grads[parent] is None:
                    grads[parent] = pg
                else:
                    grads[parent] = grads[parent] + pg
        return param_grads


class Eval:
    """Forward-only twin of :class:`Tape`: a handle is the array itself.

    It has only the ops the model forwards use, each with its Tape op's
    arithmetic, so a forward written against the Tape op names gives
    bitwise-equal values here without recording anything.
    """

    def __init__(self, store: ParamStore) -> None:
        # param(name) is the store's own dict lookup: a forward reads a dozen
        # parameters, and a Python-level wrapper per read is measurable
        self.param = store._tensors.__getitem__

    @staticmethod
    def value(x: np.ndarray) -> np.ndarray:
        return x

    @staticmethod
    def const(value) -> np.ndarray:
        return np.asarray(value, dtype=np.float64)

    @staticmethod
    def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
        return x @ w + b

    @staticmethod
    def silu(x: np.ndarray) -> np.ndarray:
        return x * (1.0 / (1.0 + np.exp(-x)))

    @staticmethod
    def segment_mean(x: np.ndarray, spans: Spans) -> np.ndarray:
        return _stack([_slice_mean(x, o, m) for o, m in spans])

    @staticmethod
    def broadcast_rows(v: np.ndarray, spans: Spans) -> np.ndarray:
        return np.repeat(v, [m for _, m in spans], axis=0)

    @staticmethod
    def segment_affine(x: np.ndarray, w: np.ndarray, b: np.ndarray, spans: Spans) -> np.ndarray:
        return _stack([x[o : o + m] @ w for o, m in spans]) + b

    @staticmethod
    def concat_cols(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.concatenate([a, b], axis=1)

    @staticmethod
    def concat_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.concatenate([a, b])

    @staticmethod
    def rowdot(a: np.ndarray, b: np.ndarray, spans: Spans) -> np.ndarray:
        return _stack([a[o : o + m] @ b[j] for j, (o, m) in enumerate(spans)])

    @staticmethod
    def log_softmax(x: np.ndarray, spans: Spans) -> np.ndarray:
        return _stack([_log_softmax(x[o : o + m]) for o, m in spans])


# ---------------------------------------------------------------------------
# MLP helper and gradient checker
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _layer_names(prefix: str, n_layers: int) -> tuple[tuple[str, str], ...]:
    # cached: every forward reads these names, and formatting them per call
    # costs a few percent of an inference forward
    return tuple((f"{prefix}.{i}.w", f"{prefix}.{i}.b") for i in range(n_layers))


def mlp_param_shapes(prefix: str, dims: Iterable[int]) -> dict[str, tuple[int, ...]]:
    dims = list(dims)
    shapes: dict[str, tuple[int, ...]] = {}
    for (w, b), fan_in, fan_out in zip(_layer_names(prefix, len(dims) - 1), dims, dims[1:]):
        shapes[w] = (fan_in, fan_out)
        shapes[b] = (fan_out,)
    return shapes


def register_mlp(
    store: ParamStore, prefix: str, dims: Iterable[int], rng: np.random.Generator
) -> None:
    for name, shape in mlp_param_shapes(prefix, dims).items():
        if name.endswith(".b"):
            store.register(name, np.zeros(shape))
        else:
            store.register(name, glorot_uniform(rng, shape))


def mlp_apply(ops, prefix: str, x, n_layers: int, spans: Spans | None = None):
    """Affine-SiLU stack with a linear final layer, reading weights by prefix.

    ``ops`` is a :class:`Tape` or an :class:`Eval`; ``x`` is one of its
    handles.  With ``spans`` every layer's product is taken per span of rows
    (``segment_affine``) instead of once over the whole matrix.
    """
    h = x
    for i, (w, b) in enumerate(_layer_names(prefix, n_layers)):
        if i:
            h = ops.silu(h)
        if spans is None:
            h = ops.affine(h, ops.param(w), ops.param(b))
        else:
            h = ops.segment_affine(h, ops.param(w), ops.param(b), spans)
    return h


def finite_difference_check(
    build_loss: Callable[[Tape], int],
    store: ParamStore,
    rng: np.random.Generator,
    n_coords: int = 64,
) -> float:
    """Max relative error of tape gradients vs central differences with
    step ``h = 1e-5``.

    ``build_loss`` must be a pure function of the store's parameters.
    """
    h = 1e-5
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
