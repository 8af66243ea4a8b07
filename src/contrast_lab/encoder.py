"""ReLU encoder networks: init, forward traces, back-propagation products.

A network with layer count parameter ``L`` holds L+1 weight matrices:
W0 (m x b), W1..W_{L-1} (m x m), WL (d x m), no biases.  ReLU ties at
exactly zero count as active, so sigma(z) = mask * z holds exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ShapeError
from .linalg import gaussian_matrix
from .rng import RngState


@dataclass(frozen=True)
class Shape:
    L: int
    m: int
    d: int
    b: int

    def __post_init__(self):
        if self.L < 1 or self.m < 1 or self.d < 1 or self.b < 1:
            raise ShapeError(f"all shape fields must be >= 1, got {self}")

    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [(self.m, self.b)]
        dims += [(self.m, self.m)] * (self.L - 1)
        dims.append((self.d, self.m))
        return dims


@dataclass(frozen=True)
class Params:
    """A net's weights, held as read-only views of the arrays it is given:
    nothing writes through a Params, and the caller's arrays keep their
    flags, so whoever owns them may still write them."""

    shape: Shape
    weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        dims = self.shape.layer_dims()
        if len(self.weights) != len(dims):
            raise ShapeError(
                f"expected {len(dims)} weight matrices, got {len(self.weights)}"
            )
        for l, (w, dim) in enumerate(zip(self.weights, dims)):
            if w.shape != dim:
                raise ShapeError(f"layer {l}: expected shape {dim}, got {w.shape}")
        views = tuple(w.view() for w in self.weights)
        for v in views:
            v.flags.writeable = False
        object.__setattr__(self, "weights", views)

    def write(self, path) -> None:
        """Binary container: one JSON header line, then raw little-endian
        float64 payloads per layer, row-major, streamed to ``path`` one layer
        at a time.  Round-trip through from_bytes is bit-exact."""
        header = json.dumps(
            {"L": self.shape.L, "m": self.shape.m, "d": self.shape.d, "b": self.shape.b}
        ).encode()
        with open(path, "wb") as fh:
            fh.write(header + b"\n")
            for w in self.weights:
                fh.write(np.ascontiguousarray(w, dtype="<f8"))

    @staticmethod
    def from_bytes(blob: bytes) -> "Params":
        """The net of a ``write`` container; ShapeError unless the header line
        is a JSON object of exactly the integers L, m, d and b (a bool is not
        one) and exactly its layers' float64 bytes follow."""
        header, newline, _ = blob.partition(b"\n")
        try:
            meta = json.loads(header) if newline else None
        except ValueError:  # not UTF-8, or not JSON
            meta = None
        if not (isinstance(meta, dict) and set(meta) == {"L", "m", "d", "b"}
                and all(type(v) is int for v in meta.values())):
            raise ShapeError(f"params header must be a JSON object of the integers L, m, d "
                             f"and b on the first line, got {header[:200]!r}")
        shape = Shape(**meta)
        offset = len(header) + 1
        entries = sum(rows * cols for rows, cols in shape.layer_dims())
        if len(blob) - offset != 8 * entries:
            raise ShapeError(f"{shape} needs {8 * entries} payload bytes, got {len(blob) - offset}")
        weights = []
        for rows, cols in shape.layer_dims():
            count = rows * cols
            w = np.frombuffer(
                blob, dtype="<f8", count=count, offset=offset
            ).reshape(rows, cols)
            weights.append(w.copy())
            offset += count * 8
        return Params(shape=shape, weights=tuple(weights))


def sum_of_squares(arrays: Iterable[np.ndarray]) -> float:
    """Sum of the squared entries of every array, accumulated array by array
    (the squared Frobenius norm of a weight stack)."""
    total = 0.0
    for a in arrays:
        total += float(np.sum(np.square(a)))
    return total


def init_params(rng: RngState, shape: Shape) -> Params:
    """He-style init: hidden layers N(0, 2/m), output layer N(0, 1/d)."""
    weights = []
    for l, (rows, cols) in enumerate(shape.layer_dims()):
        variance = 1.0 / shape.d if l == shape.L else 2.0 / shape.m
        weights.append(gaussian_matrix(rng.child(f"layer-{l}"), rows, cols, variance))
    return Params(shape=shape, weights=tuple(weights))


@dataclass(frozen=True)
class ForwardTrace:
    """Hidden states and ReLU masks of one forward pass.

    hidden[l] is the post-activation state of layer l (0 <= l <= L-1);
    masks[l] is the boolean activation pattern (pre-activation >= 0);
    output = WL @ hidden[L-1].
    """

    x: np.ndarray
    hidden: tuple[np.ndarray, ...]
    masks: tuple[np.ndarray, ...]
    output: np.ndarray


def forward_trace(p: Params, x: np.ndarray) -> ForwardTrace:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (p.shape.b,):
        raise ShapeError(f"input must have shape ({p.shape.b},), got {x.shape}")
    h = x
    hidden, masks = [], []
    for l in range(p.shape.L):
        pre = p.weights[l] @ h
        mask = pre >= 0.0
        h = np.where(mask, pre, 0.0)
        hidden.append(h)
        masks.append(mask)
    out = p.weights[p.shape.L] @ h
    return ForwardTrace(
        x=x, hidden=tuple(hidden), masks=tuple(masks), output=out
    )


@dataclass(frozen=True)
class BatchTrace:
    """Column-stacked forward pass of many inputs through one network.

    hidden[l] has shape (m, n); masks[l] is boolean (m, n); outputs is (d, n).
    Column i matches forward_trace on input i exactly.
    """

    hidden: tuple[np.ndarray, ...]
    masks: tuple[np.ndarray, ...]
    outputs: np.ndarray

    @property
    def pattern(self) -> np.ndarray:
        """The activation pattern: every mask, flattened layer by layer."""
        return np.concatenate([m.ravel() for m in self.masks])


def _inputs(p: Params, xs: np.ndarray) -> np.ndarray:
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != p.shape.b:
        raise ShapeError(f"inputs must be (n, {p.shape.b}), got {xs.shape}")
    return xs


def _forward(p: Params, h: np.ndarray, direction: Iterable[np.ndarray] | None = None,
             s: np.ndarray | None = None, start: int = 0) -> BatchTrace:
    """The layer loop of every batched pass, one column per input of ``h``;
    with a ``direction`` each layer's pre-activation, the output layer's
    included, gains (U h) * s, scaled column by column, U the direction's
    next entry: it is read in layer order, once per layer the pass runs,
    and released after that layer's product.  From ``start`` > 0, h is the
    hidden state below layer ``start`` and the pass runs only the layers at
    and above it: the trace's hidden[j] and masks[j] are layer start + j's."""
    L = p.shape.L
    layers = None if direction is None else iter(direction)
    hidden, masks = [], []
    for l in range(start, L + 1):
        pre = p.weights[l] @ h
        if layers is not None:
            pre += (next(layers) @ h) * s
        if l == L:
            return BatchTrace(hidden=tuple(hidden), masks=tuple(masks), outputs=pre)
        mask = pre >= 0.0
        h = np.where(mask, pre, 0.0)
        hidden.append(h)
        masks.append(mask)


def forward_batch(p: Params, xs: np.ndarray) -> BatchTrace:
    """xs: (n, b) rows of inputs."""
    return _forward(p, _inputs(p, xs).T)


def forward_shifted(p: Params, direction: Iterable[np.ndarray], scales: Sequence[float],
                    xs: np.ndarray) -> tuple[BatchTrace, ...]:
    """The forward pass of ``xs`` through the net with weights W + sU, U the
    layer's entry of ``direction``, for every scale s, one trace per scale.
    The traces are views into one pass over the inputs stacked once per
    scale, in which each layer computes W H + (U H) * s, so no shifted weight
    matrix is built; the values differ from the shifted net's by the rounding
    of the two products.  ``direction`` is read in layer order, one layer
    when the pass reaches it, so a generator that draws each layer into the
    buffer of the one before keeps one direction layer alive at a time."""
    xs = _inputs(p, xs)
    n = len(xs)
    stacked = _forward(p, np.tile(xs.T, len(scales)), direction,
                       np.repeat(np.asarray(scales, dtype=np.float64), n))
    return tuple(BatchTrace(hidden=tuple(h[:, cols] for h in stacked.hidden),
                            masks=tuple(m[:, cols] for m in stacked.masks),
                            outputs=stacked.outputs[:, cols])
                 for cols in (slice(j * n, (j + 1) * n) for j in range(len(scales))))


def backprop_matrix(p: Params, trace: ForwardTrace, l: int) -> np.ndarray:
    """Product WL D_{L-1} W_{L-1} ... D_l W_l; for l = L just WL."""
    L = p.shape.L
    if not 0 <= l <= L:
        raise ShapeError(f"layer index must be in [0, {L}], got {l}")
    if len(trace.masks) != L or trace.masks[0].shape != (p.shape.m,):
        raise ShapeError("trace does not match params")
    mat = p.weights[L]
    for a in range(L - 1, l - 1, -1):
        mat = (mat * trace.masks[a]) @ p.weights[a]
    return mat


def backward_batch(p: Params, masks: tuple[np.ndarray, ...], v: np.ndarray,
                   top: int, bottom: int) -> Iterator[np.ndarray]:
    """The masked back-propagation chain, one column per sample: yields
    g = W_top^T v, then g = W_l^T (masks[l] * g) for l = top-1 down to
    ``bottom``.  Column i of masks[l] is sample i's activation pattern."""
    # numpy runs W^T g as a transposed GEMM; (g^T W)^T is the same product,
    # bit for bit, as a faster row-major one
    g = np.ascontiguousarray((v.T @ p.weights[top]).T)
    yield g
    for l in range(top - 1, bottom - 1, -1):
        g = np.ascontiguousarray((np.where(masks[l], g, 0.0).T @ p.weights[l]).T)
        yield g
