"""Dense network building blocks: tanh MLPs and the stacked query-key-value
maps of the critic's attention block."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, dense, parameter


class DimensionError(Exception):
    """Input width does not chain with the layer it feeds."""


@dataclass
class MlpParams:
    """Fully connected stack: tanh on hidden layers, identity on the output."""

    layers: list  # list of (weight Tensor [in, out], bias Tensor [out])

    @classmethod
    def create(cls, sizes, rng: np.random.Generator) -> "MlpParams":
        layers = []
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            w = parameter((n_in, n_out), rng)
            b = parameter(np.zeros(n_out, dtype=np.float32))
            layers.append((w, b))
        return cls(layers=layers)

    def parameters(self):
        return [t for pair in self.layers for t in pair]


def mlp_forward(params: MlpParams, x: Tensor) -> Tensor:
    """Run the MLP, one `dense` node per layer; `x` may carry arbitrary leading
    batch dimensions. A constant input (an array or an untracked Tensor) is cast
    once to the weights' dtype."""
    if params.layers and not (isinstance(x, Tensor) and x._tracked):
        x = Tensor(np.asarray(x.data if isinstance(x, Tensor) else x,
                              dtype=params.layers[0][0].data.dtype))
    for i, (w, b) in enumerate(params.layers):
        if x.shape[-1] != w.shape[0]:
            raise DimensionError(
                f"layer {i}: input width {x.shape[-1]} != expected {w.shape[0]}"
            )
        x = dense(x, w, b, tanh=i < len(params.layers) - 1)
    return x


@dataclass
class AttentionBlockParams:
    """Query/key/value maps plus a linear mix back to feature width. `w_que`, `w_key`
    and `w_val` stack the heads' [Vh, V] maps: head h owns rows h*Vh:(h+1)*Vh."""

    heads: int
    feature_dim: int
    w_que: Tensor = None  # [heads*head_dim, V]
    w_key: Tensor = None
    w_val: Tensor = None
    w_mix: Tensor = None  # [heads*head_dim, V]

    @classmethod
    def create(cls, feature_dim: int, heads: int, rng: np.random.Generator) -> "AttentionBlockParams":
        if heads < 1 or feature_dim % heads != 0:
            raise ValueError("head count must be >= 1 and divide the feature width")
        head_dim = feature_dim // heads
        # drawn head by head (query, key, value) and stacked by rows
        draws = [[parameter((head_dim, feature_dim), rng).data for _ in range(3)]
                 for _ in range(heads)]
        w_que, w_key, w_val = (parameter(np.vstack(rows)) for rows in zip(*draws))
        return cls(heads=heads, feature_dim=feature_dim, w_que=w_que, w_key=w_key,
                   w_val=w_val, w_mix=parameter((heads * head_dim, feature_dim), rng))

    @property
    def head_dim(self) -> int:
        return self.feature_dim // self.heads

    def parameters(self):
        return [self.w_que, self.w_key, self.w_val, self.w_mix]
