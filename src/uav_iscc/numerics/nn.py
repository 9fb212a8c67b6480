"""Dense network building blocks: tanh MLPs."""

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
