"""Dense network building blocks: tanh MLPs, positive Beta-shape heads,
and the stacked query-key-value maps of the critics' attention block."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, parameter


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
            b = parameter(np.zeros(n_out))
            layers.append((w, b))
        return cls(layers=layers)

    def parameters(self):
        return [t for pair in self.layers for t in pair]


def mlp_forward(params: MlpParams, x: Tensor) -> Tensor:
    """Run the MLP; `x` may carry arbitrary leading batch dimensions."""
    x = Tensor._lift(x)
    for i, (w, b) in enumerate(params.layers):
        if x.shape[-1] != w.shape[0]:
            raise DimensionError(
                f"layer {i}: input width {x.shape[-1]} != expected {w.shape[0]}"
            )
        x = x @ w + b
        if i < len(params.layers) - 1:
            x = x.tanh()
    return x


@dataclass
class BetaHeadParams:
    """Maps raw network outputs to per-dimension Beta shapes above one.

    Raw outputs come in pairs per action dimension; both shape parameters go
    through 1 + softplus so the resulting densities stay unimodal. Each
    dimension owns a half-range `h`: the unit-interval draw x maps to
    center + h * (2x - 1).
    """

    action_dim: int
    lo: np.ndarray  # per-dimension interval lower bounds
    hi: np.ndarray  # per-dimension interval upper bounds

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=np.float64)
        self.hi = np.asarray(self.hi, dtype=np.float64)
        if np.any(self.hi <= self.lo):
            raise ValueError("action intervals must have positive width")

    @property
    def widths(self) -> np.ndarray:
        return self.hi - self.lo

    def shapes_from_raw(self, raw: Tensor) -> tuple[Tensor, Tensor]:
        """Split raw [..., 2*A] into (alpha-like, beta-like), both > 1."""
        if raw.shape[-1] != 2 * self.action_dim:
            raise DimensionError(
                f"beta head expects width {2 * self.action_dim}, got {raw.shape[-1]}"
            )
        a_raw = raw[..., : self.action_dim]
        b_raw = raw[..., self.action_dim :]
        one = 1.0
        return one + a_raw.softplus(), one + b_raw.softplus()


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
