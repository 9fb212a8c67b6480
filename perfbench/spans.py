"""Per-layer spans recorded from outside the program.

Each `Wrap` names a public function of `uav_iscc` in the namespace where its
caller looks it up (for example `uav_iscc.env.world.design_links`, which
`world_step` calls), and the layer its time is booked to. While a `Tracer`
is installed, every call of a wrapped function opens a span; on close the
span's self time (its duration minus the time covered by child spans) is
added to its layer, and its duration and call count to the (parent layer,
layer) edge. Spans are timed in process CPU time, like the rest of the
benchmark (see bench.py). Aggregating at close keeps memory flat at the million calls of
a large run. Boundary counters read the values the wrapped calls return.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import process_time
from typing import Callable

from uav_iscc.env import INFINITE_DELAY

TRAIN, EVAL = "train", "eval"
BOTH = (TRAIN, EVAL)


def patch(module: str, attr: str, make: Callable) -> Callable:
    """Replace `module.attr` ("name" or "Class.name") by `make(original)`.

    A classmethod is unwrapped and rewrapped. Returns a function that
    restores the original.
    """
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[name]
    if isinstance(raw, classmethod):
        new = classmethod(make(raw.__func__))
    else:
        new = make(raw)
    setattr(owner, name, new)
    return lambda: setattr(owner, name, raw)


# --------------------------------------------------------------------------
# boundary counters, fed from returned values
# --------------------------------------------------------------------------
def _count_slot(tracer, args, out):
    tracer.counts["slots"] += 1
    tracer.counts["loading_slots"] += bool(out[1].loading_applied)


def _count_links(tracer, args, out):
    tracer.counts["links"] += len(out[0])


def _count_delay(tracer, args, out):
    tracer.counts["mu_outcomes"] += 1
    tracer.counts["inf_delay"] += out.latency == INFINITE_DELAY


def _note_choice(tracer, args, out):
    tracer.choices.append(out[0])


def _count_allocation(tracer, args, out):
    served = out.association.sum(axis=1) > 0
    tracer.counts["alloc_mus"] += served.size
    tracer.counts["served"] += int(served.sum())
    tracer.counts["demoted"] += sum(c >= 0 and not s for c, s in zip(tracer.choices, served))
    tracer.choices.clear()


def _count_clip(tracer, args, out):
    tracer.counts["clip_calls"] += 1
    tracer.counts["clipped"] += out > args[1]


@dataclass(frozen=True)
class Wrap:
    module: str                  # namespace the caller looks the name up in
    attr: str                    # "name" or "Class.name"
    layer: str                   # layer its self time is booked to
    modes: tuple = BOTH          # workload modes that must call it; others must not
    hook: Callable | None = None  # boundary counter, called with (tracer, args, result)


_WORLD, _TRAINER = "uav_iscc.env.world", "uav_iscc.mappo.trainer"
_ACTIONS, _PPO = "uav_iscc.agents.actions", "uav_iscc.mappo.ppo"

LAYER_WRAPS = (
    Wrap(_WORLD, "build_all_channels", "env.radio.channels"),
    Wrap(_WORLD, "build_radar_state", "env.radio.radar"),
    Wrap(_WORLD, "design_links", "env.radio.links", hook=_count_links),
    Wrap(_WORLD, "mu_slot_outcome", "env.compute.pipeline", hook=_count_delay),
    Wrap(_WORLD, "flight_power", "env.compute.pipeline"),
    Wrap(_WORLD, "advance_kinematics", "env.mobility.move"),
    Wrap(_WORLD, "step_mobility", "env.mobility.move"),
    Wrap(_WORLD, "draw_task", "env.mobility.move"),
    Wrap(_TRAINER, "reset_world", "env.world"),
    Wrap(_TRAINER, "world_step", "env.world", hook=_count_slot),
    Wrap(_TRAINER, "build_mu_observations", "agents.observations"),
    Wrap(_TRAINER, "build_uav_observations", "agents.observations"),
    Wrap(_ACTIONS, "MuAction.from_vector", "agents.actions"),
    Wrap(_ACTIONS, "UavAction.from_vector", "agents.actions"),
    Wrap(_ACTIONS, "decode_mu_action", "agents.actions", hook=_note_choice),
    Wrap(_TRAINER, "build_allocation", "agents.actions", hook=_count_allocation),
    Wrap(_TRAINER, "apply_uav_actions", "agents.actions"),
    Wrap(_TRAINER, "mu_reward", "agents.rewards"),
    Wrap(_TRAINER, "uav_reward", "agents.rewards"),
    Wrap(_TRAINER, "sample_action", "mappo.policies.act", modes=(TRAIN,)),
    Wrap(_TRAINER, "greedy_action", "mappo.policies.act", modes=(EVAL,)),
    Wrap(_TRAINER, "critic_values_batch", "mappo.critics.prep", modes=(TRAIN,)),
    Wrap(_TRAINER, "compute_gae", "mappo.gae", modes=(TRAIN,)),
    Wrap(_PPO, "log_prob_entropy", "mappo.policies.logp", modes=(TRAIN,)),
    Wrap(_PPO, "critic_values_batch", "mappo.critics.update_fwd", modes=(TRAIN,)),
    Wrap("uav_iscc.numerics.tensor", "Tensor.backward", "numerics.tensor.backward",
         modes=(TRAIN,)),
    Wrap(_PPO, "clip_grad_norm", "numerics.optim.clip", modes=(TRAIN,), hook=_count_clip),
    Wrap(_PPO, "adam_step", "numerics.optim.adam", modes=(TRAIN,)),
)

# The layers each workload mode must reach, kept apart from LAYER_WRAPS so
# that a wrapper dropped from that table leaves its layer at zero calls.
LAYER_MODES = {
    "env.radio.channels": BOTH,
    "env.radio.radar": BOTH,
    "env.radio.links": BOTH,
    "env.compute.pipeline": BOTH,
    "env.mobility.move": BOTH,
    "env.world": BOTH,
    "agents.observations": BOTH,
    "agents.actions": BOTH,
    "agents.rewards": BOTH,
    "mappo.policies.act": BOTH,
    "mappo.critics.prep": (TRAIN,),
    "mappo.critics.update_fwd": (TRAIN,),
    "mappo.policies.logp": (TRAIN,),
    "mappo.gae": (TRAIN,),
    "numerics.tensor.backward": (TRAIN,),
    "numerics.optim.clip": (TRAIN,),
    "numerics.optim.adam": (TRAIN,),
}


class Tracer:
    """Span stack, per-layer self time, call counts and boundary counters."""

    def __init__(self, wraps=LAYER_WRAPS):
        self.wraps = tuple(wraps)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.layer_calls: Counter = Counter()
        self.wrap_calls: Counter = Counter()
        self.edges: defaultdict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()
        self.choices: list = []
        self._stack: list = []

    def _open(self, layer: str) -> None:
        self._stack.append([layer, process_time(), 0.0])

    def _close(self) -> None:
        layer, start, child = self._stack.pop()
        duration = process_time() - start
        self.self_s[layer] += duration - child
        self.layer_calls[layer] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        edge = self.edges[(parent[0] if parent else "", layer)]
        edge[0] += 1
        edge[1] += duration

    @contextmanager
    def span(self, layer: str):
        """A span opened by the benchmark itself, around a call it makes."""
        self._open(layer)
        try:
            yield
        finally:
            self._close()

    def _wrapper(self, wrap: Wrap, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            self._open(wrap.layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            self.wrap_calls[wrap] += 1
            if wrap.hook is not None:
                wrap.hook(self, args, out)
            return out
        return traced

    @contextmanager
    def installed(self):
        """Wrap every function of the table for the duration of the block."""
        restore = []
        try:
            for wrap in self.wraps:
                restore.append(patch(wrap.module, wrap.attr,
                                     lambda fn, wrap=wrap: self._wrapper(wrap, fn)))
            yield self
        finally:
            for undo in reversed(restore):
                undo()

    def guard(self, mode: str) -> list[str]:
        """Problems with the calls recorded on a workload of `mode`: a span the
        mode must reach that recorded zero calls, or one it must not reach
        that recorded some."""
        checks = [(f"{w.module}.{w.attr}", w.modes, self.wrap_calls[w]) for w in self.wraps]
        checks += [(layer, modes, self.layer_calls[layer])
                   for layer, modes in LAYER_MODES.items()]
        problems = []
        for what, modes, calls in checks:
            if mode in modes and calls == 0:
                problems.append(f"{what}: zero calls, expected some on {mode} workloads")
            elif mode not in modes and calls > 0:
                problems.append(f"{what}: {calls} calls, expected none on {mode} workloads")
        return problems
