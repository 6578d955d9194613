"""Trajectory simulation and the operational form of embeddings.

Randomness flows through named (seed, stream) pairs mapped to independent
Philox generators, so every simulated object is reproducible from its
provenance and distinct streams never collide.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .markov_core import StationaryDistribution, TransitionMatrix, stationary_distribution
from .errors import IncompatibleStateCountError

if TYPE_CHECKING:
    from .embedding import MemorylessEmbedding


@dataclass(frozen=True)
class RandomSource:
    """Named, reproducible source of randomness.

    A fixed seed fans out into independent streams; stream k is the
    generator spawned at key (k,) from the seed's root sequence.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.stream < 0:
            raise ValueError("stream must be nonnegative")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Realized state sequence, tagged with the source that produced it."""

    states: np.ndarray
    state_count: int
    seed: int | None = None
    stream: int | None = None

    def __post_init__(self):
        states = np.array(self.states, dtype=np.int64)
        if states.ndim != 1 or states.size == 0:
            raise ValueError("states must be a nonempty vector")
        if states.min() < 0 or states.max() >= self.state_count:
            raise ValueError("state out of range")
        states.setflags(write=False)
        object.__setattr__(self, "states", states)

    def __reduce__(self):
        # rebuild through the constructor, so unpickled states are read-only too
        return Trajectory, (self.states, self.state_count, self.seed, self.stream)

    def __len__(self) -> int:
        return int(self.states.size)


def _inverse_cdf_tables(rows: np.ndarray) -> tuple[list[list[float]], list[int]]:
    """Cumulative sums of each row, and the last index where the row has mass.

    A uniform at or past a row's float total clamps to that last index, so
    a draw never lands where the row has no mass.
    """
    rows = np.atleast_2d(rows)
    last = rows.shape[1] - 1 - np.argmax(rows[:, ::-1] > 0, axis=1)
    return np.cumsum(rows, axis=1).tolist(), last.tolist()


def simulate(
    P: TransitionMatrix,
    n: int,
    source: RandomSource,
    initial: StationaryDistribution | np.ndarray | None = None,
) -> Trajectory:
    """Sample a length-n trajectory of P, stationary start by default.

    All n uniforms are drawn up front from the source's generator; each
    step then inverts the current row's cumulative sums, clamped to the
    row's last edge.
    """
    if n < 1:
        raise ValueError("need at least one step, n >= 1")
    if initial is None:
        init = stationary_distribution(P).probs
    else:
        init = initial.probs if isinstance(initial, StationaryDistribution) else np.asarray(initial, dtype=float)
        if init.shape != (P.state_count,):
            raise IncompatibleStateCountError("initial law does not match the state space")
    gen = source.generator()
    u = gen.random(n)
    (init_cum,), (init_last,) = _inverse_cdf_tables(init)
    rows, row_last = _inverse_cdf_tables(P.matrix)
    out = np.empty(n, dtype=np.int64)
    last = min(bisect_right(init_cum, u[0]), init_last)
    out[0] = last
    for t in range(1, n):
        last = min(bisect_right(rows[last], u[t]), row_last[last])
        out[t] = last
    return Trajectory(out, P.state_count, seed=source.seed, stream=source.stream)


def embed_trajectory(
    traj: Trajectory,
    emb: MemorylessEmbedding,
    source: RandomSource,
) -> Trajectory:
    """Lift a small-space trajectory to the embedded space.

    Position by position, state x is replaced by an independent draw from
    block x under the embedding's weights; the result is distributed as a
    trajectory of the embedded chain and lumps back to the input.
    """
    if traj.state_count != emb.target_count:
        raise IncompatibleStateCountError(
            f"trajectory over {traj.state_count} states, embedding lumps onto {emb.target_count}"
        )
    gen = source.generator()
    u = gen.random(len(traj))
    out = np.empty(len(traj), dtype=np.int64)
    blocks = emb.lumping.blocks
    for x in range(emb.target_count):
        members = np.array(blocks[x], dtype=np.int64)
        cum = np.cumsum(emb.weights[members])
        here = traj.states == x
        picks = np.searchsorted(cum, u[here], side="right")
        out[here] = members[np.minimum(picks, len(members) - 1)]
    return Trajectory(out, emb.source_count, seed=source.seed, stream=source.stream)


# ---------------------------------------------------------------------------
# Trajectory I/O. Text: one state per line, optional provenance header.
# JSON: explicit fields, bit-exact.

def trajectory_to_text(traj: Trajectory) -> str:
    lines = []
    if traj.seed is not None:
        head = f"# seed={traj.seed}"
        if traj.stream is not None:
            head += f" stream={traj.stream}"
        lines.append(head)
    lines.append(f"# states={traj.state_count}")
    lines.extend(str(s) for s in traj.states.tolist())
    return "\n".join(lines) + "\n"


def trajectory_from_text(text: str) -> Trajectory:
    seed = stream = state_count = None
    states: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                key, _, value = token.partition("=")
                if key == "seed":
                    seed = int(value)
                elif key == "stream":
                    stream = int(value)
                elif key == "states":
                    state_count = int(value)
            continue
        states.append(int(line))
    if state_count is None:
        state_count = max(states) + 1 if states else 0
    return Trajectory(np.array(states, dtype=np.int64), state_count, seed=seed, stream=stream)


def trajectory_to_json_obj(traj: Trajectory) -> dict:
    obj: dict = {"state_count": traj.state_count, "states": traj.states.tolist()}
    if traj.seed is not None:
        obj["seed"] = traj.seed
    if traj.stream is not None:
        obj["stream"] = traj.stream
    return obj


def trajectory_from_json_obj(obj: dict) -> Trajectory:
    return Trajectory(
        np.array(obj["states"], dtype=np.int64),
        int(obj["state_count"]),
        seed=obj.get("seed"),
        stream=obj.get("stream"),
    )


def save_trajectory(traj: Trajectory, path, fmt: str | None = None) -> None:
    fmt = fmt or ("json" if str(path).endswith(".json") else "text")
    with open(path, "w") as fh:
        if fmt == "json":
            json.dump(trajectory_to_json_obj(traj), fh, sort_keys=True)
            fh.write("\n")
        else:
            fh.write(trajectory_to_text(traj))


def load_trajectory(path) -> Trajectory:
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return trajectory_from_json_obj(json.loads(text))
    return trajectory_from_text(text)
