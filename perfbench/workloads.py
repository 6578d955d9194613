"""The benchmark's workloads: their inputs, built from the workload seed, and
the `markov-id` command line of each op.

Inputs are generated with `markov_id.generate` and written to files, so the
program under test only ever receives files. Every op gets its own `--seed`,
derived from the workload seed and the op's index.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# The reversible 3-state pair of acceptance criterion 5: stationary law
# (1/4, 1/4, 1/2), so Delta = 4, and contrast K ~ 0.48 between the two.
CRITERION_5_REF = [[0.88, 0.04, 0.08], [0.04, 0.88, 0.08], [0.04, 0.04, 0.92]]
CRITERION_5_ALT = [[0.04, 0.04, 0.92], [0.04, 0.04, 0.92], [0.46, 0.46, 0.08]]


@dataclass(frozen=True)
class Workload:
    """Fixed shape of one workload; only the seed varies between runs."""

    name: str
    command: str  # "test", "risk" or "scan"
    states: int
    delta: int
    n: int = 0  # trajectory length of a test op, or the risk length
    n_grid: tuple[int, ...] = ()
    trials: int = 0
    alternatives: int = 0
    workers: int = 1
    epsilon: float | None = None  # None: derived from the generated alternatives

    def describe(self) -> dict:
        out = {
            "command": self.command,
            "states": self.states,
            "delta": self.delta,
            "alternatives": self.alternatives,
            "workers": self.workers,
        }
        if self.n_grid:
            out["n_grid"] = list(self.n_grid)
        else:
            out["n"] = self.n
        if self.trials:
            out["trials"] = self.trials
        return out


# BENCHMARK.json lists test-wide and risk-small; test-long and scan-mid run by
# name only (perfbench/layer_map.json says why).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("test-wide", "test", states=10, delta=1000, n=10**5, alternatives=1, epsilon=0.1),
        Workload("test-long", "test", states=4, delta=12, n=10**6, alternatives=1, epsilon=0.1),
        Workload(
            "risk-small", "risk", states=3, delta=4, n=2000, trials=40, alternatives=1,
            epsilon=0.15, workers=2,
        ),
        Workload(
            "scan-mid", "scan", states=8, delta=100, n_grid=(500, 1000, 2000), trials=10,
            alternatives=2, workers=2,
        ),
    )
}


def op_seed(workload_seed: int, index: int) -> int:
    """Seed of op `index`: a 63-bit value drawn from (workload seed, index)."""
    state = np.random.SeedSequence([workload_seed, index]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


@dataclass(frozen=True)
class Inputs:
    """Files written at set-up, and the values the checks need."""

    ref: str
    alts: tuple[str, ...]
    trajs: tuple[str, ...]  # test workloads: one from the reference, one from the alternative
    epsilon: float
    chains: tuple  # the reference, then the alternatives, as written
    rational: object  # the reference's law p / Delta
    trajectories: tuple  # the trajectories in `trajs`, as written


def _reversible_family(rng, states: int, delta: int, count: int):
    """A reference plus `count` chains sharing its edge set and its law p / delta.

    The law is redrawn until it does not reduce to a smaller denominator, so
    the embedded state space has exactly `delta` states on every seed. The
    edge set is a fixed cycle with self-loops, so the work per op depends on
    the seed only through the numbers, not through the shape of the graph.
    """
    from markov_id import EdgeSet, rationalize
    from markov_id.generate import random_rational_stationary, random_reversible

    while True:
        rational = random_rational_stationary(rng, states, delta)
        if rationalize(rational.probs, 10**6).denominator == delta:
            break
    edges = EdgeSet.from_pairs(
        states, [(x, y % states) for x in range(states) for y in (x - 1, x, x + 1)]
    )
    return rational, [random_reversible(rng, rational, edges) for _ in range(count + 1)]


def build_inputs(workload: Workload, seed: int, workdir: str) -> Inputs:
    """Generate the workload's inputs from `seed` and write them under `workdir`."""
    from markov_id import (
        EdgeSet,
        RandomSource,
        RationalStationary,
        contrast,
        save_matrix,
        save_trajectory,
        simulate,
        validate,
    )

    rng = np.random.default_rng([seed, workload.states, workload.delta])
    if workload.command == "risk":
        chains = [
            validate(3, EdgeSet.complete(3), CRITERION_5_REF),
            validate(3, EdgeSet.complete(3), CRITERION_5_ALT),
        ]
        rational = RationalStationary.from_counts([1, 1, 2])
    else:
        rational, chains = _reversible_family(rng, workload.states, workload.delta, workload.alternatives)
    paths = []
    for i, chain in enumerate(chains):
        path = os.path.join(workdir, f"chain{i}.json")
        save_matrix(chain, path)
        paths.append(path)
    trajs, trajectories = [], []
    if workload.command == "test":
        for i, chain in enumerate(chains):
            traj = simulate(chain, workload.n, RandomSource(seed, stream=i))
            path = os.path.join(workdir, f"traj{i}.txt")
            save_trajectory(traj, path)
            trajs.append(path)
            trajectories.append(traj)
    epsilon = workload.epsilon
    if epsilon is None:
        # Half the smallest contrast, so every alternative clears the gate.
        k_min = min(contrast(alt, chains[0]).k for alt in chains[1:])
        epsilon = float(f"{k_min / 2:.4g}")
    return Inputs(
        ref=paths[0], alts=tuple(paths[1:]), trajs=tuple(trajs), epsilon=epsilon,
        chains=tuple(chains), rational=rational, trajectories=tuple(trajectories),
    )


def op_argv(workload: Workload, inputs: Inputs, index: int, seed: int) -> list[str]:
    """Subcommand and arguments of op `index` (without the program name)."""
    common = ["--ref", inputs.ref, "--epsilon", repr(inputs.epsilon), "--seed", str(seed),
              "--format", "json"]
    if workload.command == "test":
        traj = inputs.trajs[index % len(inputs.trajs)]
        return ["test", "--traj", traj, *common]
    argv = [workload.command, *common]
    for alt in inputs.alts:
        argv += ["--alt", alt]
    argv += ["--trials", str(workload.trials), "--workers", str(workload.workers)]
    if workload.command == "risk":
        return argv + ["-n", str(workload.n)]
    return argv + ["--n-grid", ",".join(map(str, workload.n_grid)), "--no-stop-early"]
