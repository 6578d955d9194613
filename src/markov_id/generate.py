"""Random problem instances for self-checks and tests.

Everything takes an explicit numpy Generator so sweeps are reproducible.
The constructions are exact where it matters: reversible chains come from
symmetric conductances against an integer stationary law, so detailed
balance holds to round-off and the law is rational by construction.
"""

from __future__ import annotations

import numpy as np

from .markov_core import EdgeSet, RationalStationary, TransitionMatrix
from .embedding import LumpingMap, MemorylessEmbedding


def random_rational_stationary(
    rng: np.random.Generator, state_count: int, delta: int
) -> RationalStationary:
    """Positive integer law with the given denominator, multinomial spread."""
    if delta < state_count:
        raise ValueError("denominator must cover one unit per state")
    extra = rng.multinomial(delta - state_count, np.full(state_count, 1.0 / state_count))
    return RationalStationary.from_counts((extra + 1).tolist())


def random_connected_edges(
    rng: np.random.Generator, state_count: int, extra_pairs: int = 2
) -> EdgeSet:
    """Symmetric, strongly connected edge set with all self-loops.

    A random spanning tree guarantees connectivity; a few extra symmetric
    pairs vary the density.
    """
    pairs = {(x, x) for x in range(state_count)}
    order = rng.permutation(state_count)
    for i in range(1, state_count):
        a = int(order[i])
        b = int(order[rng.integers(i)])
        pairs |= {(a, b), (b, a)}
    for _ in range(extra_pairs):
        a, b = (int(v) for v in rng.integers(state_count, size=2))
        pairs |= {(a, b), (b, a)}
    return EdgeSet.from_pairs(state_count, pairs)


def random_reversible(
    rng: np.random.Generator,
    rational: RationalStationary,
    edges: EdgeSet,
    holding_floor: float = 0.05,
) -> TransitionMatrix:
    """Reversible chain with the given stationary law on the given edges.

    Symmetric positive conductances C(x, y) on the edges give the flow
    matrix; rows are scaled into the simplex and the slack goes on the
    diagonal, so self-loops must be present. `holding_floor` keeps at least
    that much mass on every diagonal entry, which also keeps the slack
    positive.
    """
    n = rational.state_count
    if any((x, x) not in edges for x in range(n)):
        raise ValueError("edge set must contain every self-loop")
    pi = rational.probs
    mask = edges.mask()
    cond = np.zeros((n, n))
    for x in range(n):
        for y in range(x + 1, n):
            if mask[x, y]:
                cond[x, y] = cond[y, x] = rng.uniform(0.2, 1.0)
    off_rates = cond.sum(axis=1) / pi
    if off_rates.max() == 0.0:  # single state: only the trivial chain exists
        return TransitionMatrix(edges, np.ones((1, 1)))
    scale = (1.0 - holding_floor) / off_rates.max()
    P = scale * cond / pi[:, None]
    np.fill_diagonal(P, 0.0)
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    return TransitionMatrix(edges, P)


def random_reversible_pair(
    rng: np.random.Generator,
    state_count: int,
    delta: int,
) -> tuple[TransitionMatrix, TransitionMatrix, RationalStationary, EdgeSet]:
    """Two distinct chains in one restricted class: same law, same edges."""
    rational = random_rational_stationary(rng, state_count, delta)
    edges = random_connected_edges(rng, state_count)
    P = random_reversible(rng, rational, edges)
    Q = random_reversible(rng, rational, edges)
    return P, Q, rational, edges


def random_lumping(
    rng: np.random.Generator, source_count: int, target_count: int
) -> LumpingMap:
    """Surjective assignment: one anchor per target, the rest uniform."""
    if source_count < target_count:
        raise ValueError("source must be at least as large as the target")
    assign = np.empty(source_count, dtype=np.int64)
    assign[:target_count] = np.arange(target_count)
    assign[target_count:] = rng.integers(target_count, size=source_count - target_count)
    return LumpingMap(target_count, rng.permutation(assign))


def random_memoryless_embedding(
    rng: np.random.Generator, source_count: int, target_count: int
) -> MemorylessEmbedding:
    """Random lumping with Dirichlet-style positive weights on each block."""
    lumping = random_lumping(rng, source_count, target_count)
    raw = rng.uniform(0.2, 1.0, size=source_count)
    sums = np.bincount(lumping.assignment, weights=raw, minlength=target_count)
    return MemorylessEmbedding(lumping, raw / sums[lumping.assignment])


def random_stochastic(rng: np.random.Generator, state_count: int) -> TransitionMatrix:
    """Dense strictly positive row-stochastic matrix."""
    raw = rng.uniform(0.1, 1.0, size=(state_count, state_count))
    return TransitionMatrix.from_dense(raw / raw.sum(axis=1, keepdims=True))
