"""Exact distributions over fixed-length state paths, by full enumeration.

A length-n path is a tuple (x_1, ..., x_n); tables are indexed row-major,
so the flat index of a path is its base-|X| integer reading. Everything
here is exponential in n and guarded by a hard table-size cap; it exists
to verify identities at desk scale, not to scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .markov_core import StationaryDistribution, TransitionMatrix
from .errors import EdgeMismatchError, IncompatibleStateCountError, TooLargeError

if TYPE_CHECKING:
    from .embedding import LumpingMap, MemorylessEmbedding

MAX_PATH_TABLE = 10**6


def _check_table_size(state_count: int, length: int) -> int:
    if length < 1:
        raise ValueError("paths must have at least one state")
    size = state_count**length
    if size > MAX_PATH_TABLE:
        raise TooLargeError(
            f"{state_count}^{length} = {size} paths exceeds the cap {MAX_PATH_TABLE}"
        )
    return size


def path_index(path: tuple[int, ...] | np.ndarray, state_count: int) -> int:
    """Flat row-major index of one path."""
    idx = 0
    for x in np.asarray(path, dtype=np.int64).tolist():
        if not 0 <= x < state_count:
            raise ValueError(f"state {x} out of range")
        idx = idx * state_count + x
    return idx


def index_paths(state_count: int, length: int) -> np.ndarray:
    """All paths as an array of shape (state_count**length, length), index order."""
    size = _check_table_size(state_count, length)
    out = np.empty((size, length), dtype=np.int64)
    idx = np.arange(size)
    for t in range(length - 1, -1, -1):
        out[:, t] = idx % state_count
        idx //= state_count
    return out


@dataclass(frozen=True, eq=False)
class PathDistribution:
    """Probability table over all length-`length` paths on `state_count` states."""

    state_count: int
    length: int
    probs: np.ndarray

    def __post_init__(self):
        size = _check_table_size(self.state_count, self.length)
        probs = np.array(self.probs, dtype=float)
        if probs.shape != (size,):
            raise ValueError(f"table must have {size} entries, got {probs.shape}")
        if (probs < 0).any() or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("table must be a probability distribution")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @cached_property
    def paths(self) -> np.ndarray:
        return index_paths(self.state_count, self.length)


def path_distribution(
    P: TransitionMatrix,
    length: int,
    initial: StationaryDistribution | np.ndarray | None = None,
) -> PathDistribution:
    """Law of (X_1, ..., X_length) for the chain P.

    X_1 follows `initial`, the stationary law when omitted. Built
    iteratively: the table for length t+1 tensors each length-t entry with
    the transition row of its final state.
    """
    nx = P.state_count
    _check_table_size(nx, length)
    if initial is None:
        init = P.stationary.probs
    else:
        init = initial.probs if isinstance(initial, StationaryDistribution) else np.asarray(initial, dtype=float)
        if init.shape != (nx,):
            raise IncompatibleStateCountError("initial law does not match the state space")
    table = init.copy()
    for _ in range(length - 1):
        last = np.arange(table.size) % nx
        table = (table[:, None] * P.matrix[last]).reshape(-1)
    return PathDistribution(nx, length, table)


def block_lumping(lumping: LumpingMap, length: int) -> np.ndarray:
    """Map each big-space path index to the index of its lumped path.

    Digit-wise application of the lumping map under row-major indexing.
    """
    ny = lumping.source_count
    nx = lumping.target_count
    size = _check_table_size(ny, length)
    _check_table_size(nx, length)
    assign = lumping.assignment
    out = np.zeros(size, dtype=np.int64)
    idx = np.arange(size)
    scale = 1
    for _ in range(length):
        out += assign[idx % ny] * scale
        idx //= ny
        scale *= nx
    return out


@dataclass(frozen=True, eq=False)
class PathMorphism:
    """Path-level form of a memoryless embedding at a fixed length.

    Carries, for every big path, the index of the small path it lumps to
    and the product of the weights along it; the pushforward of a small
    path law multiplies these together.
    """

    embedding: MemorylessEmbedding
    length: int

    @cached_property
    def lumped_index(self) -> np.ndarray:
        return block_lumping(self.embedding.lumping, self.length)

    @cached_property
    def weight_products(self) -> np.ndarray:
        ny = self.embedding.source_count
        size = _check_table_size(ny, self.length)
        w = self.embedding.weights
        out = np.ones(size)
        idx = np.arange(size)
        for _ in range(self.length):
            out *= w[idx % ny]
            idx //= ny
        return out

    def pushforward(self, small: PathDistribution) -> PathDistribution:
        """Image of a small-space path law on the big space.

        Each small path's mass spreads over its fiber in proportion to the
        per-path weight products; paths outside every fiber keep mass zero.
        """
        if small.state_count != self.embedding.target_count or small.length != self.length:
            raise IncompatibleStateCountError("path law does not match this morphism")
        return PathDistribution(
            self.embedding.source_count,
            self.length,
            small.probs[self.lumped_index] * self.weight_products,
        )


def pushforward_defect(P: TransitionMatrix, emb: MemorylessEmbedding, length: int) -> float:
    """Max gap between two routes to the embedded stationary path law.

    Route one: embed the chain, enumerate its stationary paths. Route two:
    enumerate the original chain's stationary paths and push them through
    the path morphism. These agree exactly for memoryless embeddings.
    """
    from .embedding import embed_matrix

    big = embed_matrix(P, emb)
    direct = path_distribution(big, length)
    pushed = PathMorphism(emb, length).pushforward(path_distribution(P, length))
    return float(np.abs(direct.probs - pushed.probs).max())


def path_divergence_invariance(
    P: TransitionMatrix,
    P2: TransitionMatrix,
    emb: MemorylessEmbedding,
    length: int,
) -> tuple[float, float]:
    """Order-1/2 path divergence before and after embedding both chains.

    Returns (small-space divergence, big-space divergence); a memoryless
    embedding leaves the divergence unchanged, so the pair should agree.
    Both chains start from their own stationary laws and must share the
    embedding's small space.
    """
    from .contrast import renyi_half
    from .embedding import embed_matrix

    if P.edges != P2.edges:
        raise EdgeMismatchError("chains must share one edge set")
    small1 = path_distribution(P, length)
    small2 = path_distribution(P2, length)
    big1 = path_distribution(embed_matrix(P, emb), length)
    big2 = path_distribution(embed_matrix(P2, emb), length)
    return (
        renyi_half(small1.probs, small2.probs),
        renyi_half(big1.probs, big2.probs),
    )
