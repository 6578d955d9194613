"""Memoryless Markov embeddings, lumpings, and the symmetrizing construction.

A lumping map kappa sends a large state space onto a smaller one. A
memoryless embedding runs kappa in the other direction: it blows each small
state up into a block of large states and splits the transition mass inside
each block by fixed weights, so the embedded chain lumps back to the
original and path probabilities factor state by state.

The symmetrizer is the one embedding built from a rational stationary law
p / Delta: state x becomes a block of p_x states with uniform weights
1 / p_x, which turns any reversible chain with that stationary law into a
symmetric chain on Delta states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .markov_core import (
    EdgeSet,
    RationalStationary,
    StationaryDistribution,
    TransitionMatrix,
    check_reference_class,
)
from .errors import (
    EdgeMismatchError,
    IncompatibleStateCountError,
    NotLumpableError,
    PreconditionFailedError,
)

LUMPABILITY_TOL = 1e-9
BLOCK_NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class LumpingMap:
    """Surjection from ``len(assignment)`` states onto ``target_count`` states."""

    target_count: int
    assignment: np.ndarray

    def __post_init__(self):
        assign = np.array(self.assignment, dtype=np.int64)
        if assign.ndim != 1 or assign.size == 0:
            raise ValueError("assignment must be a nonempty vector")
        if assign.min() < 0 or assign.max() >= self.target_count:
            raise ValueError("assignment targets out of range")
        if np.bincount(assign, minlength=self.target_count).min() == 0:
            raise ValueError("assignment must be surjective")
        assign.setflags(write=False)
        object.__setattr__(self, "assignment", assign)

    def __reduce__(self):
        # rebuild through the constructor, so an unpickled assignment is read-only too
        return LumpingMap, (self.target_count, self.assignment)

    @property
    def source_count(self) -> int:
        return int(self.assignment.size)

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Preimage of each target state, as sorted tuples."""
        out: list[list[int]] = [[] for _ in range(self.target_count)]
        for y, x in enumerate(self.assignment.tolist()):
            out[x].append(y)
        return tuple(tuple(b) for b in out)

    def __call__(self, y: int) -> int:
        return int(self.assignment[y])


@dataclass(frozen=True, eq=False)
class MemorylessEmbedding:
    """Lumping map plus per-state weights that sum to one on each block.

    The weight of a big state y is the share of transition mass its block
    routes to y, independent of the source state.
    """

    lumping: LumpingMap
    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.shape != (self.lumping.source_count,):
            raise ValueError("weights must have one entry per embedded state")
        if (w <= 0).any() or not np.isfinite(w).all():
            raise ValueError("weights must be positive and finite")
        # Sum each block as one contiguous run, which numpy adds pairwise; a
        # sequential sum misses 1 by more than the tolerance on blocks above
        # ~39,000 states with uniform weights.
        order = np.argsort(self.lumping.assignment, kind="stable")
        starts = np.searchsorted(
            self.lumping.assignment[order], np.arange(self.lumping.target_count)
        )
        block_sums = np.add.reduceat(w[order], starts)
        dev = np.abs(block_sums - 1.0)
        if (dev > BLOCK_NORMALIZATION_TOL).any():
            bad = int(dev.argmax())
            raise ValueError(f"weights on block {bad} sum to {float(block_sums[bad])!r}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __reduce__(self):
        return MemorylessEmbedding, (self.lumping, self.weights)

    @property
    def source_count(self) -> int:
        return self.lumping.source_count

    @property
    def target_count(self) -> int:
        return self.lumping.target_count

    @classmethod
    def identity(cls, state_count: int) -> MemorylessEmbedding:
        return cls(
            LumpingMap(state_count, np.arange(state_count)),
            np.ones(state_count),
        )


@dataclass(frozen=True, eq=False)
class Symmetrizer:
    """Symmetrizing embedding for one rational stationary law.

    Keeps the rational law it was built from and, when known, the edge set
    of the small chain.
    """

    embedding: MemorylessEmbedding
    rational: RationalStationary
    source_edges: EdgeSet | None = None

    @property
    def delta(self) -> int:
        return self.rational.denominator


def embedded_edge_set(edges: EdgeSet, lumping: LumpingMap) -> EdgeSet:
    """Edges of the embedded chain: block(a) x block(b) for each edge (a, b).

    Equivalently, (y, y') is an edge exactly when (kappa(y), kappa(y')) is,
    so the embedded mask is the small mask indexed by kappa on both axes.
    """
    if edges.state_count != lumping.target_count:
        raise IncompatibleStateCountError(
            f"edge set has {edges.state_count} states, lumping maps onto {lumping.target_count}"
        )
    assign = lumping.assignment
    return EdgeSet.from_mask(edges.mask()[assign][:, assign])


def lump(P: TransitionMatrix, lumping: LumpingMap, tol: float = LUMPABILITY_TOL) -> TransitionMatrix:
    """Quotient chain of a strongly lumpable matrix, one row per block.

    Strong lumpability: the row sums of P into each block are constant on
    blocks; raises :class:`NotLumpableError` when they are not.
    """
    if P.state_count != lumping.source_count:
        raise IncompatibleStateCountError(
            f"matrix has {P.state_count} states, lumping expects {lumping.source_count}"
        )
    indicator = np.zeros((lumping.source_count, lumping.target_count))
    indicator[np.arange(lumping.source_count), lumping.assignment] = 1.0
    into_blocks = P.matrix @ indicator
    small = into_blocks[[block[0] for block in lumping.blocks]]
    if np.abs(into_blocks - small[lumping.assignment]).max() > tol:
        raise NotLumpableError("row sums into blocks differ within a block")
    return TransitionMatrix.from_dense(small / small.sum(axis=1, keepdims=True))


def embed_matrix(P: TransitionMatrix, emb: MemorylessEmbedding) -> TransitionMatrix:
    """Push P through a memoryless embedding.

    The embedded matrix sends y to y' with probability
    P(kappa(y), kappa(y')) * weight(y').
    """
    if P.state_count != emb.target_count:
        raise EdgeMismatchError(
            f"matrix has {P.state_count} states, embedding lumps onto {emb.target_count}"
        )
    assign = emb.lumping.assignment
    big = P.matrix[assign][:, assign] * emb.weights[None, :]
    edges = embedded_edge_set(P.edges, emb.lumping)
    return TransitionMatrix(edges, big)


def embed_distribution(mu: StationaryDistribution | np.ndarray, emb: MemorylessEmbedding) -> StationaryDistribution:
    """Push a law on the small space up: mass mu(x) splits over block x by the weights."""
    probs = mu.probs if isinstance(mu, StationaryDistribution) else np.asarray(mu, dtype=float)
    if probs.shape != (emb.target_count,):
        raise IncompatibleStateCountError("law does not match the embedding's small space")
    return StationaryDistribution(probs[emb.lumping.assignment] * emb.weights)


def build_symmetrizer(rational: RationalStationary, edges: EdgeSet | None = None) -> Symmetrizer:
    """Symmetrizer of a rational stationary law p / Delta.

    State x gets a block of p_x embedded states with uniform weights 1/p_x;
    blocks are laid out consecutively in ascending-numerator order, so the
    embedded state space is 0 .. Delta-1.
    """
    if edges is not None and edges.state_count != rational.state_count:
        raise IncompatibleStateCountError("edge set does not match the stationary law")
    assignment = np.empty(rational.denominator, dtype=np.int64)
    weights = np.empty(rational.denominator)
    pos = 0
    for k, count in enumerate(rational.numerators):
        state = rational.permutation[k]
        assignment[pos : pos + count] = state
        weights[pos : pos + count] = 1.0 / count
        pos += count
    emb = MemorylessEmbedding(LumpingMap(rational.state_count, assignment), weights)
    return Symmetrizer(embedding=emb, rational=rational, source_edges=edges)


def _symmetry_defect(sym: Symmetrizer, ref: TransitionMatrix) -> float:
    """Max |M - M^T| for M = `ref` embedded through `sym`, read off the d x d chain.

    M[y, y'] = ref[kappa(y), kappa(y')] * (1/p_kappa(y')), so the entries of
    M - M^T are those of S - S^T for S[a, b] = ref[a, b] * (1/p_b), computed
    with the same float operations: the two forms give the same bits, and
    no Delta x Delta matrix is built. The caller checks the preconditions.
    """
    inverse_counts = np.empty(sym.rational.state_count)
    inverse_counts[sym.embedding.lumping.assignment] = sym.embedding.weights
    scaled = ref.matrix * inverse_counts[None, :]
    return float(np.abs(scaled - scaled.T).max())


def symmetry_defect(sym: Symmetrizer, ref: TransitionMatrix) -> float:
    """Max |M - M^T| over the matrix M of the reference embedded through `sym`.

    Zero (up to float error) exactly when the reference is reversible with
    stationary law `sym.rational`; raises when those preconditions, the
    restricted-class check anchored at the reference's own edges, fail.
    """
    report = check_reference_class(ref, sym.rational, ref.edges)
    if not report:
        raise PreconditionFailedError("symmetrizer precondition: " + "; ".join(report.failures))
    return _symmetry_defect(sym, ref)


# ---------------------------------------------------------------------------
# Symmetrizer I/O. The JSON object carries the block map, the weights, and
# the rational law it came from.

def symmetrizer_to_json_obj(sym: Symmetrizer) -> dict:
    obj = {
        "kappa": sym.embedding.lumping.assignment.tolist(),
        "weights": sym.embedding.weights.tolist(),
        "delta": sym.rational.denominator,
        "p": [sym.rational.count_of(x) for x in range(sym.rational.state_count)],
    }
    if sym.source_edges is not None:
        obj["edges"] = [list(e) for e in sym.source_edges.sorted_pairs()]
    return obj


def symmetrizer_from_json_obj(obj: dict) -> Symmetrizer:
    rational = RationalStationary.from_counts(obj["p"])
    if rational.denominator != int(obj["delta"]):
        raise ValueError("stored denominator does not match the numerators")
    edges = None
    if "edges" in obj:
        edges = EdgeSet.from_pairs(rational.state_count, [tuple(e) for e in obj["edges"]])
    sym = build_symmetrizer(rational, edges)
    if sym.embedding.lumping.assignment.tolist() != [int(v) for v in obj["kappa"]]:
        raise ValueError("stored block map does not match the rational law")
    if float(np.abs(sym.embedding.weights - np.asarray(obj["weights"], dtype=float)).max()) > 1e-12:
        raise ValueError("stored weights do not match the rational law")
    return sym


def save_symmetrizer(sym: Symmetrizer, path) -> None:
    with open(path, "w") as fh:
        json.dump(symmetrizer_to_json_obj(sym), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_symmetrizer(path) -> Symmetrizer:
    with open(path) as fh:
        return symmetrizer_from_json_obj(json.load(fh))
