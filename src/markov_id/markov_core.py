"""Finite stochastic-matrix primitives.

Dense row-stochastic matrices bound to an explicit edge set, stationary
distributions, irreducibility and reversibility checks, spectral radius by
power iteration, and rational representations of stationary laws.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    NoConvergenceError,
    NotIrreducibleError,
    OffEdgeMassError,
    RationalizationFailedError,
    RowSumError,
    ZeroOnEdgeError,
)

# Construction-time tolerances: inputs are rational at heart, these absorb
# float round-off only.
ROW_SUM_TOL = 1e-12
STATIONARY_RESIDUAL_TOL = 1e-10
DETAILED_BALANCE_TOL = 1e-9
MEMBERSHIP_TOL = 1e-9
RATIONALIZE_TOL = 1e-9

_POWER_REL_CHANGE = 1e-13
_POWER_MAX_ITER = 10**6


def strongly_connected(support: np.ndarray) -> bool:
    """Whether the digraph with boolean adjacency matrix `support` is strongly connected."""
    adj = np.asarray(support, dtype=bool)
    n = adj.shape[0]
    if n == 0:
        return False
    for mat in (adj, adj.T):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        frontier = np.array([0])
        while frontier.size:
            fresh = mat[frontier].any(axis=0) & ~seen
            seen |= fresh
            frontier = np.flatnonzero(fresh)
        if not seen.all():
            return False
    return True


class EdgeSet:
    """Directed edges over states ``0 .. state_count-1``, as a read-only bool mask.

    ``mask()[a, b]`` is true exactly when ``(a, b)`` is an edge, and the
    state count is the mask's side. Every state must occur as a source and
    as a target; strong connectivity is *not* assumed here, it is what
    :func:`is_irreducible` checks.
    """

    def __init__(self, mask: np.ndarray):
        mask = np.array(mask, dtype=bool)
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise ValueError(f"edge mask must be square, got shape {mask.shape}")
        if not mask.any():  # also catches a mask over zero states
            raise ValueError("edge set is empty")
        missing = np.flatnonzero(~(mask.any(axis=1) & mask.any(axis=0)))
        if missing.size:
            raise ValueError(f"states {missing.tolist()} lack an outgoing or incoming edge")
        mask.setflags(write=False)
        self._mask = mask

    @classmethod
    def from_pairs(cls, state_count: int, pairs: Iterable[tuple[int, int]]) -> EdgeSet:
        idx = np.array([(a, b) for a, b in pairs], dtype=np.int64).reshape(-1, 2)
        bad = ((idx < 0) | (idx >= state_count)).any(axis=1)
        if bad.any():
            a, b = idx[bad][0].tolist()
            raise ValueError(f"edge ({a},{b}) out of range for {state_count} states")
        mask = np.zeros((state_count, state_count), dtype=bool)
        mask[idx[:, 0], idx[:, 1]] = True
        return cls(mask)

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> EdgeSet:
        """Edges where `mask` is nonzero; the mask is copied."""
        return cls(mask)

    @classmethod
    def complete(cls, state_count: int, self_loops: bool = True) -> EdgeSet:
        return cls(~np.eye(state_count, dtype=bool) | self_loops)

    @property
    def state_count(self) -> int:
        return self._mask.shape[0]

    def mask(self) -> np.ndarray:
        """The stored read-only adjacency mask."""
        return self._mask

    def sorted_pairs(self) -> list[tuple[int, int]]:
        """Edges in row-major order, which is ascending order of the pairs."""
        return [(a, b) for a, b in np.argwhere(self._mask).tolist()]

    def __contains__(self, pair: tuple[int, int]) -> bool:
        a, b = pair
        n = self.state_count
        return 0 <= a < n and 0 <= b < n and bool(self._mask[a, b])

    def __len__(self) -> int:
        return int(np.count_nonzero(self._mask))

    def __eq__(self, other) -> bool:
        return isinstance(other, EdgeSet) and np.array_equal(self._mask, other._mask)

    def __hash__(self) -> int:
        return hash(self._mask.tobytes())

    def __reduce__(self):
        # rebuild through the constructor, so an unpickled mask is read-only too
        return EdgeSet, (self._mask,)

    def __repr__(self) -> str:
        return f"EdgeSet({self.state_count} states, {len(self)} edges)"


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic matrix strictly positive exactly on its edge set."""

    edges: EdgeSet
    matrix: np.ndarray

    def __post_init__(self):
        n = self.edges.state_count
        mat = np.array(self.matrix, dtype=float)
        if mat.shape != (n, n):
            raise ValueError(f"matrix shape {mat.shape} does not match {n} states")
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries must be finite")
        mask = self.edges.mask()
        if mat[~mask].any():
            bad = np.argwhere(~mask & (mat != 0))[0]
            raise OffEdgeMassError(
                f"entry ({bad[0]},{bad[1]}) = {mat[bad[0], bad[1]]} lies off the edge set"
            )
        on = mat[mask]
        if (on <= 0).any():
            bad = np.argwhere(mask & (mat <= 0))[0]
            raise ZeroOnEdgeError(f"declared edge ({bad[0]},{bad[1]}) has mass {mat[bad[0], bad[1]]}")
        sums = mat.sum(axis=1)
        dev = np.abs(sums - 1.0)
        if (dev > ROW_SUM_TOL).any():
            i = int(dev.argmax())
            raise RowSumError(f"row {i} sums to {sums[i]!r}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def __reduce__(self):
        # rebuild through the constructor, so an unpickled matrix is read-only too
        return TransitionMatrix, (self.edges, self.matrix)

    @property
    def state_count(self) -> int:
        return self.edges.state_count

    @cached_property
    def stationary(self) -> StationaryDistribution:
        """The chain's stationary law, solved once per matrix by :func:`stationary_distribution`.

        Safe to cache because the matrix is read-only; unpickling rebuilds
        through the constructor, so a copy solves afresh.
        """
        return stationary_distribution(self)

    @classmethod
    def from_dense(cls, matrix: np.ndarray) -> TransitionMatrix:
        """Build from a dense matrix, inferring the edge set from its nonzeros."""
        mat = np.asarray(matrix, dtype=float)
        return cls(EdgeSet.from_mask(mat != 0), mat)


def validate(
    state_count: int,
    edges: EdgeSet | Iterable[tuple[int, int]],
    entries: Mapping[tuple[int, int], float] | Sequence[Sequence[float]] | np.ndarray,
) -> TransitionMatrix:
    """Build a transition matrix from explicit edges and entries.

    `entries` may be a dense row-major matrix or a mapping from edge pairs to
    probabilities. Raises :class:`RowSumError`, :class:`ZeroOnEdgeError` or
    :class:`OffEdgeMassError` when the declared structure is violated.
    """
    edge_set = edges if isinstance(edges, EdgeSet) else EdgeSet.from_pairs(state_count, edges)
    if isinstance(entries, Mapping):
        mat = np.zeros((state_count, state_count))
        for (a, b), value in entries.items():
            mat[a, b] = value
    else:
        mat = np.asarray(entries, dtype=float)
    if not np.isfinite(mat).all():
        raise ValueError("entries must be finite")
    return TransitionMatrix(edge_set, mat)


@dataclass(frozen=True, eq=False)
class StationaryDistribution:
    """Probability vector over states, normalized to unit mass."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=float)
        if probs.ndim != 1:
            raise ValueError("probs must be a vector")
        if (probs < 0).any():
            raise ValueError("probs must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError(f"probs sum to {probs.sum()!r}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def __reduce__(self):
        return StationaryDistribution, (self.probs,)

    @property
    def min_prob(self) -> float:
        return float(self.probs.min())

    def __len__(self) -> int:
        return len(self.probs)


def is_irreducible(P: TransitionMatrix) -> bool:
    """Whether the edge set is strongly connected (exact graph search)."""
    return strongly_connected(P.edges.mask())


def _lazy_power_stationary(P: TransitionMatrix) -> np.ndarray:
    # Power iteration on the lazy chain (P + I)/2; laziness removes
    # periodicity so convergence is guaranteed for irreducible P.
    n = P.state_count
    lazy = 0.5 * (P.matrix + np.eye(n))
    v = np.full(n, 1.0 / n)
    for _ in range(_POWER_MAX_ITER):
        w = v @ lazy
        w /= w.sum()
        if np.abs(w - v).max() <= 1e-15:
            return w
        v = w
    raise NoConvergenceError("stationary-distribution power iteration hit the cap")


def stationary_distribution(P: TransitionMatrix) -> StationaryDistribution:
    """Unique stationary law of an irreducible chain.

    Solves the balance equations as a linear system with an appended
    normalization row, falling back to power iteration on the lazy chain if
    the solve goes numerically bad.
    """
    if not is_irreducible(P):
        raise NotIrreducibleError("stationary distribution is not unique: chain is reducible")
    n = P.state_count
    system = np.vstack([P.matrix.T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    if pi.min() <= 0 or np.abs(pi @ P.matrix - pi).max() > STATIONARY_RESIDUAL_TOL:
        pi = _lazy_power_stationary(P)
    pi = pi / pi.sum()
    residual = float(np.abs(pi @ P.matrix - pi).max())
    if residual > STATIONARY_RESIDUAL_TOL:
        raise NoConvergenceError(f"stationary residual {residual} above tolerance")
    return StationaryDistribution(pi)


def is_reversible(
    P: TransitionMatrix,
    pi: StationaryDistribution | np.ndarray,
    tol: float = DETAILED_BALANCE_TOL,
) -> bool:
    """Detailed balance: pi(x) P(x,x') == pi(x') P(x',x) on every edge."""
    probs = pi.probs if isinstance(pi, StationaryDistribution) else np.asarray(pi, dtype=float)
    flow = probs[:, None] * P.matrix
    return float(np.abs(flow - flow.T).max()) <= tol


def spectral_radius(A: np.ndarray) -> float:
    """Largest eigenvalue modulus of a nonnegative square matrix.

    Power iteration runs on the shifted matrix A + I, which has spectral
    radius rho(A) + 1 for nonnegative A and converges even when A itself is
    periodic. Deterministic all-ones start; relative-change stopping rule.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(A).all() or (A < 0).any():
        raise ValueError("matrix must be nonnegative and finite")
    n = A.shape[0]
    v = np.full(n, 1.0 / n)
    lam_prev = 0.0
    for step in range(_POWER_MAX_ITER):
        w = A @ v + v
        lam = float(w.sum())  # L1 norm: w is nonnegative and v sums to 1
        if step > 0 and abs(lam - lam_prev) <= _POWER_REL_CHANGE * lam:
            return max(lam - 1.0, 0.0)
        lam_prev = lam
        v = w / lam
    raise NoConvergenceError(
        "spectral-radius power iteration hit the cap",
        last_two=(lam_prev - 1.0, lam - 1.0),
    )


@dataclass(frozen=True)
class RationalStationary:
    """Stationary law written as integer numerators over a common denominator.

    Numerators are stored in ascending order; ``permutation[k]`` names the
    original state that holds ``numerators[k]``. Ties in the sort are broken
    by original state index.
    """

    numerators: tuple[int, ...]
    denominator: int
    permutation: tuple[int, ...]

    def __post_init__(self):
        nums = tuple(int(p) for p in self.numerators)
        perm = tuple(int(s) for s in self.permutation)
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "permutation", perm)
        object.__setattr__(self, "denominator", int(self.denominator))
        if len(nums) != len(perm) or sorted(perm) != list(range(len(nums))):
            raise ValueError("permutation must be a permutation of the states")
        if sum(nums) != self.denominator:
            raise ValueError("numerators must sum to the denominator")
        if any(a > b for a, b in zip(nums, nums[1:])):
            raise ValueError("numerators must be ascending")
        if nums[0] < 1:
            raise ValueError("numerators must be positive")
        if len(nums) > 1 and nums[-1] >= self.denominator:
            raise ValueError("largest numerator must be below the denominator")

    @classmethod
    def from_counts(cls, counts: Sequence[int]) -> RationalStationary:
        """Build from integer numerators given in original state order."""
        counts = [int(c) for c in counts]
        order = sorted(range(len(counts)), key=lambda s: (counts[s], s))
        return cls(
            numerators=tuple(counts[s] for s in order),
            denominator=sum(counts),
            permutation=tuple(order),
        )

    @property
    def state_count(self) -> int:
        return len(self.numerators)

    @property
    def min_prob(self) -> float:
        return self.numerators[0] / self.denominator

    @property
    def probs(self) -> np.ndarray:
        """The distribution in original state order."""
        out = np.empty(self.state_count)
        for k, state in enumerate(self.permutation):
            out[state] = self.numerators[k] / self.denominator
        return out

    def count_of(self, state: int) -> int:
        """Numerator of the given original state."""
        return self.numerators[self.permutation.index(state)]


def rationalize(
    pi: StationaryDistribution | np.ndarray,
    max_denominator: int,
) -> RationalStationary:
    """Best rational representation p / Delta of a positive distribution.

    Per-entry continued-fraction approximants capped at `max_denominator`,
    unified over their least common denominator, with the largest entry
    absorbing any residual so the numerators sum exactly to the denominator.
    """
    probs = pi.probs if isinstance(pi, StationaryDistribution) else np.asarray(pi, dtype=float)
    if (probs <= 0).any():
        raise RationalizationFailedError("distribution entries must be positive")
    fracs = [Fraction(float(x)).limit_denominator(max_denominator) for x in probs]
    delta = lcm(*(f.denominator for f in fracs))
    if delta > max_denominator:
        raise RationalizationFailedError(
            f"common denominator {delta} exceeds the cap {max_denominator}"
        )
    counts = [f.numerator * (delta // f.denominator) for f in fracs]
    counts[int(np.argmax(counts))] += delta - sum(counts)
    if min(counts) < 1:
        raise RationalizationFailedError("adjustment emptied an entry; cap too small")
    err = float(np.abs(np.array(counts) / delta - probs).max())
    if err > RATIONALIZE_TOL:
        raise RationalizationFailedError(
            f"best approximation off by {err} under denominator cap {max_denominator}"
        )
    return RationalStationary.from_counts(counts)


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of the restricted-class check, with the list of failed assumptions."""

    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def check_reference_class(
    P: TransitionMatrix,
    ref_stationary: RationalStationary,
    ref_edges: EdgeSet,
    tol: float = MEMBERSHIP_TOL,
) -> MembershipReport:
    """Check membership in the restricted testing class.

    The class is anchored to a reference: irreducible and reversible, same
    edge set as the reference, and the same (rational) stationary law.
    """
    failures: list[str] = []
    if P.edges != ref_edges:
        failures.append("edge set differs from the reference connection graph")
    if not is_irreducible(P):
        failures.append("matrix is not irreducible")
        return MembershipReport(False, tuple(failures))
    pi = P.stationary
    if not is_reversible(P, pi):
        failures.append("matrix is not reversible")
    if float(np.abs(pi.probs - ref_stationary.probs).max()) > tol:
        failures.append("stationary law differs from the reference")
    return MembershipReport(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# Matrix I/O: a JSON object with explicit edges (bit-exact round trip) and a
# whitespace-separated text form whose edge set is inferred from nonzeros.

def matrix_to_json_obj(P: TransitionMatrix) -> dict:
    return {
        "states": P.state_count,
        "edges": [list(e) for e in P.edges.sorted_pairs()],
        "rows": [list(row) for row in P.matrix.tolist()],
    }


def matrix_from_json_obj(obj: dict) -> TransitionMatrix:
    return validate(int(obj["states"]), [tuple(e) for e in obj["edges"]], obj["rows"])


def matrix_to_text(P: TransitionMatrix) -> str:
    lines = [" ".join(repr(v) for v in row) for row in P.matrix.tolist()]
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> TransitionMatrix:
    rows = [[float(tok) for tok in line.split()] for line in text.splitlines() if line.strip()]
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ValueError("text matrix must be square and nonempty")
    return TransitionMatrix.from_dense(np.array(rows))


def save_matrix(P: TransitionMatrix, path, fmt: str | None = None) -> None:
    fmt = fmt or ("json" if str(path).endswith(".json") else "text")
    with open(path, "w") as fh:
        if fmt == "json":
            json.dump(matrix_to_json_obj(P), fh, indent=2, sort_keys=True)
            fh.write("\n")
        else:
            fh.write(matrix_to_text(P))


def load_matrix(path, fmt: str | None = None) -> TransitionMatrix:
    with open(path) as fh:
        text = fh.read()
    if fmt is None:
        fmt = "json" if text.lstrip().startswith("{") else "text"
    if fmt == "json":
        return matrix_from_json_obj(json.loads(text))
    return matrix_from_text(text)
