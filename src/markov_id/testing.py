"""Identity testing from one trajectory, by reduction to the symmetric case.

The pipeline: prepare the reference once (check it lives in the restricted
class, build the symmetrizer of its stationary law, read the embedded
reference's symmetry defect off the small chain, and embed the reference
algebraically), then embed the observed trajectory operationally and hand
both to a tester that only ever sees symmetric chains: a plug-in estimator
thresholding the estimated contrast.

Risk estimation replays this end to end over many simulated trajectories,
from the reference (type I) and from each alternative (type II), on
independent, reproducibly indexed random streams. A scan over lengths
prepares the reference and gates the alternatives once for the whole grid.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .contrast import contrast
from .markov_core import (
    RationalStationary,
    StationaryDistribution,
    TransitionMatrix,
    check_reference_class,
)
from .embedding import Symmetrizer, _symmetry_defect, build_symmetrizer, embed_matrix
from .errors import (
    ExclusionRegionError,
    IncompatibleStateCountError,
    PreconditionFailedError,
    ReferenceClassError,
)
from .sampling import RandomSource, Trajectory, embed_trajectory, simulate

SYMMETRY_DEFECT_TOL = 1e-12
SYMMETRY_PRECHECK_TOL = 1e-9
MIN_ROW_VISITS = 10


@dataclass(frozen=True)
class TestConfig:
    """Parameters of one testing problem.

    `epsilon` separates the alternatives from the reference in contrast;
    `delta` is the admissible risk; `n` the trajectory length; `seed` the
    root of every random stream. `epsilon_low` widens the accept region: the
    rejection threshold sits halfway between `epsilon_low` (default 0) and
    `epsilon`.
    """

    __test__ = False  # name looks like a test fixture to pytest; it is not

    epsilon: float
    delta: float
    n: int
    seed: int = 0
    epsilon_low: float | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.epsilon_low is not None and not 0.0 <= self.epsilon_low < self.epsilon:
            raise ValueError("epsilon_low must lie in [0, epsilon)")

    @property
    def threshold(self) -> float:
        low = self.epsilon_low or 0.0
        return 0.5 * (low + self.epsilon)


@dataclass(frozen=True, eq=False)
class TestVerdict:
    """Decision plus diagnostics: 0 accepts identity, 1 rejects it."""

    __test__ = False

    decision: int
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.decision not in (0, 1):
            raise ValueError("decision must be 0 or 1")


def plugin_symmetric_tester(
    ref: TransitionMatrix, traj: Trajectory, config: TestConfig
) -> TestVerdict:
    """Plug-in contrast test for a symmetric reference.

    Estimates the transition matrix by smoothed empirical frequencies and
    rejects when its contrast to the reference clears the threshold. Rows
    visited fewer than `MIN_ROW_VISITS` times copy the reference row, so
    unseen corners never fake evidence either way; smoothing adds 1/Delta
    pseudocounts on the reference's edges, and any transition observed off
    those edges keeps its raw frequency.
    """
    if float(np.abs(ref.matrix - ref.matrix.T).max()) > SYMMETRY_PRECHECK_TOL:
        raise PreconditionFailedError("reference matrix is not symmetric")
    if traj.state_count != ref.state_count:
        raise IncompatibleStateCountError(
            f"trajectory over {traj.state_count} states, reference has {ref.state_count}"
        )
    d = ref.state_count
    alpha = 1.0 / d
    counts = np.zeros((d, d))
    np.add.at(counts, (traj.states[:-1], traj.states[1:]), 1.0)
    visits = counts.sum(axis=1)
    ref_mask = ref.edges.mask()
    est = np.array(ref.matrix)
    undervisited = []
    for x in range(d):
        if visits[x] < MIN_ROW_VISITS:
            undervisited.append(x)
            continue
        row = counts[x] + alpha * ref_mask[x]
        est[x] = row / row.sum()
    k_hat = contrast(TransitionMatrix.from_dense(est), ref).k
    decision = int(k_hat > config.threshold)
    return TestVerdict(
        decision,
        diagnostics={
            "tester": "plugin-contrast",
            "contrast_estimate": k_hat,
            "threshold": config.threshold,
            "visit_counts": visits.astype(int).tolist(),
            "undervisited": undervisited,
            "insufficient_data": len(undervisited) > d / 2,
        },
    )


@dataclass(frozen=True, eq=False)
class PreparedReference:
    """A reference checked, symmetrized and embedded once, for reuse.

    Holds the reference with its rational law p / Delta, the symmetrizer,
    the reference embedded through it on Delta states, and that embedded
    matrix's symmetry defect max |M - M^T|.
    """

    ref: TransitionMatrix
    rational: RationalStationary
    symmetrizer: Symmetrizer
    big_ref: TransitionMatrix
    defect: float


def prepare_reference(ref: TransitionMatrix, rational: RationalStationary) -> PreparedReference:
    """Check `ref` against the restricted class anchored at its own edges, then embed it.

    Raises :class:`ReferenceClassError` when the reference is outside the
    class, and :class:`PreconditionFailedError` when its embedding is not
    symmetric to `SYMMETRY_DEFECT_TOL`.
    """
    report = check_reference_class(ref, rational, ref.edges)
    if not report:
        raise ReferenceClassError("reference: " + "; ".join(report.failures))
    sym = build_symmetrizer(rational, ref.edges)
    defect = _symmetry_defect(sym, ref)
    if defect > SYMMETRY_DEFECT_TOL:
        raise PreconditionFailedError(f"embedded reference asymmetric by {defect}")
    return PreparedReference(ref, rational, sym, embed_matrix(ref, sym.embedding), defect)


def reduced_identity_test(
    ref: TransitionMatrix,
    rational: RationalStationary,
    trajectory: Trajectory,
    config: TestConfig,
) -> TestVerdict:
    """Test `trajectory` for identity with `ref` via the symmetrizing reduction.

    The reference must belong to the restricted class anchored at its own
    edge set and the given rational stationary law; it is prepared once
    per call. The trajectory, over the reference's states, is lifted with
    fresh randomness from stream 1 of the config seed and judged by
    :func:`plugin_symmetric_tester`.
    """
    prepared = prepare_reference(ref, rational)
    source = RandomSource(config.seed, stream=1)
    big_traj = embed_trajectory(trajectory, prepared.symmetrizer.embedding, source)
    verdict = plugin_symmetric_tester(prepared.big_ref, big_traj, config)
    verdict.diagnostics.setdefault("delta_states", prepared.symmetrizer.delta)
    verdict.diagnostics.setdefault("symmetry_defect", prepared.defect)
    return verdict


@dataclass(frozen=True)
class RiskReport:
    """Monte Carlo error frequencies of the test at one trajectory length."""

    n: int
    trials: int
    type1: float
    type2_by_alternative: tuple[float, ...]

    @property
    def type2_max(self) -> float:
        return max(self.type2_by_alternative, default=0.0)

    @property
    def risk(self) -> float:
        return self.type1 + self.type2_max


def _gated_chains(
    prepared: PreparedReference,
    alternatives: Sequence[TransitionMatrix],
    epsilon: float,
) -> list[TransitionMatrix]:
    """The reference and each alternative.

    Every alternative must share the reference's class and lie farther than
    `epsilon` from it in contrast.
    """
    chains = [prepared.ref]
    for i, alt in enumerate(alternatives):
        rep = check_reference_class(alt, prepared.rational, prepared.ref.edges)
        if not rep:
            raise ReferenceClassError(f"alternative {i}: " + "; ".join(rep.failures))
        k = contrast(alt, prepared.ref).k
        if k <= epsilon:
            raise ExclusionRegionError(
                f"alternative {i} has contrast {k:.6g} <= epsilon {epsilon}"
            )
        chains.append(alt)
    return chains


def _risk_block(
    prepared: PreparedReference,
    chain: TransitionMatrix,
    law: StationaryDistribution,
    config: TestConfig,
    t0: int,
    t1: int,
    chain_base: int,
) -> int:
    """Rejection count over trials [t0, t1); module level so it pickles."""
    rejections = 0
    for t in range(t0, t1):
        sim_src = RandomSource(config.seed, stream=chain_base + 2 * t)
        emb_src = RandomSource(config.seed, stream=chain_base + 2 * t + 1)
        traj = simulate(chain, config.n, sim_src, initial=law)
        big_traj = embed_trajectory(traj, prepared.symmetrizer.embedding, emb_src)
        rejections += plugin_symmetric_tester(prepared.big_ref, big_traj, config).decision
    return rejections


def _risk_at(
    prepared: PreparedReference,
    chains: Sequence[TransitionMatrix],
    config: TestConfig,
    trials: int,
    workers: int,
    position: int,
) -> RiskReport:
    """Risk at length `config.n` and grid `position` over a prepared reference's chains.

    Each chain's trials split into one block per worker; blocks run in
    process or on a pool, and their counts add up the same either way.
    Every block starts its trials from the stationary law solved here, so
    pool workers never solve for it again.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    step = trials if workers <= 1 else -(-trials // workers)
    owners, blocks = [], []
    for c, chain in enumerate(chains):
        chain_base = 2 * (position * len(chains) + c) * trials
        for t0 in range(0, trials, step):
            owners.append(c)
            blocks.append(
                (prepared, chain, chain.stationary, config, t0, min(t0 + step, trials), chain_base)
            )
    if workers <= 1:
        counts = [_risk_block(*block) for block in blocks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(_risk_block, *zip(*blocks)))
    rejections = [0] * len(chains)
    for c, k in zip(owners, counts):
        rejections[c] += k
    type1 = rejections[0] / trials
    type2 = tuple(1.0 - r / trials for r in rejections[1:])
    return RiskReport(n=config.n, trials=trials, type1=type1, type2_by_alternative=type2)


def estimate_risk(
    ref: TransitionMatrix,
    rational: RationalStationary,
    alternatives: Sequence[TransitionMatrix],
    config: TestConfig,
    trials: int,
    workers: int = 1,
) -> RiskReport:
    """Monte Carlo risk of the reduced test at length `config.n`.

    Runs `trials` trajectories from the reference (chain c = 0) and from
    each gated alternative (chain c = 1 + its index). Trial t of chain c
    draws its trajectory on stream 2*(c*trials + t) and its embedding
    randomness on the next stream, so results do not depend on `workers`.
    This is grid position 0 of :func:`sample_complexity_scan`.
    """
    prepared = prepare_reference(ref, rational)
    chains = _gated_chains(prepared, alternatives, config.epsilon)
    return _risk_at(prepared, chains, config, trials, workers, 0)


@dataclass(frozen=True)
class ScanResult:
    """Risk estimates along a grid of trajectory lengths."""

    target_risk: float
    reports: tuple[RiskReport, ...]

    @property
    def found_n(self) -> int | None:
        """Smallest evaluated length whose estimated risk beats the target."""
        for report in self.reports:
            if report.risk < self.target_risk:
                return report.n
        return None

    def to_csv(self) -> str:
        lines = ["n,type1_freq,type2_freq_max,risk_estimate"]
        for r in self.reports:
            lines.append(f"{r.n},{r.type1!r},{r.type2_max!r},{r.risk!r}")
        return "\n".join(lines) + "\n"


def sample_complexity_scan(
    ref: TransitionMatrix,
    rational: RationalStationary,
    alternatives: Sequence[TransitionMatrix],
    config: TestConfig,
    n_grid: Sequence[int],
    trials: int,
    workers: int = 1,
    stop_early: bool = True,
) -> ScanResult:
    """Estimate risk over `n_grid` and report where it first beats `config.delta`.

    The reference is prepared and the alternatives gated once for the whole
    grid. Grid points are evaluated in the given order; with `stop_early`
    the scan ends at the first success. Trial t of chain c (0 for the
    reference, 1 + its index for an alternative) at grid position i draws
    its trajectory on stream 2*((i*(1+len(alternatives)) + c)*trials + t)
    and its embedding randomness on the next stream, so grid points never
    share randomness and position 0 repeats :func:`estimate_risk`.
    """
    if not n_grid:
        raise ValueError("n_grid must be nonempty")
    prepared = prepare_reference(ref, rational)
    chains = _gated_chains(prepared, alternatives, config.epsilon)
    reports: list[RiskReport] = []
    for i, n in enumerate(n_grid):
        cfg = dataclasses.replace(config, n=int(n))
        report = _risk_at(prepared, chains, cfg, trials, workers, i)
        reports.append(report)
        if stop_early and report.risk < config.delta:
            break
    return ScanResult(target_risk=config.delta, reports=tuple(reports))
