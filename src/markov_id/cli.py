"""Command-line front end.

One executable with subcommands covering the full pipeline: inspect chains,
compute contrasts, build symmetrizers, simulate and embed trajectories,
run identity tests, estimate risk, scan sample sizes, and self-verify the
embedding identities against brute-force oracles.

Conventions: every randomized subcommand either receives --seed or draws
one and prints it, so each run is reproducible from its own output. A JSON
config file can preload any knob; explicit flags win. Exit codes: 0 ok,
1 verification found a violation, 2 invalid input, 3 statistical
preconditions not met.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys

import numpy as np

from . import __version__
from .contrast import contrast
from .embedding import (
    build_symmetrizer,
    embed_matrix,
    load_symmetrizer,
    lump,
    save_symmetrizer,
    symmetrizer_to_json_obj,
    symmetry_defect,
)
from .errors import (
    ExclusionRegionError,
    MarkovIdError,
    NoConvergenceError,
    PreconditionFailedError,
    ReferenceClassError,
)
from .markov_core import (
    RationalStationary,
    is_irreducible,
    is_reversible,
    load_matrix,
    rationalize,
    stationary_distribution,
)
from .paths import path_divergence_invariance, pushforward_defect
from .sampling import (
    RandomSource,
    embed_trajectory,
    load_trajectory,
    save_trajectory,
    simulate,
    trajectory_to_json_obj,
    trajectory_to_text,
)
from .testing import (
    TestConfig,
    estimate_risk,
    reduced_identity_test,
    sample_complexity_scan,
)

DEFAULT_MAX_DENOMINATOR = 10**6

_PRECONDITION_ERRORS = (
    ReferenceClassError,
    ExclusionRegionError,
    PreconditionFailedError,
    NoConvergenceError,
)


def _seed(merged: dict) -> int:
    """The configured seed, or a fresh one to be printed with the result."""
    return int(merged["seed"]) if merged["seed"] is not None else secrets.randbits(63)


def _merged(args: argparse.Namespace, defaults: dict) -> dict:
    """Resolve option values: explicit flag > config file > built-in default."""
    out = dict(defaults)
    path = getattr(args, "config", None)
    if path:
        with open(path) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
        out.update({k: v for k, v in cfg.items() if k in defaults})
    out.update({k: v for k, v in vars(args).items() if k in defaults and v is not None})
    return out


def _emit(obj: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    else:
        lines = []
        for key in obj:
            value = obj[key]
            if isinstance(value, float):
                value = repr(value)
            lines.append(f"{key} = {value}")
        text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _workers(requested: int) -> int:
    cap = os.environ.get("MARKOV_ID_THREADS")
    if cap is not None:
        return max(1, min(requested, int(cap)))
    return max(1, requested)


def _rational_for(ref, merged) -> RationalStationary:
    pi = stationary_distribution(ref)
    return rationalize(pi, int(merged["max_denominator"]))


def _write_trajectory(traj, fmt: str, out_path: str | None) -> None:
    if out_path:
        save_trajectory(traj, out_path, fmt=fmt)
        _emit({"n": len(traj), "out": out_path, "seed": traj.seed, "stream": traj.stream}, "text", None)
    elif fmt == "json":
        _emit(trajectory_to_json_obj(traj), "json", None)
    else:
        sys.stdout.write(trajectory_to_text(traj))


def _problem(args, delta: float, **defaults) -> dict:
    """Merged options of a testing problem (`test`, `risk`, `scan`); --epsilon is required."""
    merged = _merged(
        args,
        {
            "format": "text",
            "epsilon": None,
            "epsilon_low": None,
            "delta": delta,
            "seed": None,
            "max_denominator": DEFAULT_MAX_DENOMINATOR,
            **defaults,
        },
    )
    if merged["epsilon"] is None:
        raise ValueError("--epsilon is required")
    return merged


def _test_config(merged: dict, n: int) -> TestConfig:
    return TestConfig(
        epsilon=float(merged["epsilon"]),
        delta=float(merged["delta"]),
        n=n,
        seed=_seed(merged),
        epsilon_low=None if merged["epsilon_low"] is None else float(merged["epsilon_low"]),
    )


# --- subcommand bodies ------------------------------------------------------

def _cmd_inspect(args) -> int:
    merged = _merged(args, {"format": "text"})
    P = load_matrix(args.p)
    obj: dict = {
        "states": P.state_count,
        "edge_count": len(P.edges),
        "irreducible": is_irreducible(P),
    }
    if obj["irreducible"]:
        pi = stationary_distribution(P)
        obj["reversible"] = is_reversible(P, pi)
        obj["stationary"] = pi.probs.tolist()
        obj["min_stationary_prob"] = pi.min_prob
    _emit(obj, merged["format"], args.out)
    return 0


def _cmd_contrast(args) -> int:
    merged = _merged(args, {"format": "text", "paths_length": None})
    P = load_matrix(args.p)
    Q = load_matrix(args.q)
    value = contrast(P, Q)
    obj = {
        "k": value.k,
        "renyi_rate": value.renyi_rate,
        "product_irreducible": value.product_irreducible,
    }
    if merged["paths_length"] is not None:
        from .contrast import renyi_rate_via_paths

        n = int(merged["paths_length"])
        obj["paths_length"] = n
        obj["renyi_rate_at_length"] = renyi_rate_via_paths(P, Q, n)
    _emit(obj, merged["format"], args.out)
    return 0


def _cmd_symmetrize(args) -> int:
    merged = _merged(
        args, {"format": "text", "max_denominator": DEFAULT_MAX_DENOMINATOR}
    )
    ref = load_matrix(args.ref)
    rational = _rational_for(ref, merged)
    sym = build_symmetrizer(rational, ref.edges)
    defect = symmetry_defect(sym, ref)
    if args.out:
        save_symmetrizer(sym, args.out)
    obj = {
        "delta": sym.delta,
        "numerators": [rational.count_of(x) for x in range(rational.state_count)],
        "symmetry_defect": defect,
    }
    if not args.out:
        obj["symmetrizer"] = symmetrizer_to_json_obj(sym)
        _emit(obj, "json", None)
    else:
        obj["out"] = args.out
        _emit(obj, merged["format"], None)
    return 0


def _cmd_simulate(args) -> int:
    merged = _merged(args, {"format": "text", "n": None, "seed": None, "stream": 0})
    if merged["n"] is None:
        raise ValueError("trajectory length -n is required")
    P = load_matrix(args.p)
    traj = simulate(P, int(merged["n"]), RandomSource(_seed(merged), int(merged["stream"])))
    _write_trajectory(traj, merged["format"], args.out)
    return 0


def _cmd_embed(args) -> int:
    merged = _merged(args, {"format": "text", "seed": None, "stream": 0})
    sym = load_symmetrizer(args.sigma)
    traj = load_trajectory(args.traj)
    big = embed_trajectory(traj, sym.embedding, RandomSource(_seed(merged), int(merged["stream"])))
    _write_trajectory(big, merged["format"], args.out)
    return 0


def _cmd_test(args) -> int:
    merged = _problem(args, delta=0.1)
    ref = load_matrix(args.ref)
    traj = load_trajectory(args.traj)
    config = _test_config(merged, len(traj))
    rational = _rational_for(ref, merged)
    verdict = reduced_identity_test(ref, rational, traj, config)
    obj = {
        "decision": verdict.decision,
        "verdict": "reject" if verdict.decision else "accept",
        "seed": config.seed,
        "n": config.n,
        "epsilon": config.epsilon,
    }
    obj.update(
        {
            k: verdict.diagnostics[k]
            for k in ("tester", "contrast_estimate", "threshold", "insufficient_data", "delta_states")
            if k in verdict.diagnostics
        }
    )
    _emit(obj, merged["format"], args.out)
    return 0


def _risk_args(args, need_n: bool):
    merged = _problem(args, delta=0.2, n=None, trials=200, workers=1)
    if need_n and merged["n"] is None:
        raise ValueError("trajectory length -n is required")
    ref = load_matrix(args.ref)
    alternatives = [load_matrix(path) for path in args.alt or []]
    if not alternatives:
        raise ValueError("at least one --alt matrix is required")
    config = _test_config(merged, int(merged["n"]) if merged["n"] is not None else 1)
    rational = _rational_for(ref, merged)
    return merged, ref, alternatives, rational, config


def _cmd_risk(args) -> int:
    merged, ref, alternatives, rational, config = _risk_args(args, need_n=True)
    report = estimate_risk(
        ref,
        rational,
        alternatives,
        config,
        trials=int(merged["trials"]),
        workers=_workers(int(merged["workers"])),
    )
    obj = {
        "n": report.n,
        "trials": report.trials,
        "type1": report.type1,
        "type2_by_alternative": list(report.type2_by_alternative),
        "type2_max": report.type2_max,
        "risk": report.risk,
        "seed": config.seed,
    }
    _emit(obj, merged["format"], args.out)
    return 0


def _cmd_scan(args) -> int:
    merged, ref, alternatives, rational, config = _risk_args(args, need_n=False)
    n_grid = [int(tok) for tok in args.n_grid.split(",") if tok.strip()]
    result = sample_complexity_scan(
        ref,
        rational,
        alternatives,
        config,
        n_grid,
        trials=int(merged["trials"]),
        workers=_workers(int(merged["workers"])),
        stop_early=not args.no_stop_early,
    )
    if merged["format"] == "json":
        obj = {
            "target_risk": result.target_risk,
            "found_n": result.found_n,
            "seed": config.seed,
            "rows": [
                {
                    "n": r.n,
                    "trials": r.trials,
                    "type1": r.type1,
                    "type2_max": r.type2_max,
                    "risk": r.risk,
                }
                for r in result.reports
            ],
        }
        _emit(obj, "json", args.out)
        return 0
    text = result.to_csv()
    if merged["format"] == "text":
        text += f"found_n = {result.found_n}\nseed = {config.seed}\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


_VERIFY_TOLS = {
    "symmetrizer_defect": 1e-12,
    "embedded_law_uniformity": 1e-12,
    "lump_round_trip": 1e-12,
    "contrast_preservation": 1e-9,
    "pushforward_identity": 1e-12,
    "divergence_invariance": 1e-10,
}


def run_verification(seed: int, cases: int) -> dict[str, float]:
    """Brute-force oracle sweeps over random instances.

    Returns the worst observed deviation per identity; everything should
    sit within `_VERIFY_TOLS` on a correct build.
    """
    from .generate import (
        random_memoryless_embedding,
        random_reversible_pair,
        random_stochastic,
    )
    from .paths import path_distribution

    rng = np.random.default_rng(seed)
    worst = {name: 0.0 for name in _VERIFY_TOLS}

    def bump(name: str, value: float) -> None:
        worst[name] = max(worst[name], float(value))

    for _ in range(cases):
        nx = int(rng.integers(2, 6))
        delta = int(rng.integers(nx, 13))
        P, Q, rational, edges = random_reversible_pair(rng, nx, delta)
        sym = build_symmetrizer(rational, edges)
        bump("symmetrizer_defect", symmetry_defect(sym, P))
        bigP = embed_matrix(P, sym.embedding)
        bigQ = embed_matrix(Q, sym.embedding)
        bump(
            "embedded_law_uniformity",
            np.abs(stationary_distribution(bigP).probs - 1.0 / sym.delta).max(),
        )
        bump(
            "lump_round_trip",
            np.abs(lump(bigP, sym.embedding.lumping).matrix - P.matrix).max(),
        )
        bump("contrast_preservation", abs(contrast(bigP, bigQ).k - contrast(P, Q).k))

    for _ in range(cases):
        nx = int(rng.integers(2, 4))
        ny = nx + int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        P = random_stochastic(rng, nx)
        emb = random_memoryless_embedding(rng, ny, nx)
        bump("pushforward_identity", pushforward_defect(P, emb, n))

    for _ in range(cases):
        nx = int(rng.integers(2, 4))
        delta = int(rng.integers(nx, 7))
        n = int(rng.integers(2, 5))
        P, Q, rational, edges = random_reversible_pair(rng, nx, delta)
        sym = build_symmetrizer(rational, edges)
        bump("pushforward_identity", pushforward_defect(P, sym.embedding, n))
        small, big = path_divergence_invariance(P, Q, sym.embedding, n)
        bump("divergence_invariance", abs(small - big))
    return worst


def _cmd_verify(args) -> int:
    merged = _merged(args, {"format": "text", "seed": None, "trials": 50})
    seed = _seed(merged)
    worst = run_verification(seed, int(merged["trials"]))
    failures = {k: v for k, v in worst.items() if v > _VERIFY_TOLS[k]}
    obj: dict = {"seed": seed, "cases": int(merged["trials"])}
    for name in sorted(worst):
        obj[f"{name}_worst"] = worst[name]
        obj[f"{name}_tol"] = _VERIFY_TOLS[name]
    obj["ok"] = not failures
    _emit(obj, merged["format"], args.out)
    if failures:
        print(f"verification FAILED: {sorted(failures)}", file=sys.stderr)
        return 1
    return 0


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markov-id",
        description="Identity testing for reversible Markov chains from one trajectory.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, fmt_choices=("text", "json")) -> None:
        p.add_argument("--config", help="JSON file preloading options; flags win")
        p.add_argument("--format", choices=fmt_choices, default=None)
        p.add_argument("--out", default=None, help="write the result here instead of stdout")

    p = sub.add_parser("inspect", help="structure and stationary law of one chain")
    p.add_argument("--p", required=True, help="transition matrix (json or text)")
    common(p)
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("contrast", help="contrast and divergence rate of two chains")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--paths-length", type=int, default=None,
                   help="also compute the exact path divergence at this length")
    common(p)
    p.set_defaults(func=_cmd_contrast)

    p = sub.add_parser("symmetrize", help="build the symmetrizing embedding of a reference")
    p.add_argument("--ref", required=True)
    p.add_argument("--max-denominator", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_symmetrize)

    p = sub.add_parser("simulate", help="sample a trajectory, stationary start")
    p.add_argument("--p", required=True)
    p.add_argument("-n", type=int, default=None, help="trajectory length")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--stream", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("embed", help="lift a trajectory through a symmetrizer")
    p.add_argument("--sigma", required=True, help="symmetrizer file from `symmetrize`")
    p.add_argument("--traj", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--stream", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_embed)

    def problem(p: argparse.ArgumentParser) -> None:
        p.add_argument("--ref", required=True)
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--epsilon-low", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--max-denominator", type=int, default=None)

    p = sub.add_parser("test", help="identity test of a trajectory against a reference")
    problem(p)
    p.add_argument("--traj", required=True)
    common(p)
    p.set_defaults(func=_cmd_test)

    def risk_like(p: argparse.ArgumentParser) -> None:
        problem(p)
        p.add_argument("--alt", action="append", help="alternative matrix; repeatable")
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)

    p = sub.add_parser("risk", help="Monte Carlo risk at one trajectory length")
    risk_like(p)
    p.add_argument("-n", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_risk)

    p = sub.add_parser("scan", help="risk along a grid of trajectory lengths")
    risk_like(p)
    p.add_argument("--n-grid", required=True, help="comma-separated lengths, ascending")
    p.add_argument("--no-stop-early", action="store_true",
                   help="evaluate the whole grid even after a success")
    common(p, fmt_choices=("text", "json", "csv"))
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", help="run the brute-force oracle suite")
    p.add_argument("--trials", type=int, default=None, help="random cases per sweep")
    p.add_argument("--seed", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MarkovIdError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
