"""Output checks for every op, feeding the benchmark's failure count.

Each check returns a list of problems; an empty list means the op's output
is correct. The dense oracle for `test` ops recomputes the plug-in contrast
independently of the program's power iteration, with `np.linalg.eigvals`.
"""

from __future__ import annotations

import json
import math

import numpy as np

FLOAT_TOL = 1e-9
ORACLE_TOL = 1e-9
MIN_ROW_VISITS = 10  # the tester's documented rule: rows seen fewer times copy the reference


def parse_output(returncode: int, stdout: bytes) -> tuple[dict | None, list[str]]:
    if returncode != 0:
        return None, [f"exit code {returncode}"]
    try:
        obj = json.loads(stdout)
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]
    if not isinstance(obj, dict):
        return None, ["output is not a JSON object"]
    return obj, []


def check_test(obj: dict, workload, inputs, seed: int) -> list[str]:
    problems = []
    if obj.get("delta_states") != workload.delta:
        problems.append(f"delta_states {obj.get('delta_states')} != {workload.delta}")
    k, threshold = obj.get("contrast_estimate"), obj.get("threshold")
    if not isinstance(k, float) or not isinstance(threshold, float):
        return problems + ["contrast_estimate or threshold missing"]
    if obj.get("decision") != int(k > threshold):
        problems.append(f"decision {obj.get('decision')} but estimate {k} vs threshold {threshold}")
    if obj.get("verdict") != ("reject" if obj.get("decision") else "accept"):
        problems.append("verdict does not match decision")
    if threshold != inputs.epsilon / 2:
        problems.append(f"threshold {threshold} != epsilon / 2")
    if obj.get("n") != workload.n or obj.get("seed") != seed:
        problems.append("n or seed not echoed")
    return problems


def _is_frequency(value, trials: int) -> bool:
    if not isinstance(value, float) or not 0.0 <= value <= 1.0:
        return False
    scaled = value * trials
    return abs(scaled - round(scaled)) <= FLOAT_TOL * trials


def _check_report(row: dict, trials: int, n: int) -> list[str]:
    problems = []
    if row.get("n") != n or row.get("trials") != trials:
        problems.append(f"row n/trials {row.get('n')}/{row.get('trials')} != {n}/{trials}")
    type1, type2_max, risk = row.get("type1"), row.get("type2_max"), row.get("risk")
    if not _is_frequency(type1, trials) or not _is_frequency(type2_max, trials):
        problems.append(f"frequency not a multiple of 1/{trials}: {type1}, {type2_max}")
    elif risk != type1 + type2_max:
        problems.append(f"risk {risk} != type1 + type2_max")
    type2 = row.get("type2_by_alternative")
    if type2 is not None:
        if not all(_is_frequency(t, trials) for t in type2):
            problems.append(f"type2 not a multiple of 1/{trials}: {type2}")
        elif type2_max != max(type2):
            problems.append("type2_max is not the largest type2")
    return problems


def check_risk(obj: dict, workload, inputs, seed: int) -> list[str]:
    problems = _check_report(obj, workload.trials, workload.n)
    type2 = obj.get("type2_by_alternative")
    if not isinstance(type2, list) or len(type2) != workload.alternatives:
        problems.append("type2_by_alternative does not list every alternative")
    if obj.get("seed") != seed:
        problems.append("seed not echoed")
    return problems


def check_scan(obj: dict, workload, inputs, seed: int) -> list[str]:
    rows = obj.get("rows")
    if not isinstance(rows, list) or [r.get("n") for r in rows] != list(workload.n_grid):
        return [f"rows do not echo the grid {list(workload.n_grid)}"]
    problems = []
    for row in rows:
        problems += _check_report(row, workload.trials, row["n"])
    target = obj.get("target_risk")
    found = next((r["n"] for r in rows if r.get("risk", math.inf) < target), None)
    if obj.get("found_n") != found:
        problems.append(f"found_n {obj.get('found_n')} != first n under the target ({found})")
    if obj.get("seed") != seed:
        problems.append("seed not echoed")
    return problems


CHECKS = {"test": check_test, "risk": check_risk, "scan": check_scan}


def oracle_contrast(inputs, traj_index: int, seed: int) -> float:
    """Plug-in contrast of a `test` op, recomputed densely.

    Lifts the op's trajectory with `embed_trajectory` on stream 1 of the op
    seed, as the tester does; builds the embedded reference entrywise as
    P(kappa(y), kappa(y')) / p_kappa(y'); smooths the transition counts by
    1/Delta on the reference's edges, copying the reference row where a row
    has fewer than MIN_ROW_VISITS visits; and takes rho from the eigenvalues.
    """
    from markov_id import RandomSource, build_symmetrizer, embed_trajectory

    emb = build_symmetrizer(inputs.rational).embedding
    kappa = emb.lumping.assignment
    big = embed_trajectory(inputs.trajectories[traj_index], emb, RandomSource(seed, stream=1))
    d = emb.source_count
    ref = inputs.chains[0].matrix[np.ix_(kappa, kappa)] * emb.weights[None, :]
    counts = np.bincount(big.states[:-1] * d + big.states[1:], minlength=d * d)
    counts = counts.reshape(d, d).astype(float)
    visits = counts.sum(axis=1)
    smoothed = counts + (ref > 0) / d
    est = np.where(
        (visits >= MIN_ROW_VISITS)[:, None], smoothed / smoothed.sum(axis=1, keepdims=True), ref
    )
    rho = float(np.abs(np.linalg.eigvals(np.sqrt(est * ref))).max())
    return min(max(1.0 - rho, 0.0), 1.0)


def diff_expected(actual, expected, where: str = "") -> list[str]:
    """Differences from a recorded output: integers and strings exactly, floats to FLOAT_TOL."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or actual.keys() != expected.keys():
            return [f"{where or 'output'}: keys differ"]
        return [p for k in expected for p in diff_expected(actual[k], expected[k], f"{where}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: length differs"]
        return [p for i, (a, e) in enumerate(zip(actual, expected))
                for p in diff_expected(a, e, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, float):
        return [] if abs(actual - expected) <= FLOAT_TOL else [f"{where}: {actual} != {expected}"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []
