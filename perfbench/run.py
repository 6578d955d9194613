#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `markov-id` CLI.

    python3 perfbench/run.py --workload test-wide --seed 1 --seconds 50 --trace 0

Each op is one `markov-id` invocation (`test`, `risk` or `scan`) run as a
fresh child process, in a closed loop: the next op starts only after the
previous one has exited. Between ops a child that does no work
(`--version`) times interpreter start plus package import. With
`--trace 1` every op also runs in-process through `markov_id.cli.main`,
with the layers wrapped from outside (see layertrace.py); that output must be
byte-identical to the child's. Every op's output is checked (checks.py).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it hold the
full report (environment, workload, percentiles, layer shares, failures).
`--workload all` runs every workload untraced and traced.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_THREADS)  # before numpy loads, for the in-process runs and the oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
GOLDEN_PATH = os.path.join(HERE, "golden.json")

DEFAULT_SEED = 1
GOLDEN_OPS = 2  # outputs of the first ops at DEFAULT_SEED are recorded in golden.json
MIN_OPS = 3
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10
TAIL_LADDER = (99, 95, 90, 75)

END_TO_END = {"op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# Functions whose inclusive time (`.s`) and call count (`.calls`) are reported.
LAYER_FUNCTIONS = (
    "markov_core.EdgeSet.from_pairs",
    "markov_core.EdgeSet.mask",
    "markov_core.TransitionMatrix.from_dense",
    "markov_core.check_reference_class",
    "markov_core.stationary_distribution",
    "markov_core.rationalize",
    "markov_core.load_matrix",
    "markov_core.spectral_radius",
    "embedding.embedded_edge_set",
    "embedding.embed_matrix",
    "embedding.symmetry_defect",
    "embedding.build_symmetrizer",
    "contrast.contrast",
    "sampling.simulate",
    "sampling.load_trajectory",
    "sampling.embed_trajectory",
    "testing.plugin_symmetric_tester",
    "testing.reduced_identity_test",
    "testing.estimate_risk",
)
LAYER_COUNTERS = {
    "embedding.embed_matrix.bytes": "bytes",
    "sampling.simulate.steps": "count",
    "sampling.embed_trajectory.steps": "count",
    "testing.trials": "count",
    "testing.rejections": "count",
}


def _per_layer_units() -> dict[str, str]:
    from layertrace import LAYERS

    units = {}
    for fn in LAYER_FUNCTIONS:
        units[f"{fn}.s"] = "s"
        units[f"{fn}.calls"] = "count"
    units.update(LAYER_COUNTERS)
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
    units.update({
        "trace.op_s": "s",
        "trace.overhead_s": "s",
        "trace.coverage": "ratio",
        "trace.errors": "count",
        "fail_rate": "ratio",
    })
    return units


# --- child processes --------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MARKOV_ID_THREADS", None)  # it would cap --workers
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = SRC
    return env


class Launcher:
    """The small process that starts every child and times it (see launcher.py)."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py"), str(CHILD_TIMEOUT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=workdir,
            text=True,
        )

    def run(self, args: list[str]) -> dict:
        """Run `python -m markov_id.cli ARGS`: wall time from start to exit, exit
        code, stdout, and the peak RSS of it and the children it reaped."""
        out_path = os.path.join(self.workdir, "child.out")
        request = {
            "argv": [sys.executable, "-m", "markov_id.cli", *args],
            "cwd": self.workdir,
            "stdout": out_path,
            "stderr": os.path.join(self.workdir, "child.err"),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher exited")
        reply = json.loads(reply)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        return {
            "wall_s": reply["wall_s"],
            "rss_mb": reply["rss_kb"] / 1024.0,
            "returncode": reply["returncode"],
            "stdout": stdout,
        }

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_traced(args: list[str]) -> dict:
    """Run the same op in this process through the wrapped `markov_id.cli.main`.
    An exception escaping `main` is recorded as the op's exit code, so the
    op fails its checks and the run goes on."""
    import markov_id.cli as cli

    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(args)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = traceback.format_exc()
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "returncode": code, "stdout": out.getvalue().encode()}


def single_worker(args: list[str]) -> list[str]:
    out = list(args)
    if "--workers" in out:
        out[out.index("--workers") + 1] = "1"
    return out


# --- statistics -------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, int, int]:
    """Highest percentile on TAIL_LADDER with at least TAIL_BEYOND samples
    strictly above it: (value, percentile, samples beyond). Below
    4 * TAIL_BEYOND samples none qualifies, and the median is reported
    under percentile 50."""
    import numpy as np

    for pct in TAIL_LADDER:
        value = float(np.percentile(values, pct))
        beyond = sum(v > value for v in values)
        if beyond >= TAIL_BEYOND:
            return value, pct, beyond
    value = statistics.median(values)
    return value, 50, sum(v > value for v in values)


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "pinned_threads": PINNED_THREADS,
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git; None outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            return next((ln.split()[0] for ln in fh if ln.rstrip().endswith(" " + ref)), None)
    except OSError:
        return None


# --- one workload -----------------------------------------------------------

def check_op(workload, inputs, op: dict, expected: dict | None) -> list[str]:
    from checks import CHECKS, diff_expected, oracle_contrast, ORACLE_TOL, parse_output

    obj, problems = parse_output(op["returncode"], op["stdout"])
    if obj is None:
        return problems
    problems += CHECKS[workload.command](obj, workload, inputs, op["seed"])
    if workload.command == "test" and not problems:
        oracle = oracle_contrast(inputs, op["index"] % len(inputs.trajs), op["seed"])
        if abs(obj["contrast_estimate"] - oracle) > ORACLE_TOL:
            problems.append(f"contrast_estimate {obj['contrast_estimate']} != oracle {oracle}")
    if expected is not None:
        problems += diff_expected(obj, expected)
    return problems


def run_workload(workload, seed: int, seconds: float, traced: bool,
                 expected: list | None = None) -> tuple[dict, dict]:
    """Set up, run the closed loop for `seconds`, check every op.

    Returns (result line, full report). `expected` holds the recorded outputs
    of the first ops, compared after the loop.
    """
    from workloads import build_inputs

    workdir = os.path.join(WORK, f"{workload.name}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = build_inputs(workload, seed, workdir)
        with Launcher(workdir) as launcher:
            ops, probes, spans, tracer = closed_loop(launcher, workload, inputs, seed, seconds, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)

    failures = {}
    for op in ops:
        want = expected[op["index"]] if expected and op["index"] < len(expected) else None
        problems = check_op(workload, inputs, op, want)
        if traced and (op["traced"]["returncode"], op["traced"]["stdout"]) != (
            op["returncode"], op["stdout"]
        ):
            problems.append(f"traced output (exit {op['traced']['returncode']}) differs from the"
                            " untraced child's")
        if problems:
            failures[op["index"]] = problems
    report = {
        "environment": environment(),
        "workload": {"name": workload.name, "seed": seed, "epsilon": inputs.epsilon,
                     **workload.describe()},
        "ops": len(ops),
        "failures": failures,
        "fail_rate": len(failures) / len(ops),
        "first_outputs": [] if failures else [json.loads(op["stdout"]) for op in ops[:GOLDEN_OPS]],
    }
    if traced:
        metrics, report["layers"] = layer_metrics(ops, spans, tracer, report["fail_rate"])
        units = _per_layer_units()
    else:
        walls = [op["wall_s"] for op in ops]
        tail_s, pct, beyond = tail(walls)
        report["op_tail"] = {"percentile": pct, "samples": len(walls), "beyond": beyond}
        metrics = {
            "op_p50_s": statistics.median(walls),
            "op_tail_s": tail_s,
            "peak_rss_mb": max(op["rss_mb"] for op in ops),
            "setup_s": statistics.median(probes),
        }
        units = END_TO_END
    write_out(workload, seed, traced, report, ops, spans)
    line = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return line, report


def closed_loop(launcher, workload, inputs, seed: int, seconds: float, traced: bool):
    """Run ops back to back while the next one is expected to end within
    `seconds`, and at least MIN_OPS of them. Untraced, a `--version` child
    follows each op; traced, the op runs again in-process."""
    import layertrace as tr
    from workloads import op_argv, op_seed

    launcher.run(["--version"])  # warm the bytecode cache; not timed
    tracer = None
    if traced:
        tracer = tr.Tracer()
        tracer.install()
    ops, probes, spans = [], [], []
    start = time.perf_counter()
    try:
        while True:
            index = len(ops)
            op = {"index": index, "seed": op_seed(seed, index)}
            op["args"] = op_argv(workload, inputs, index, op["seed"])
            op.update(launcher.run(op["args"]))
            if tracer is not None:
                tracer.op = index
                op["traced"] = run_traced(single_worker(op["args"]))
                tracer.op = None
                spans.append(tracer.spans)
                tracer.spans = []
            else:
                probes.append(launcher.run(["--version"])["wall_s"])
            ops.append(op)
            elapsed = time.perf_counter() - start
            if len(ops) >= MIN_OPS and elapsed * (len(ops) + 1) / len(ops) > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    return ops, probes, spans, tracer


def layer_metrics(ops, spans, tracer, fail_rate: float) -> tuple[dict, dict]:
    """Per-layer metrics, each the median over traced ops, plus the layer shares."""
    import layertrace as tr

    profiles = [tr.op_profile(s, op["traced"]["wall_s"]) for op, s in zip(ops, spans)]
    cost = tr.span_cost()

    def median(fn):
        return statistics.median(fn(p) for p in profiles)

    metrics = {}
    for fn in LAYER_FUNCTIONS:
        metrics[f"{fn}.s"] = median(lambda p: p["inclusive_s"].get(fn, 0.0))
        metrics[f"{fn}.calls"] = median(lambda p: p["calls"].get(fn, 0))
    for name in LAYER_COUNTERS:
        metrics[name] = median(lambda p: p["counters"].get(name, 0))
    for layer in tr.LAYERS:
        metrics[f"{layer}.self_s"] = median(lambda p: p["self_s"][layer])
        metrics[f"{layer}.share"] = median(lambda p: p["self_s"][layer] / p["wall_s"])
    metrics["trace.op_s"] = median(lambda p: p["wall_s"])
    metrics["trace.overhead_s"] = median(lambda p: p["spans"] * cost)
    metrics["trace.coverage"] = median(lambda p: p["coverage"])
    metrics["trace.errors"] = tracer.errors
    metrics["fail_rate"] = fail_rate
    layers = {
        "shares": {layer: metrics[f"{layer}.share"] for layer in tr.LAYERS},
        "span_cost_s": cost,
        "coverage_min": min(p["coverage"] for p in profiles),
        "functions_s": {
            name: median(lambda p: p["inclusive_s"].get(name, 0.0))
            for name in sorted({n for p in profiles for n in p["inclusive_s"]})
        },
    }
    return metrics, layers


def write_out(workload, seed, traced, report, ops, spans) -> None:
    """Full results, with every op's timings and (traced) every span, under .perfbench_out/."""
    os.makedirs(OUT, exist_ok=True)
    detail = dict(report)
    detail["op_runs"] = [
        {"index": op["index"], "seed": op["seed"], "wall_s": op["wall_s"], "rss_mb": op["rss_mb"],
         "returncode": op["returncode"], "traced_wall_s": op.get("traced", {}).get("wall_s")}
        for op in ops
    ]
    if traced:
        detail["spans"] = [
            [s.name, s.start, s.end, s.parent, s.op, s.counters] for op_spans in spans for s in op_spans
        ]
    path = os.path.join(OUT, f"{workload.name}-seed{seed}-trace{int(traced)}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh)


# --- command line -----------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write this run's first outputs to golden.json (default seed only)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "markov_id", "cli.py")):
        print(f"error: no markov_id sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload == "all":
        names, modes = list(WORKLOADS), (False, True)
    elif args.workload in WORKLOADS:
        names, modes = [args.workload], (bool(args.trace),)
    else:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)} or all")
    if args.record and args.seed != DEFAULT_SEED:
        parser.error(f"--record needs the default seed {DEFAULT_SEED}")

    golden = {}
    if os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)
    lines = []
    for name in names:
        for traced in modes:
            expected = None
            if args.seed == DEFAULT_SEED and not args.record:
                expected = golden.get(name)
            line, report = run_workload(WORKLOADS[name], args.seed, args.seconds, traced, expected)
            print(json.dumps(report, indent=1, sort_keys=True))
            lines.append((name, line))
            if args.record and not traced:
                if not line["correct"]:
                    print(f"error: {name} failed its checks; nothing recorded", file=sys.stderr)
                    return 1
                golden[name] = report["first_outputs"]
    if args.record:
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if len(lines) == 1:
        print(json.dumps(lines[0][1]))
    else:
        for name, line in lines:
            print(json.dumps({"workload": name, **line}))
        print(json.dumps({
            "correct": all(line["correct"] for _, line in lines),
            "attempted": sum(line["attempted"] for _, line in lines),
            "failed": sum(line["failed"] for _, line in lines),
            "metrics": {f"{name}.{m}": v for name, line in lines for m, v in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
