"""spikepca benchmark: three seeded, closed-loop workloads run against the
working tree's ``src/``.

    python3 perfbench/run.py --workload {cli,fit-inmem,table12} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere inside a checkout that has ``src/spikepca``. Every
operation runs in a child interpreter with explicit thread settings,
one at a time; each starts after the previous one ends. With
``--trace 0`` the end-to-end metrics are measured: fresh-interpreter
imports for a fifth of --seconds, then the workload's ops for the rest.
With ``--trace 1`` the same operations run once untraced and once
through ``perfbench/driver.py`` with timing wrappers installed, and the
per-layer metrics are derived from the spans. Human-readable lines come
first; the last line of stdout is the JSON result. Results and spans are
written under ``perfbench/work/results``.

Workloads (why each was chosen):
  cli        the user path, fit -> predict -> jackknife on 5000 x 200 CSVs.
             CSV parsing and interpreter start dominate; eigen work is <2%.
  fit-inmem  fit on a p > n (Gram path) and a p < n (covariance path)
             matrix and predict, in process after warm-up: eigen dominates.
  table12    the two-spike study through the CLI at a wide cell (RNG-bound)
             and a square cell (fit-bound), two workers, BLAS at 1 thread.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import checks
from inputs import cached_csv
from loop import closed_loop
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
CHILD_TIMEOUT_S = 150.0
# Share of --seconds spent on fresh-interpreter imports (setup_s).
SETUP_SHARE = 0.2
IMPORT = ["-c", "import spikepca"]
NPROC = len(os.sched_getaffinity(0))
# Worker threads x BLAS threads never exceeds NPROC.
BLAS_THREADS = min(2, NPROC)
SIM_WORKERS = min(2, NPROC)
# Metric names and units; each run reports exactly the names listed there.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Input sizes; the smoke test substitutes tiny ones."""

    cli_train: tuple = (5000, 200)
    cli_test_n: int = 200
    gram: tuple = (20000, 1000)
    cov: tuple = (1000, 4000)
    test_m: int = 200
    wide: tuple = (100, 200, 12)  # gamma, n, replicates
    square: tuple = (1, 100, 600)
    traced_passes: int = 2


def median_and_tail(values: list) -> dict:
    """Median, sample count, and the highest tail percentile that has at
    least ten samples beyond it (none for fewer than 100 samples)."""
    out = {"median": statistics.median(values), "samples": len(values)}
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = statistics.quantiles(values, n=100)[q - 1]
            break
    return out


class Bench:
    """One benchmark run: children, op accounting and samples."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.sizes = sizes
        self.tmp = WORK / f"run-{workload}-{seed}-{int(trace)}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.peak_rss_mb = 0.0
        self.samples: dict = {}
        self.first_stdout: dict = {}
        self.stdout_bytes = 0
        self.notes: dict = {}

    def env(self, blas: int, workers: int) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(blas)
        env["SPCA_THREADS"] = str(workers)
        env["PYTHONHASHSEED"] = "0"
        return env

    def child(self, args: list, blas: int = BLAS_THREADS, workers: int = 1):
        """Run one child interpreter; return (exit code, wall s, stdout, stderr)."""
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *map(str, args)],
                stdout=out,
                stderr=err,
                stdin=subprocess.DEVNULL,
                env=self.env(blas, workers),
                cwd=ROOT,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return proc.returncode, wall, out_path.read_bytes(), err_path.read_text(errors="replace")

    def op(self, label: str, args: list, check=None, **kw):
        """Run one counted operation: a non-zero exit, a failed check or
        stdout that differs from this label's first run counts as failed."""
        self.attempted += 1
        rc, wall, stdout, stderr = self.child(args, **kw)
        if rc != 0:
            found = [f"exit code {rc}: {stderr.strip()[-300:]}"]
        else:
            found = list(check(stdout.decode())) if check else []
            if self.first_stdout.setdefault(label, stdout) != stdout:
                found.append("stdout differs from the first run of this command")
        self.count(label, found)
        return wall, stdout

    def count(self, label: str, found: list) -> None:
        if found:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in found)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def setup_s(self) -> float:
        """Fresh interpreters running ``import spikepca``, in a closed loop
        for SETUP_SHARE of --seconds; the first one, which may write
        bytecode caches, is not counted. Returns the seconds left for the
        workload's ops."""
        self.op("import", IMPORT)
        closed_loop(lambda: self.sample("setup_s", self.op("import", IMPORT)[0]),
                    SETUP_SHARE * self.seconds)
        return (1.0 - SETUP_SHARE) * self.seconds

    def import_layers(self) -> dict:
        """``python -X importtime``: spikepca's cumulative import time, the
        cumulative time of top-level scipy imports, and the module count."""
        code = "import sys; n = len(sys.modules); import spikepca; print(len(sys.modules) - n)"
        runs = []
        for _ in range(3):
            self.attempted += 1
            rc, _, stdout, stderr = self.child(["-X", "importtime", "-c", code])
            if rc != 0:
                self.count("importtime", [f"exit code {rc}"])
                continue
            runs.append((*importtime(stderr), int(stdout)))
        if not runs:
            return {"import.total_s": 0.0, "import.scipy_s": 0.0, "import.modules": 0}
        return {
            "import.total_s": statistics.median(r[0] for r in runs),
            "import.scipy_s": statistics.median(r[1] for r in runs),
            "import.modules": runs[0][2],
        }


def importtime(stderr: str) -> tuple:
    """(spikepca cumulative s, sum of cumulative s of outermost scipy imports)."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, int(cumulative), name.strip()))
    total = next((c for _, c, n in entries if n == "spikepca"), 0)
    scipy = 0
    # Lines are in post-order (children before their parent); walk them in
    # reverse so each parent comes first and skip scipy modules nested in one.
    stack: list = []
    for depth, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not any(s for _, s in stack):
            scipy += cumulative
        stack.append((depth, is_scipy))
    return total / 1e6, scipy / 1e6


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def cli_workload(b: Bench) -> dict:
    (p, n), m = b.sizes.cli_train, b.sizes.cli_test_n
    cache = WORK / "inputs"
    train, X_train, gen1 = cached_csv(cache, "train", b.seed, 1, p, n)
    test, X_test, gen2 = cached_csv(cache, "test", b.seed, 2, p, m)
    b.notes["input_gen_s"] = gen1 + gen2
    ref = checks.reference(X_train)
    model = b.tmp / "model.spca"
    ops = (
        ("cli_fit_s", ["fit", train, "--mode", "center", "--k", "auto", "--out", model],
         lambda out: checks.fit_stdout(out, ref, checks.read_model(model))),
        ("cli_predict_s", ["predict", model, test, "--adjusted", "both"],
         lambda out: checks.predict_stdout(out, checks.read_model(model), X_test)),
        ("cli_jackknife_s", ["jackknife", train, "--pc", "1", "--mode", "center"],
         lambda out: checks.jackknife_stdout(out, n)),
    )
    if not b.trace:
        budget = b.setup_s()

        def one_cycle():
            total = 0.0
            for name, argv, check in ops:
                wall, _ = b.op(name, ["-m", "spikepca", *argv], check)
                b.sample(name, wall)
                total += wall
            b.sample("cycle_s", total)

        closed_loop(one_cycle, budget)
        return {}
    layers, _ = traced_cli_ops(b, [(*op, BLAS_THREADS, 1) for op in ops])
    return layers


def traced_cli_ops(b: Bench, ops: list):
    """Each op untraced, then traced in process; stdout must match.

    Returns the per-layer metrics and the untraced wall time of the ops.
    """
    untraced = traced = 0.0
    processes = []
    for op_id, (name, argv, check, blas, workers) in enumerate(ops):
        wall, _ = b.op(name, ["-m", "spikepca", *argv], check, blas=blas, workers=workers)
        untraced += wall
        spans = b.tmp / f"spans-{op_id}.json"
        wall, stdout = b.op(
            name, [HERE / "driver.py", "cli", spans, op_id, "--", *argv], check,
            blas=blas, workers=workers,
        )
        traced += wall
        b.stdout_bytes += len(stdout)
        if spans.exists():
            processes.append(json.loads(spans.read_text()))
    layers = layer_metrics(processes, passes=1)
    layers["trace.overhead_ratio"] = traced / untraced
    b.notes["spans"] = processes
    return layers, untraced


def inmem_workload(b: Bench) -> dict:
    budget = b.seconds if b.trace else b.setup_s()
    config = {
        "seed": b.seed,
        "seconds": budget,
        "trace": b.trace,
        "gram": b.sizes.gram,
        "cov": b.sizes.cov,
        "test_m": b.sizes.test_m,
        "traced_passes": b.sizes.traced_passes,
    }
    config_path, out_path = b.tmp / "inmem.json", b.tmp / "inmem-out.json"
    config_path.write_text(json.dumps(config))
    rc, _, _, stderr = b.child([HERE / "driver.py", "inmem", config_path, out_path])
    if rc != 0 or not out_path.exists():
        b.attempted += 1
        b.count("fit-inmem", [f"exit code {rc}: {stderr.strip()[-300:]}"])
        return {}
    result = json.loads(out_path.read_text())
    b.attempted += result["attempted"]
    b.failed += result["failed"]
    b.problems.extend(result["problems"])
    b.notes["input_gen_s"] = result["gen_s"]
    for name, values in result["samples"].items():
        b.samples.setdefault(name, []).extend(values)
    if not b.trace:
        return {}
    b.notes["spans"] = [result["spans"]]
    return {**result["layers"], "trace.overhead_ratio": result["overhead_ratio"]}


def table12_workload(b: Bench) -> dict:
    cells = []
    for label, (gamma, n, reps) in (("sim_wide", b.sizes.wide), ("sim_square", b.sizes.square)):
        argv = ["simulate", "table12", "--seed", b.seed, "--gamma", gamma, "--n", n,
                "--replicates", reps]
        cells.append((label, argv, reps, lambda out, reps=reps: checks.table12_report(out, reps)))
    if not b.trace:
        budget = b.setup_s()

        def one_cycle():
            total = 0.0
            for label, argv, reps, check in cells:
                wall, _ = b.op(label, ["-m", "spikepca", *argv, "--workers", SIM_WORKERS],
                               check, blas=1, workers=SIM_WORKERS)
                b.sample(f"{label}_reps_per_s", reps / wall)
                total += wall
            b.sample("cycle_s", total)

        closed_loop(one_cycle, budget)
        return {}
    # The report at SIM_WORKERS workers must equal the 1-worker report (same
    # op label), which the traced pass runs untraced and traced.
    parallel = 0.0
    for label, argv, _, check in cells:
        wall, _ = b.op(label, ["-m", "spikepca", *argv, "--workers", SIM_WORKERS],
                       check, blas=1, workers=SIM_WORKERS)
        parallel += wall
    layers, serial = traced_cli_ops(
        b, [(label, [*argv, "--workers", 1], check, 1, 1) for label, argv, _, check in cells]
    )
    layers["simulate.worker_efficiency"] = serial / (SIM_WORKERS * parallel)
    return layers


WORKLOADS = {"cli": cli_workload, "fit-inmem": inmem_workload, "table12": table12_workload}


def environment() -> dict:
    """What the numbers depend on, recorded beside them."""
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "sim_workers": SIM_WORKERS,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> dict:
    """Run one workload and return the result (metrics, samples, env)."""
    b = Bench(workload, seed, seconds, trace, sizes)
    b.tmp.mkdir(parents=True, exist_ok=True)
    try:
        layers = WORKLOADS[workload](b)
        if trace:
            layers = {
                "cli.stdout_bytes": b.stdout_bytes,
                "simulate.worker_efficiency": 0.0,
                **layers,
                **b.import_layers(),
            }
    finally:
        shutil.rmtree(b.tmp, ignore_errors=True)
    if trace:
        values = layers
    else:
        b.samples["peak_rss_mb"] = [b.peak_rss_mb]
        values = {
            m["name"]: statistics.median(b.samples[m["name"]])
            for m in SPEC["end_to_end"]
            if b.samples.get(m["name"])
        }
    metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in sorted(values.items())}
    ops = {
        name: {**median_and_tail(v), "unit": "replicates/s" if name.endswith("reps_per_s") else "s"}
        for name, v in b.samples.items()
        if name not in UNITS and not trace
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "metrics": metrics,
        "ops": ops,
        "samples": b.samples,
        "attempted": b.attempted,
        "failed": b.failed,
        "error_rate": b.failed / b.attempted if b.attempted else 1.0,
        "problems": b.problems,
        "notes": {k: v for k, v in b.notes.items() if k != "spans"},
        "env": environment(),
        "spans": b.notes.get("spans"),
    }


def report(result: dict) -> None:
    """Human-readable lines, then the result file, then the JSON line."""
    w = result["workload"]
    print(f"# {w} seed={result['seed']} trace={int(result['trace'])} env={json.dumps(result['env'])}")
    for name, m in result["metrics"].items():
        print(f"{w:10s} {name:32s} {m['value']:.6g} {m['unit']}")
    for name, o in result["ops"].items():
        tail = "".join(f" {k}={o[k]:.6g}" for k in ("p90", "p99") if k in o)
        print(f"{w:10s} {name:32s} {o['median']:.6g} {o['unit']} (median of {o['samples']}{tail})")
    print(f"{w:10s} {'error_rate':32s} {result['error_rate']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops failed)")
    print(f"# notes: {json.dumps(result['notes'])}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{w}-seed{result['seed']}-trace{int(result['trace'])}"
    spans = result.pop("spans")
    if spans is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans))
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "spikepca" / "__init__.py").is_file():
        print(f"error: no src/spikepca under {ROOT}; run from a spikepca checkout",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if not args.trace and len(result["metrics"]) < len(SPEC["end_to_end"]):
        print(f"error: {args.workload} measured nothing: {result['problems']}", file=sys.stderr)
        return 1
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
