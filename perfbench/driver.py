"""Child-side entry points of the benchmark; run with PYTHONPATH=src.

    python perfbench/driver.py cli SPANS OP -- <spikepca arguments>
        Runs ``spikepca.cli.main`` in process with the tracer installed,
        then writes the spans to SPANS. Stdout is the command's stdout.

    python perfbench/driver.py inmem CONFIG OUT
        The fit-inmem workload: library calls on in-memory arrays, with
        no CSV and no import in the timed region. CONFIG and OUT are JSON.
"""

from __future__ import annotations

import json
import sys
import time

import checks
from inputs import two_spike
from loop import closed_loop
from tracer import Tracer, layer_metrics


def run_cli(spans_path: str, op: int, argv: list) -> int:
    from spikepca import cli

    tracer = Tracer(op)
    tracer.install()
    rc = tracer.wrap(cli.main, "cli.main", "cli.main")(argv)
    sys.stdout.flush()
    tracer.dump(spans_path)
    return rc


def _components(model) -> tuple:
    """The reported components of a fit, as checks.spectrum takes them."""
    k, s = model.k, model.spectrum
    return model.eig.d[:k], s.d_hat[:k], s.lambda_hat[:k], model.identifiable, model.eig.U


def _model_dict(model) -> dict:
    return {
        "k_spikes": model.k_spikes,
        "means": model.prep.means,
        "scales": model.prep.scales,
        "U": model.eig.U,
        "shrinkage": model.shrinkage,
    }


def run_inmem(config: dict) -> dict:
    seed, seconds = config["seed"], config["seconds"]
    (pg, ng), (pc, nc), m = config["gram"], config["cov"], config["test_m"]
    t0 = time.perf_counter()
    Xg, Xt, Xc = two_spike(seed, 3, pg, ng), two_spike(seed, 4, pg, m), two_spike(seed, 5, pc, nc)
    gen_s = time.perf_counter() - t0
    ref_g, ref_c = checks.reference(Xg), checks.reference(Xc)

    from spikepca import DataMatrix
    from spikepca import model as lib

    Dg, Dc = DataMatrix(Xg), DataMatrix(Xc)
    samples = {"fit_gram_s": [], "fit_cov_s": [], "predict_s": [], "cycle_s": []}
    counts = {"attempted": 0, "failed": 0}
    problems: list = []
    first: dict = {}

    def checked(label, result, found):
        counts["attempted"] += 1
        key = result.spectrum.lambda_hat.tobytes() if label != "predict" else result.naive.tobytes()
        if first.setdefault(label, key) != key:
            found = found + ["output differs from the first call in this run"]
        if found:
            counts["failed"] += 1
            problems.extend(f"{label}: {p}" for p in found)

    def cycle(record: bool) -> float:
        t = [time.perf_counter()]
        mg = lib.fit(Dg, "center", "auto")
        t.append(time.perf_counter())
        mc = lib.fit(Dc, "center", "auto")
        t.append(time.perf_counter())
        scores = lib.predict(mg, Xt)
        t.append(time.perf_counter())
        checked("fit_gram", mg, checks.spectrum(ref_g, *_components(mg)))
        checked("fit_cov", mc, checks.spectrum(ref_c, *_components(mc)))
        checked(
            "predict",
            scores,
            checks.scores(scores.naive, scores.adjusted, scores.identifiable, _model_dict(mg), Xt),
        )
        walls = [b - a for a, b in zip(t, t[1:])]
        if record:
            for name, wall in zip(("fit_gram_s", "fit_cov_s", "predict_s"), walls):
                samples[name].append(wall)
            samples["cycle_s"].append(sum(walls))
        return sum(walls)

    cycle(record=False)  # warm-up: first-touch pages and BLAS buffers
    out = {"gen_s": gen_s, "samples": samples, "problems": problems}
    if not config["trace"]:
        closed_loop(lambda: cycle(record=True), seconds)
    else:
        passes = config["traced_passes"]
        untraced = [cycle(record=True) for _ in range(passes)]
        tracer = Tracer()
        tracer.install()
        traced = []
        for op in range(passes):
            tracer.op = op
            traced.append(cycle(record=False))
        out["spans"] = tracer.spans
        out["layers"] = layer_metrics([tracer.spans], passes)
        out["overhead_ratio"] = sum(traced) / sum(untraced)
    out.update(counts)
    return out


def main(argv: list) -> int:
    if argv[:1] == ["cli"] and len(argv) >= 4 and argv[3] == "--":
        return run_cli(argv[1], int(argv[2]), argv[4:])
    if argv[:1] == ["inmem"] and len(argv) == 3:
        with open(argv[1]) as fh:
            config = json.load(fh)
        result = run_inmem(config)
        with open(argv[2], "w") as fh:
            json.dump(result, fh)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
