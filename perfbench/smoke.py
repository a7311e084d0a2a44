"""Smoke test of the benchmark itself, at tiny shapes (a few seconds).

    python3 perfbench/smoke.py

Runs every operation of every workload once, untraced and traced, and
requires that none fails and that each run reports exactly the metrics
BENCHMARK.json lists. Then feeds a corrupted score table, a wrong spike
count and a spike estimate biased by 30% through the checks and
requires each to be caught, so the checks are not vacuous.
"""

from __future__ import annotations

import sys

import checks
import run
from inputs import two_spike, write_csv

TINY = run.Sizes(
    cli_train=(300, 100),
    cli_test_n=40,
    gram=(300, 100),
    cov=(100, 400),
    test_m=20,
    wide=(20, 40, 4),
    square=(1, 40, 20),
    traced_passes=1,
)
SEED = 0


def check_workloads() -> None:
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result = run.run(workload, SEED, 0.0, trace, TINY)
            label = f"{workload} trace={int(trace)}"
            assert result["attempted"] > 0, label
            assert result["failed"] == 0, (label, result["problems"])
            expected = {m["name"] for m in run.SPEC["per_layer" if trace else "end_to_end"]}
            assert set(result["metrics"]) == expected, (label, set(result["metrics"]) ^ expected)
            print(f"ok   {label}: {result['attempted']} ops")


def edit_cell(text: str, row: int, column: str, edit) -> str:
    """``text`` with one cell of a CSV table replaced by edit(cell)."""
    lines = text.splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row].split(",")
    cells[col] = edit(cells[col])
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def check_checks_catch_bad_outputs() -> None:
    """A corrupted score, a wrong spike count and a biased spike estimate
    must each count as a failure."""
    (p, n), m = TINY.cli_train, TINY.cli_test_n
    b = run.Bench("smoke", SEED, 0.0, False, TINY)
    b.tmp.mkdir(parents=True, exist_ok=True)
    try:
        train, test = b.tmp / "train.csv", b.tmp / "test.csv"
        X_train = two_spike(SEED, 1, p, n)
        write_csv(X_train, train)
        X_test = two_spike(SEED, 2, p, m)
        write_csv(X_test, test)
        model = b.tmp / "model.spca"
        _, fit_out = b.op("fit", ["-m", "spikepca", "fit", train, "--out", model])
        _, pred_out = b.op("predict", ["-m", "spikepca", "predict", model, test])
        assert b.failed == 0, b.problems
        fit_text, pred_text = fit_out.decode(), pred_out.decode()
        parsed, ref = checks.read_model(model), checks.reference(X_train)
        assert not checks.fit_stdout(fit_text, ref, parsed)
        assert not checks.predict_stdout(pred_text, parsed, X_test)

        missed = edit_cell(fit_text, 2, "spike", lambda _: "false")
        assert checks.fit_stdout(missed, ref, parsed), "missed spike not caught"
        biased = edit_cell(fit_text, 1, "lambda_hat", lambda c: repr(float(c) * 1.3))
        assert checks.fit_stdout(biased, ref, parsed), "biased spike not caught"
        bad = edit_cell(pred_text, 1, "naive", lambda c: repr(float(c) * (1 + 1e-6)))
        assert checks.predict_stdout(bad, parsed, X_test), "bad score not caught"
        print("ok   corrupted score, wrong spike count and biased spike are caught")
    finally:
        run.shutil.rmtree(b.tmp, ignore_errors=True)


def main() -> int:
    if not (run.ROOT / "src" / "spikepca" / "__init__.py").is_file():
        print("error: run from a spikepca checkout", file=sys.stderr)
        return 2
    check_workloads()
    check_checks_catch_bad_outputs()
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
