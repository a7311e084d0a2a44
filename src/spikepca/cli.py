"""Command-line front end: fit | predict | rescale | jackknife | simulate.

Conventions: stdout carries data (CSV / tables), stderr carries
diagnostics; numeric output uses 17 significant digits; exit code 0 on
success, 2 for input/usage problems, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

import numpy as np

from . import simulate
from .errors import INPUT_ERRORS, DimensionError, DomainError, ParseError, SpikePcaError
from .matrix_io import DataMatrix, _csv, _fmt, _parse_csv
from .model import fit, jackknife_shrinkage, predict, read_model, write_model
from .spiked import rescale_eigenvalues

_MODE_CHOICES = {"none": "none", "center": "center", "center-scale": "center_scale"}

_ORIENTATION_CHOICES = ("rows-are-samples", "rows-are-variables")


def _load_matrix(path, orientation_flag: str, min_samples: int = 1) -> np.ndarray:
    """Parse a CSV into a variables x samples array of at least min_samples."""
    arr = _parse_csv(path)
    if orientation_flag == "rows-are-samples":
        arr = arr.T
    if arr.shape[1] < min_samples:
        raise DimensionError(
            f"{path}: need at least {min_samples} samples, got {arr.shape[1]}"
        )
    return arr


def _emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_k(value: str):
    if value == "auto":
        return "auto"
    try:
        k = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--k must be 'auto' or an integer, got {value!r}")
    if k < 1:
        raise argparse.ArgumentTypeError(f"--k must be >= 1, got {k}")
    return k


def _positive_int(value: str) -> int:
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {count}")
    # rescaling takes p and n as doubles, which hold every integer up to 2**53
    if count > 2**53:
        raise argparse.ArgumentTypeError(f"must be <= 2**53, got {count}")
    return count


def _cmd_fit(args) -> int:
    X = DataMatrix(_load_matrix(args.matrix, args.orientation, min_samples=3))
    model = fit(X, mode=_MODE_CHOICES[args.mode], k=args.k)
    if args.out:
        write_model(model, args.out)
        print(f"model written to {args.out}", file=sys.stderr)
    rows = [("component", "d", "d_hat", "lambda_hat", "spike", "shrinkage",
             "score_corr", "evec_angle")]
    rows += zip(
        range(1, model.k + 1),
        model.eig.d,
        model.spectrum.d_hat,
        model.spectrum.lambda_hat,
        model.identifiable,
        model.shrinkage,
        model.score_corr,
        model.evec_angle,
    )
    sys.stdout.write(_csv(rows))
    print(
        f"p={model.p} n={model.n} gamma={model.gamma:g} k_spikes={model.k_spikes} "
        f"tau={model.spectrum.tau:g} converged={model.spectrum.converged}",
        file=sys.stderr,
    )
    if not model.spectrum.converged:
        print("warning: rescaling did not converge", file=sys.stderr)
    if args.k != "auto" and model.k < args.k:
        print(
            f"warning: kept {model.k} of the {args.k} requested components; "
            f"the covariance has numerical rank {model.k}",
            file=sys.stderr,
        )
    return 0


def _cmd_predict(args) -> int:
    model = read_model(args.model)
    arr = _load_matrix(args.matrix, args.orientation)
    if arr.shape[0] != model.p:
        raise DimensionError(
            f"{args.matrix}: expected {model.p} variables (rows), got {arr.shape[0]}"
        )
    scores = predict(model, arr)
    columns = {
        "off": ("naive",),
        "on": ("adjusted",),
        "both": ("naive", "adjusted"),
    }[args.adjusted]
    values = [getattr(scores, column) for column in columns]
    rows = [("sample", "pc", *columns, "identifiable")]
    for j in range(scores.m):
        for v in range(scores.k):
            rows.append(
                (j + 1, v + 1, *(a[v, j] for a in values), scores.identifiable[v])
            )
    _emit(_csv(rows), args.out)
    return 0


def _cmd_rescale(args) -> int:
    arr = _parse_csv(args.eigenvalues)
    if arr.shape[0] != 1 and arr.shape[1] != 1:
        raise ParseError(
            f"{args.eigenvalues}: expected a single row or column of eigenvalues, "
            f"got shape {arr.shape}"
        )
    d = arr.ravel()
    try:
        spectrum = rescale_eigenvalues(
            d, args.p, args.n, tol=args.tol, max_iter=args.max_iter, gamma=args.gamma
        )
    except DomainError as exc:
        # every DomainError of rescale_eigenvalues rejects an argument, and
        # here each argument is the user's file or option: exit 2, not 3
        raise ValueError(str(exc)) from exc
    # checked after rescale_eigenvalues' own argument checks, so each of
    # those keeps its message; a spectrum of any other length than
    # min(p, n) misstates the trace the rescaling normalizes by
    m = min(args.p, args.n)
    if d.size != m:
        raise DimensionError(
            f"{args.eigenvalues}: expected min(p, n) = {m} eigenvalues, got {d.size}"
        )
    ratios = d / d.sum()
    rows = [
        (
            f"# k={_fmt(spectrum.k)} tau={_fmt(spectrum.tau)} "
            f"gamma={_fmt(spectrum.gamma)} iterations={_fmt(spectrum.iterations)} "
            f"converged={_fmt(spectrum.converged)}",
        ),
        ("component", "d", "ratio", "d_hat", "lambda_hat", "spike"),
    ]
    rows += zip(
        range(1, d.size + 1),
        d,
        ratios,
        spectrum.d_hat,
        spectrum.lambda_hat,
        np.arange(d.size) < spectrum.k,
    )
    _emit(_csv(rows), args.out)
    if not spectrum.converged:
        print("warning: rescaling did not converge", file=sys.stderr)
    return 0


def _cmd_jackknife(args) -> int:
    X = DataMatrix(_load_matrix(args.matrix, args.orientation, min_samples=4))
    estimate = jackknife_shrinkage(X, _MODE_CHOICES[args.mode], args.pc)
    rows = [
        ("pc", "jackknife", "plugin_shrinkage", "used", "excluded"),
        (args.pc, estimate.value, estimate.plugin, estimate.used, estimate.excluded),
    ]
    _emit(_csv(rows), args.out)
    return 0


# Arguments of the simulate commands that the study drivers do not take.
_FRONT_END_ARGS = ("command", "study", "func", "out", "scores_out")


def _cmd_simulate(args) -> int:
    # Driver options left out are absent from args, so their defaults live
    # in the drivers alone. The driver is looked up on the module at call
    # time, so a wrapper installed on spikepca.simulate sees the call.
    options = {k: v for k, v in vars(args).items() if k not in _FRONT_END_ARGS}
    result = getattr(simulate, f"run_{args.study}")(**options)
    report, scores_csv = result if args.study == "intro" else (result, None)
    _emit(report.to_csv(), args.out)
    if scores_csv is not None and args.scores_out:
        Path(args.scores_out).write_text(scores_csv)
    sys.stderr.write(report.summary())
    return 0


def _cell_arg(text: str):
    try:
        n, g = text.split(":")
        return int(n), int(g)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected N:G (e.g. 100:300), got {text!r}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikepca",
        description="Spiked-model PCA with debiased eigenvalues and "
        "bias-adjusted out-of-sample score prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_orientation(p):
        p.add_argument(
            "--orientation",
            choices=_ORIENTATION_CHOICES,
            default="rows-are-variables",
            help="what the CSV rows represent (default: variables)",
        )

    p_fit = sub.add_parser("fit", help="fit a model to a training CSV")
    p_fit.add_argument("matrix", help="training matrix CSV")
    p_fit.add_argument("--mode", choices=sorted(_MODE_CHOICES), default="center")
    p_fit.add_argument("--k", type=_parse_k, default="auto",
                       help="components to retain, or 'auto' (detected spikes)")
    p_fit.add_argument("--out", help="write the fitted model here")
    add_orientation(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_pred = sub.add_parser("predict", help="predict scores for new samples")
    p_pred.add_argument("model", help="model file written by fit")
    p_pred.add_argument("matrix", help="new-sample CSV (same variables as training)")
    p_pred.add_argument("--adjusted", choices=("on", "off", "both"), default="both")
    p_pred.add_argument("--out", help="write scores CSV here (default stdout)")
    add_orientation(p_pred)
    p_pred.set_defaults(func=_cmd_predict)

    p_res = sub.add_parser("rescale", help="rescale an externally computed spectrum")
    p_res.add_argument("eigenvalues",
                       help="CSV with all min(p, n) eigenvalues, one per line")
    p_res.add_argument("--p", type=_positive_int, required=True,
                       help="variable count")
    p_res.add_argument("--n", type=_positive_int, required=True,
                       help="sample count")
    p_res.add_argument("--gamma", type=float, default=None,
                       help="override the aspect ratio p/n")
    p_res.add_argument("--tol", type=float, default=1e-10)
    p_res.add_argument("--max-iter", type=_positive_int, default=500)
    p_res.add_argument("--out")
    p_res.set_defaults(func=_cmd_rescale)

    p_jack = sub.add_parser("jackknife", help="leave-one-out shrinkage estimate")
    p_jack.add_argument("matrix", help="training matrix CSV")
    p_jack.add_argument("--pc", type=_positive_int, required=True,
                        help="component index (1-based)")
    p_jack.add_argument("--mode", choices=sorted(_MODE_CHOICES), default="center")
    p_jack.add_argument("--out")
    add_orientation(p_jack)
    p_jack.set_defaults(func=_cmd_jackknife)

    p_sim = sub.add_parser("simulate", help="run a seeded benchmark study")
    studies = p_sim.add_subparsers(dest="study", required=True)
    sim_options = {
        "--gamma": dict(dest="gammas", type=float, action="append", metavar="GAMMA",
                        help="aspect ratio (repeatable)"),
        "--n": dict(dest="ns", type=int, action="append", metavar="N",
                    help="sample count (repeatable)"),
        "--cell": dict(dest="cells", type=_cell_arg, action="append", metavar="N:G",
                       help="(n, g) configuration (repeatable)"),
        "--p": dict(type=int, help="variable count"),
        "--replicates": dict(type=int),
        "--workers": dict(type=int, help="worker processes"),
        "--scores-out": dict(default=None, help="write the score dump here"),
    }
    for study, flags, help_text in (
        ("intro", ("--p", "--scores-out"), "stratified shrinkage demonstration"),
        ("table12", ("--gamma", "--n", "--replicates", "--workers"),
         "eigenvector/score angles and shrinkage (Tables 1-2)"),
        ("table3", ("--cell", "--p", "--replicates", "--workers"),
         "PC-regression test MSE (Table 3)"),
    ):
        p_study = studies.add_parser(
            study, help=help_text, argument_default=argparse.SUPPRESS
        )
        p_study.add_argument("--seed", type=int, required=True)
        for flag in flags:
            p_study.add_argument(flag, **sim_options[flag])
        p_study.add_argument("--out", default=None,
                             help="write report CSV here (default stdout)")
        p_study.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpikePcaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, MemoryError) as exc:
        # an allocation that fails means the input is too large
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Process entry of ``python -m spikepca`` and the spikepca script.

    Runs main(), flushes stdout and stderr, and exits with main's code,
    or with 2 when a flush fails (``error: ...`` on stderr). The exit
    skips interpreter teardown (os._exit), which would only free memory
    the process is about to give back, unless a trace or profile hook is
    set: then sys.exit lets a profiler or coverage tool write its output.
    A stream that was closed when the process started is None: there is
    nothing to flush.
    """
    code = main()
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError as exc:
            # later writes to the stream, the exit-time flush among them,
            # go nowhere instead of failing again
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
            with contextlib.suppress(OSError):
                print(f"error: {exc}", file=sys.stderr)
            code = 2
    if sys.gettrace() is None and sys.getprofile() is None:
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
