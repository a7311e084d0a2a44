"""Command-line interface: subcommands, exit codes, and output contracts."""

import functools
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spikepca import DataMatrix, gen_two_spike, write_matrix
from spikepca._workers import _openblas_threads
import spikepca.cli
import spikepca.model
import spikepca.simulate
from spikepca.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def two_spike_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "two_spike.csv"
    write_matrix(gen_two_spike(200, 1.0, seed=7), path)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFit:
    def test_two_spike_summary_and_model(self, capsys, two_spike_csv, tmp_path):
        model_path = tmp_path / "model.spca"
        code, out, err = run_cli(
            capsys, "fit", str(two_spike_csv), "--mode", "none",
            "--k", "auto", "--out", str(model_path),
        )
        assert code == 0
        assert model_path.exists()
        lines = out.strip().splitlines()
        assert lines[0].startswith("component,")
        header = lines[0].split(",")
        row1 = dict(zip(header, lines[1].split(",")))
        assert row1["spike"] == "true"
        assert abs(float(row1["shrinkage"]) - 0.88) < 0.05

    def test_k_zero_is_usage_error(self, capsys, two_spike_csv):
        code, _, err = run_cli(capsys, "fit", str(two_spike_csv), "--k", "0")
        assert code == 2

    def test_k_not_an_integer_is_usage_error(self, capsys, two_spike_csv):
        code, out, err = run_cli(capsys, "fit", str(two_spike_csv), "--k", "abc")
        assert code == 2
        assert out == ""
        assert "--k must be 'auto' or an integer, got 'abc'" in err

    def test_two_samples_exits_2(self, capsys, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("1,2\n3,5\n4,1\n")
        code, out, err = run_cli(capsys, "fit", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: need at least 3 samples, got 2\n"

    def test_constant_row_center_scale_exits_3(self, capsys, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("1,2,3,4\n5,5,5,5\n")
        code, _, err = run_cli(
            capsys, "fit", str(path), "--mode", "center-scale"
        )
        assert code == 3
        assert "variance" in err

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(3, 300),
           value=st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False))
    def test_any_constant_row_center_scale_exits_3(self, capsys, tmp_path, n, value):
        # flagged whether or not the row's computed mean rounds back to it
        path = tmp_path / "const.csv"
        values = np.random.default_rng(n).standard_normal((3, n))
        values[1] = value
        write_matrix(DataMatrix(values), path)
        code, out, err = run_cli(capsys, "fit", str(path), "--mode", "center-scale")
        assert (code, out) == (3, "")
        assert err == "error: variable 1 has zero variance; cannot center_scale\n"

    def test_non_utf8_matrix_names_the_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("1,2,3\n4,5,6\ncaf\u00e9,8,9\n".encode("latin-1"))
        code, out, err = run_cli(capsys, "fit", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_center_scale_of_extreme_entries_fits(self, capsys, tmp_path, scale):
        # the squares of these entries overflow or underflow a double
        path = tmp_path / "extreme.csv"
        values = np.random.default_rng(2).standard_normal((6, 5)) * scale
        write_matrix(DataMatrix(values), path)
        code, out, err = run_cli(
            capsys, "fit", str(path), "--mode", "center-scale", "--k", "1"
        )
        assert code == 0
        assert out.startswith("component,")
        assert "error" not in err

    def test_unreadable_matrix_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "fit", str(tmp_path / "missing.csv"))
        assert code == 2

    @pytest.mark.parametrize("header", [False, True])
    def test_byte_order_mark_input_fits(self, capsys, two_spike_csv, tmp_path, header):
        # the same matrix saved with a UTF-8 byte-order mark fits alike
        text = two_spike_csv.read_text()
        if header:
            text = ",".join(f"s{j}" for j in range(200)) + "\n" + text
        marked = tmp_path / "marked.csv"
        marked.write_text("\ufeff" + text, encoding="utf-8")
        code, out, _ = run_cli(capsys, "fit", str(marked), "--mode", "none")
        assert code == 0
        code, expected, _ = run_cli(capsys, "fit", str(two_spike_csv), "--mode", "none")
        assert code == 0
        assert out == expected

    def test_warns_when_rescaling_does_not_converge(
        self, capsys, monkeypatch, two_spike_csv
    ):
        argv = ("fit", str(two_spike_csv), "--mode", "none")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert "warning" not in err
        monkeypatch.setattr(
            spikepca.model,
            "rescale_eigenvalues",
            functools.partial(spikepca.model.rescale_eigenvalues, max_iter=1),
        )
        code, stuck_out, stuck_err = run_cli(capsys, *argv)
        assert code == 0
        assert "converged=False" in stuck_err
        assert stuck_err.splitlines()[-1] == "warning: rescaling did not converge"
        assert "warning" not in stuck_out
        assert stuck_out.splitlines()[0] == out.splitlines()[0]

    def test_overflowing_covariance_exits_3_without_warning(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        values = np.random.default_rng(0).standard_normal((6, 5)) * 1e200
        write_matrix(DataMatrix(values), path)
        code, out, err = run_cli(capsys, "fit", str(path), "--mode", "none", "--k", "1")
        assert (code, out) == (3, "")
        assert err == "error: the sample covariance overflows a double\n"

    def test_warns_when_the_rank_keeps_fewer_than_k(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "rank2.csv"
        write_matrix(DataMatrix(rng.standard_normal((50, 2)) @ rng.standard_normal((2, 12))), path)
        code, out, err = run_cli(capsys, "fit", str(path), "--mode", "none", "--k", "4")
        assert code == 0
        assert err.splitlines()[-1] == (
            "warning: kept 2 of the 4 requested components; "
            "the covariance has numerical rank 2"
        )
        # the rows are those of --k 2, which keeps every component asked for
        code, kept, kept_err = run_cli(capsys, "fit", str(path), "--mode", "none", "--k", "2")
        assert code == 0 and out == kept
        assert "kept" not in kept_err


class TestPredict:
    @pytest.fixture()
    def model_path(self, capsys, two_spike_csv, tmp_path):
        path = tmp_path / "model.spca"
        code, _, _ = run_cli(
            capsys, "fit", str(two_spike_csv), "--mode", "none",
            "--k", "2", "--out", str(path),
        )
        assert code == 0
        return path

    def test_training_file_round_trip(self, capsys, two_spike_csv, model_path):
        code, fit_out, _ = run_cli(
            capsys, "fit", str(two_spike_csv), "--mode", "none", "--k", "2"
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "predict", str(model_path), str(two_spike_csv),
            "--adjusted", "off",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "sample,pc,naive,identifiable"
        # naive score of sample 1 / pc 1 equals the fit-time score
        X = gen_two_spike(200, 1.0, seed=7)
        from spikepca import fit as fit_model, pc_scores

        model = fit_model(X, mode="none", k=2)
        scores = pc_scores(X, model.eig)
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(scores[0, 0], rel=1e-12)

    def test_both_mode_emits_two_score_columns(self, capsys, two_spike_csv, model_path):
        code, out, _ = run_cli(
            capsys, "predict", str(model_path), str(two_spike_csv),
            "--adjusted", "both",
        )
        assert code == 0
        assert out.splitlines()[0] == "sample,pc,naive,adjusted,identifiable"

    def test_non_utf8_model_names_the_file(self, capsys, two_spike_csv, model_path):
        model_path.write_bytes(model_path.read_bytes() + b"\xe9\n")
        code, out, err = run_cli(capsys, "predict", str(model_path), str(two_spike_csv))
        assert (code, out) == (2, "")
        assert err.startswith(
            f"error: cannot read model from {str(model_path)!r}: 'utf-8' codec"
        )

    def test_non_finite_model_value_exits_2(self, capsys, two_spike_csv, model_path):
        lines = model_path.read_text().splitlines()
        lines[lines.index("[means]") + 1] = "nan"
        model_path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "predict", str(model_path), str(two_spike_csv))
        assert code == 2
        assert out == ""
        assert "[means]" in err

    def test_out_of_range_spike_shrinkage_exits_2(
        self, capsys, two_spike_csv, model_path
    ):
        lines = model_path.read_text().splitlines()
        i = lines.index("[adjustment]") + 1
        lines[i] = "0," + lines[i].split(",", 1)[1]
        model_path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "predict", str(model_path), str(two_spike_csv))
        assert code == 2
        assert out == ""
        assert "[adjustment]" in err

    @pytest.mark.parametrize("value", ["1.0", "0.5"])
    def test_spike_lambda_hat_not_above_one_exits_2(
        self, capsys, two_spike_csv, model_path, value
    ):
        lines = model_path.read_text().splitlines()
        i = lines.index("[eigenvalues]") + 1
        lines[i] = lines[i].rsplit(",", 1)[0] + "," + value
        model_path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "predict", str(model_path), str(two_spike_csv))
        assert code == 2
        assert out == ""
        assert "[eigenvalues]" in err

    def test_single_sample(self, capsys, two_spike_csv, model_path, tmp_path):
        # one sample as a column, and as a row under rows-are-samples
        x = gen_two_spike(200, 1.0, seed=7).values[:, 0]
        column, row = tmp_path / "column.csv", tmp_path / "row.csv"
        column.write_text("\n".join(f"{v:.17g}" for v in x) + "\n")
        row.write_text(",".join(f"{v:.17g}" for v in x) + "\n")
        code, out, _ = run_cli(capsys, "predict", str(model_path), str(column))
        assert code == 0
        code, out_row, _ = run_cli(
            capsys, "predict", str(model_path), str(row),
            "--orientation", "rows-are-samples",
        )
        assert code == 0
        assert out_row == out
        lines = out.strip().splitlines()
        assert [ln.split(",")[:2] for ln in lines[1:]] == [["1", "1"], ["1", "2"]]
        code, full, _ = run_cli(capsys, "predict", str(model_path), str(two_spike_csv))
        assert code == 0
        for got, want in zip(lines[1:], full.splitlines()[1:3]):
            got, want = got.split(","), want.split(",")
            assert got[4] == want[4]
            for a, b in zip(got[2:4], want[2:4]):
                assert float(a) == pytest.approx(float(b), rel=1e-12)

    def test_wrong_row_count_exits_2(self, capsys, model_path, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,4\n")
        code, _, err = run_cli(capsys, "predict", str(model_path), str(bad))
        assert code == 2
        assert "200" in err and "2" in err


class TestOrientation:
    def test_rows_are_samples_matches_transposed_file(self, capsys, tmp_path):
        # 120 variables x 60 samples, so a missed transpose changes shapes
        X = gen_two_spike(60, 2.0, seed=5)
        plain, flipped = tmp_path / "plain.csv", tmp_path / "flipped.csv"
        write_matrix(X, plain)
        write_matrix(DataMatrix(X.values.T), flipped)
        model = {plain: tmp_path / "plain.spca", flipped: tmp_path / "flipped.spca"}
        outputs = {}
        for path, extra in ((plain, ()), (flipped, ("--orientation", "rows-are-samples"))):
            runs = (
                ("fit", str(path), "--mode", "center", "--out", str(model[path])),
                ("predict", str(model[plain]), str(path), "--adjusted", "both"),
                ("jackknife", str(path), "--pc", "1", "--mode", "center"),
            )
            for argv in runs:
                code, out, err = run_cli(capsys, *argv, *extra)
                assert code == 0, err
                outputs.setdefault(argv[0], []).append(out)
        for command, (out, out_flipped) in outputs.items():
            assert out.count("\n") > 1, command
            assert out_flipped == out, command
        assert model[flipped].read_bytes() == model[plain].read_bytes()


class TestRescale:
    def test_no_spike_spectrum(self, capsys, tmp_path):
        path = tmp_path / "eigs.csv"
        d = np.linspace(3.0, 0.5, 8)
        path.write_text("\n".join(f"{v}" for v in d) + "\n")
        code, out, _ = run_cli(
            capsys, "rescale", str(path), "--p", "8", "--n", "8"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# k=0 ")
        ratios = d / d.sum()
        for i, ln in enumerate(lines[2:]):
            fields = ln.split(",")
            assert float(fields[3]) == pytest.approx(8 * ratios[i], rel=1e-12)
            assert fields[5] == "false"

    def test_matrix_input_exits_2(self, capsys, tmp_path):
        path = tmp_path / "eigs.csv"
        path.write_text("4,3\n2,1\n")
        code, out, err = run_cli(capsys, "rescale", str(path), "--p", "4", "--n", "4")
        assert code == 2
        assert out == ""
        assert "expected a single row or column of eigenvalues" in err

    def test_warns_when_rescaling_does_not_converge(self, capsys, tmp_path):
        path = tmp_path / "eigs.csv"
        path.write_text("9\n1\n1\n1\n")
        argv = ("rescale", str(path), "--p", "4", "--n", "40")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert "converged=true" in out.splitlines()[0]
        assert err == ""
        code, out, err = run_cli(capsys, *argv, "--max-iter", "1")
        assert code == 0
        assert "iterations=1 converged=false" in out.splitlines()[0]
        assert err == "warning: rescaling did not converge\n"

    @pytest.mark.parametrize(
        "counts, message",
        [
            (("--p", "10", "--n", "0"), "argument --n: must be >= 1, got 0"),
            (("--p", "0", "--n", "5"), "argument --p: must be >= 1, got 0"),
            (("--p", "-4", "--n", "5"), "argument --p: must be >= 1, got -4"),
            (("--p", "ten", "--n", "5"), "argument --p: expected an integer"),
            (("--p", "4", "--n", "5", "--max-iter", "0"),
             "argument --max-iter: must be >= 1, got 0"),
            # a count past 2**53 used to overflow p / n with a traceback
            (("--p", "1" + "0" * 400, "--n", "5"),
             "argument --p: must be <= 2**53, got 1" + "0" * 400),
        ],
    )
    def test_count_below_one_is_usage_error(self, capsys, tmp_path, counts, message):
        path = tmp_path / "eigs.csv"
        path.write_text("4\n3\n2\n1\n")
        code, out, err = run_cli(capsys, "rescale", str(path), *counts)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "option, message",
        [
            (("--gamma", "-1"), "gamma must be >= 0, got -1.0"),
            (("--gamma", "nan"), "gamma must be >= 0, got nan"),
            (("--tol", "nan"), "tol must be positive, got nan"),
            (("--tol", "-1"), "tol must be positive, got -1.0"),
            # unchecked, tol=inf stops at once with converged=true and
            # gamma=inf (1e400 reads as inf) finds no spike
            (("--gamma", "inf"), "gamma must be finite, got inf"),
            (("--gamma", "1e400"), "gamma must be finite, got inf"),
            (("--tol", "inf"), "tol must be finite, got inf"),
        ],
    )
    def test_nan_fails_like_a_negative(self, capsys, tmp_path, option, message):
        path = tmp_path / "eigs.csv"
        path.write_text("40\n3\n2\n1\n")
        code, out, err = run_cli(
            capsys, "rescale", str(path), "--p", "100", "--n", "50", *option
        )
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "spectrum, code, message",
        [
            ("1\n3\n2\n", 2, "d_star must be sorted in non-increasing order"),
            ("3\n-1\n", 2, "d_star contains negative eigenvalues"),
            ("0\n0\n0\n", 3, "all sample eigenvalues are zero"),
        ],
    )
    def test_bad_spectrum_is_input_error(self, capsys, tmp_path, spectrum, code, message):
        # an all-zero spectrum is well-formed input with no rescaling, so
        # it stays a numerical failure
        path = tmp_path / "eigs.csv"
        path.write_text(spectrum)
        got, out, err = run_cli(capsys, "rescale", str(path), "--p", "100", "--n", "50")
        assert (got, out) == (code, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "spectrum, counts",
        [
            # four of 50 eigenvalues ran 500 iterations to tau = 44085
            ("40\n3\n2\n1\n", ("--p", "100", "--n", "50")),
            ("40\n3\n2\n1\n", ("--p", "3", "--n", "50")),
            ("40\n3\n2\n1\n", ("--p", "50", "--n", "3")),
        ],
    )
    def test_spectrum_must_hold_min_p_n_values(self, capsys, tmp_path, spectrum, counts):
        path = tmp_path / "eigs.csv"
        path.write_text(spectrum)
        code, out, err = run_cli(capsys, "rescale", str(path), *counts)
        m = min(int(counts[1]), int(counts[3]))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: expected min(p, n) = {m} eigenvalues, got 4\n"

    def test_gamma_override(self, capsys, tmp_path):
        path = tmp_path / "eigs.csv"
        path.write_text("40\n3\n2\n1\n")
        code, out, _ = run_cli(
            capsys, "rescale", str(path), "--p", "4", "--n", "999",
            "--gamma", "0.5",
        )
        assert code == 0
        assert "gamma=0.5" in out.splitlines()[0]


class TestJackknife:
    def test_two_spike_agreement(self, capsys, tmp_path):
        path = tmp_path / "jk.csv"
        write_matrix(gen_two_spike(100, 1.0, seed=3), path)
        code, out, _ = run_cli(
            capsys, "jackknife", str(path), "--pc", "1", "--mode", "none"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "pc,jackknife,plugin_shrinkage,used,excluded"
        fields = lines[1].split(",")
        assert abs(float(fields[1]) - float(fields[2])) <= 0.08

    @pytest.mark.parametrize("pc, message", [
        ("0", "argument --pc: must be >= 1, got 0"),
        ("9", "k must be in [1, 5], got 9"),
    ])
    def test_component_out_of_range_is_usage_error(self, capsys, tmp_path, pc, message):
        path = tmp_path / "jk.csv"
        write_matrix(gen_two_spike(20, 0.25, seed=3), path)
        code, out, err = run_cli(capsys, "jackknife", str(path), "--pc", pc)
        assert (code, out) == (2, "")
        assert message in err


class TestSimulate:
    def test_seed_required(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "table12")
        assert code == 2

    def test_table12_deterministic_output(self, capsys, tmp_path):
        argv = [
            "simulate", "table12", "--gamma", "1", "--n", "100",
            "--replicates", "3", "--seed", "7",
        ]
        code1, out1, err1 = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.splitlines()[0].startswith("design,gamma,n,g,")
        assert "two_spike" in out1
        assert err1  # human-readable summary goes to stderr

    def test_intro_scores_dump(self, capsys, tmp_path):
        scores_path = tmp_path / "scores.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "intro", "--seed", "1", "--p", "300",
            "--scores-out", str(scores_path),
        )
        assert code == 0
        assert scores_path.exists()
        assert scores_path.read_text().splitlines()[0] == (
            "set,stratum,pc1,pc2,pc1_adj,pc2_adj"
        )

    def test_table3_small_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "table3", "--cell", "30:20", "--p", "200",
            "--replicates", "2", "--seed", "4",
        )
        assert code == 0
        assert "mse_test_adjusted" in out

    def test_study_dispatch(self, capsys, tmp_path):
        # each study runs its own driver; only intro has a score dump
        scores_path = tmp_path / "scores.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "table12", "--gamma", "1", "--n", "100",
            "--replicates", "2", "--seed", "3",
        )
        assert code == 0
        assert out.splitlines()[1].startswith("two_spike,")
        code, out, err = run_cli(
            capsys, "simulate", "table12", "--gamma", "1", "--n", "100",
            "--replicates", "2", "--seed", "3", "--scores-out", str(scores_path),
        )
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --scores-out" in err
        assert not scores_path.exists()
        code, out, _ = run_cli(
            capsys, "simulate", "intro", "--seed", "3", "--p", "300",
            "--scores-out", str(scores_path),
        )
        assert code == 0
        assert out.splitlines()[1].startswith("intro,")
        assert scores_path.exists()

    def test_unknown_study_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "bogus", "--seed", "1")
        assert code == 2
        assert "invalid choice: 'bogus'" in err

    def test_zero_replicates(self, capsys):
        for study in ("table12", "table3"):
            code, out, err = run_cli(
                capsys, "simulate", study, "--replicates", "0", "--seed", "1"
            )
            assert code == 2
            assert out == ""
            assert err == "error: replicates must be >= 1\n"
        # intro is a single seeded run and takes no replicate count
        code, out, err = run_cli(
            capsys, "simulate", "intro", "--replicates", "0", "--seed", "1",
            "--p", "300",
        )
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --replicates 0" in err

    def test_replicates_past_stream_address_exits_2(self, capsys):
        # substream keys a replicate with 16 bits; the count is checked
        # before a draw rather than failing on the 65537th stream
        code, out, err = run_cli(
            capsys, "simulate", "table12", "--seed", "1", "--gamma", "20",
            "--n", "10", "--replicates", "70000",
        )
        assert (code, out) == (2, "")
        assert err == "error: replicates must be <= 65536, got 70000\n"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_2(self, capsys, workers):
        code, out, err = run_cli(
            capsys, "simulate", "table12", "--gamma", "1", "--n", "20",
            "--replicates", "2", "--seed", "1", "--workers", workers,
        )
        assert (code, out, err) == (2, "", "error: workers must be >= 1\n")

    @pytest.mark.parametrize("argv, message", [
        (("table12", "--gamma", "-1", "--n", "20"),
         "table12 cell gamma=-1, n=20: gamma must be positive and finite"),
        (("table12", "--gamma", "100", "--n", "2"),
         "table12 cell gamma=100, n=2: need n >= 4"),
        (("table3", "--p", "10", "--cell", "10:20"),
         "table3 cell n=10, g=20: g must satisfy 1 <= g < p=10"),
        (("table3", "--cell", "11:20"), "table3 cell n=11, g=20: n must be even"),
        # rescaling holds p as a double, exact up to 2**53
        (("table12", "--gamma", "1e300", "--n", "10"),
         "table12 cell gamma=1e+300, n=10: gamma * n must round to a finite p in [3, 2**53]"),
        (("table12", "--gamma", "1e17", "--n", "10"),
         "table12 cell gamma=1e+17, n=10: gamma * n must round to a finite p in [3, 2**53]"),
    ])
    def test_invalid_cell_exits_2(self, capsys, monkeypatch, argv, message):
        # every cell is checked before the study draws anything
        monkeypatch.setattr(spikepca.simulate, "_run_study", None)
        code, out, err = run_cli(capsys, "simulate", *argv, "--seed", "1")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("intro", "--replicates", "0"),
        ("table3", "--gamma", "5"),
        ("table3", "--n", "7"),
        ("table12", "--cell", "1:2"),
        ("table12", "--p", "9"),
        ("table12", "--scores-out", "x.csv"),
    ])
    def test_foreign_option_is_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "simulate", *argv, "--seed", "1")
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err
        assert list(tmp_path.iterdir()) == []

    def test_allocation_failure_exits_2(self, capsys, monkeypatch):
        # an input too large to allocate is an input error; the generator
        # is stubbed, as a real allocation may succeed under memory
        # overcommit and then exhaust the machine when filled
        message = "Unable to allocate 291. TiB for an array"

        def too_large(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(spikepca.simulate, "gen_pcr", too_large)
        code, out, err = run_cli(
            capsys, "simulate", "table3", "--seed", "1", "--cell", "4:1",
            "--p", "1000", "--replicates", "1",
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_malformed_cell_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "table3", "--cell", "100", "--seed", "1"
        )
        assert code == 2
        assert out == ""
        assert "expected N:G (e.g. 100:300), got '100'" in err

    def test_report_written_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "table12", "--gamma", "1", "--n", "100",
            "--replicates", "2", "--seed", "3", "--out", str(out_path),
        )
        assert code == 0
        assert out == ""  # data went to the file
        assert out_path.read_text().startswith("design,")


# Runs perfbench/run.py's table12 workload with its child runs stubbed out
# and prints the spikepca argv of every operation it would run.
PERFBENCH_ARGV = """
import json, sys, types
sys.path.insert(0, sys.argv[1])
import run
argvs = []
def op(label, args, check=None, **kw):
    argvs.append([str(a) for a in args[2:]])
    return 1.0, b""
def traced(b, ops):
    argvs.extend([str(a) for a in argv] for _, argv, *_ in ops)
    return {}, 1.0
run.closed_loop = lambda step, seconds: step()
run.traced_cli_ops = traced
for trace in (False, True):
    run.table12_workload(types.SimpleNamespace(
        sizes=run.Sizes(), seed=7, trace=trace, setup_s=lambda: 0.0,
        op=op, sample=lambda *a: None))
print(json.dumps(argvs))
"""


class TestSimulateSurface:
    """The simulate commands that the README and the benchmark run parse."""

    def test_readme_commands_parse(self):
        text = (ROOT / "README.md").read_text().replace("\\\n", " ")
        commands = [
            shlex.split(line, comments=True)[1:]
            for line in text.splitlines()
            if line.startswith("spikepca simulate ")
        ]
        assert {argv[1] for argv in commands} == {"intro", "table12", "table3"}
        for argv in commands:
            build_parser().parse_args(argv)

    def test_benchmark_table12_argv_parses(self):
        result = subprocess.run(
            [sys.executable, "-B", "-c", PERFBENCH_ARGV, str(ROOT / "perfbench")],
            capture_output=True, text=True, cwd=ROOT,
        )
        assert result.returncode == 0, result.stderr
        commands = json.loads(result.stdout)
        assert commands
        for argv in commands:
            args = build_parser().parse_args(argv)
            assert args.study == "table12"
            assert {"gammas", "ns", "replicates", "workers"} <= set(vars(args))


class TestStdStreams:
    def test_stdout_reserved_for_data(self, capsys, two_spike_csv):
        code, out, err = run_cli(
            capsys, "fit", str(two_spike_csv), "--mode", "none", "--k", "2"
        )
        assert code == 0
        for line in out.strip().splitlines():
            assert "," in line  # stdout is purely tabular
        assert "k_spikes" in err  # diagnostics on stderr


class TestProcessExit:
    """``python -m spikepca`` runs cli.run: main's stdout and exit code,
    then a flush whose failure is reported, then an exit without
    interpreter teardown unless a profile hook is set."""

    @staticmethod
    def spikepca(*argv, stdout=subprocess.PIPE, unbuffered=False, module=("-m", "spikepca"),
                 **kwargs):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )
        return subprocess.run(
            [sys.executable, *module, *map(str, argv)],
            env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=120, **kwargs,
        )

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("exit")
        files = {name: root / f"{name}.csv" for name in ("train", "flat", "eigs")}
        write_matrix(gen_two_spike(100, 1.0, seed=4), files["train"])
        flat = gen_two_spike(20, 1.0, seed=4).values.copy()
        flat[1] = 0.5
        write_matrix(DataMatrix(flat), files["flat"])
        files["eigs"].write_text("5\n3\n1\n")
        files["model"] = root / "model.spca"
        assert main(["fit", str(files["train"]), "--out", str(files["model"])]) == 0
        return files

    @pytest.mark.parametrize(
        "code, argv",
        [
            (0, ("fit", "{train}", "--k", "2")),
            (0, ("predict", "{model}", "{train}")),
            (0, ("jackknife", "{train}", "--pc", "1")),
            (0, ("rescale", "{eigs}", "--p", "3", "--n", "10")),
            (0, ("simulate", "table12", "--seed", "2", "--gamma", "1", "--n", "20",
                 "--replicates", "3", "--workers", "2")),
            (2, ("rescale", "{train}.missing", "--p", "3", "--n", "10")),
            (3, ("fit", "{flat}", "--mode", "center-scale")),
        ],
        ids=["fit", "predict", "jackknife", "rescale", "table12", "exit2", "exit3"],
    )
    def test_matches_in_process_main(self, capsys, files, code, argv):
        argv = [a.format(**files) for a in argv]
        expected = run_cli(capsys, *argv)
        assert expected[0] == code
        result = self.spikepca(*argv)
        assert (result.returncode, result.stdout.decode(), result.stderr.decode()) == expected

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [("rescale", "{eigs}", "--p", "3", "--n", "10"), ("predict", "{model}", "{train}")],
        ids=["rescale", "predict"],
    )
    def test_full_stdout_exits_2(self, files, argv, unbuffered):
        # rescale's few hundred bytes sit in the buffer until the exit flush
        with open("/dev/full", "wb") as full:
            result = self.spikepca(
                *(a.format(**files) for a in argv), stdout=full, unbuffered=unbuffered
            )
        err = result.stderr.decode()
        assert result.returncode == 2
        assert "error: [Errno 28]" in err
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_closed_stdout_with_out_file_exits_0(self, files, tmp_path):
        # with fd 1 closed at start sys.stdout is None; nothing goes to it
        out = tmp_path / "rescale.csv"
        result = self.spikepca(
            "rescale", files["eigs"], "--p", "3", "--n", "10", "--out", out,
            stdout=None, preexec_fn=lambda: os.close(1),
        )
        assert (result.returncode, result.stderr) == (0, b"")
        assert out.read_text().startswith("# k=")

    def test_closed_stdout_exits_2(self, files):
        result = self.spikepca(
            "rescale", files["eigs"], "--p", "3", "--n", "10",
            stdout=None, preexec_fn=lambda: os.close(1),
        )
        assert (result.returncode, result.stderr) == (2, b"error: [Errno 9] stdout is closed\n")

    @pytest.mark.parametrize(
        "close",
        # a launcher may leave fd 2 open on a file it read, which takes no writes
        [lambda: os.close(2), lambda: os.dup2(os.open(os.devnull, os.O_RDONLY), 2)],
        ids=["closed", "read_only"],
    )
    @pytest.mark.parametrize(
        "argv",
        [("fit", "{train}", "--k", "2"),
         ("simulate", "table12", "--seed", "2", "--gamma", "1", "--n", "20",
          "--replicates", "3", "--workers", "2")],
        ids=["fit", "table12"],
    )
    def test_closed_stderr_keeps_exit_code_and_stdout(self, capsys, files, argv, close):
        argv = [a.format(**files) for a in argv]
        code, out, _ = run_cli(capsys, *argv)
        result = self.spikepca(*argv, preexec_fn=close)
        assert (result.returncode, result.stdout.decode(), result.stderr) == (0, out, b"")
        assert code == 0

    def test_profiler_still_prints_its_table(self, files):
        result = self.spikepca(
            "rescale", files["eigs"], "--p", "3", "--n", "10",
            module=("-m", "cProfile", "-m", "spikepca"),
        )
        assert result.returncode == 0, result.stderr
        out = result.stdout.decode()
        assert "component,d,ratio,d_hat,lambda_hat,spike" in out
        assert "function calls" in out and "Ordered by" in out

    def test_console_script_runs_cli_run(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
        assert project["scripts"]["spikepca"] == "spikepca.cli:run"


class TestColdStart:
    @staticmethod
    def scipy_modules_after(statements):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        code = (
            f"import json, sys, spikepca; {statements}; "
            "print(json.dumps(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy')))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)

    def test_import_loads_no_scipy(self):
        # scipy is imported on first use (normal variates), not by
        # ``import spikepca``
        assert self.scipy_modules_after("pass") == []

    def test_fit_and_rescale_load_no_scipy_optimize(self):
        # the rescaling is a plain fixed-point iteration: no root finder
        loaded = self.scipy_modules_after(
            "import numpy as np; "
            "X = np.random.default_rng(0).standard_normal((40, 20)); "
            "spikepca.fit(spikepca.DataMatrix(X)); "
            "spikepca.rescale_eigenvalues(np.linspace(5.0, 0.5, 20), 40, 20)"
        )
        assert not [m for m in loaded if m.startswith("scipy.optimize")]


class TestBlasThreadCount:
    """predict, jackknife and simulate (intro's score dump included) print
    the same bytes at 1 and 2 BLAS threads."""

    @staticmethod
    def spikepca(threads, *argv):
        path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, path)),
            "OPENBLAS_NUM_THREADS": str(threads),
            "OMP_NUM_THREADS": str(threads),
        }
        result = subprocess.run(
            [sys.executable, "-m", "spikepca", *map(str, argv)],
            env=env, capture_output=True,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        # at 5000 x 200 OpenBLAS splits a 2 x p or 3 x p by p x m product
        # over two threads and rounds it differently from one thread; on
        # this draw that reached the 17th digit of the jackknife value
        root = tmp_path_factory.mktemp("threads")
        files = {name: root / f"{name}.csv" for name in ("train", "test")}
        write_matrix(gen_two_spike(200, 25.0, seed=8), files["train"])
        write_matrix(gen_two_spike(200, 25.0, seed=9), files["test"])
        files["model"] = root / "model.spca"
        self.spikepca(1, "fit", files["train"], "--k", "3", "--out", files["model"])
        return files

    @pytest.mark.parametrize(
        "argv",
        [
            ("predict", "{model}", "{test}", "--adjusted", "both"),
            ("jackknife", "{train}", "--pc", "2", "--mode", "center"),
        ],
        ids=["predict", "jackknife"],
    )
    def test_stdout_is_byte_identical(self, files, argv):
        argv = [a.format(**files) for a in argv]
        assert self.spikepca(1, *argv) == self.spikepca(2, *argv)

    @pytest.mark.skipif(_openblas_threads() is None,
                        reason="numpy carries no OpenBLAS thread hook")
    def test_intro_report_and_scores_are_byte_identical(self, tmp_path):
        # the fit and predictions run at one BLAS thread; at 2 threads the
        # 5000 x 100 fit rounds apart in the 17th digit on this seed
        outputs = []
        for threads in (1, 2):
            scores = tmp_path / f"scores{threads}.csv"
            report = self.spikepca(threads, "simulate", "intro", "--seed", "1",
                                   "--scores-out", scores)
            outputs.append((report, scores.read_bytes()))
        assert outputs[1] == outputs[0]

    @pytest.mark.skipif(_openblas_threads() is None,
                        reason="numpy carries no OpenBLAS thread hook")
    def test_simulate_is_byte_identical_at_any_worker_count(self):
        # every replicate runs at one BLAS thread, in the parent and in its
        # forked workers; at 2 threads the square cell's eigh rounds apart
        argv = ("simulate", "table12", "--seed", "3", "--gamma", "1", "--n", "100",
                "--replicates", "3")
        outputs = [
            self.spikepca(threads, *argv, "--workers", workers)
            for threads in (1, 2)
            for workers in (1, 2)
        ]
        assert outputs[1:] == outputs[:1] * 3
