"""Oracle checks on the program's outputs.

Each check returns a list of problems; an empty list means the output
passed. The checks compare against the planted truth and against
independent numpy arithmetic, never against a stored digest, so a change
that alters random draws (but not their law) is not counted as a
failure.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import spikes

# |jackknife - plug-in| allowed by the package's acceptance criterion 7.
JACKKNIFE_GAP = 0.08
# Finite-sample bias allowed on a table12 cell mean (acceptance criterion 2),
# to which the benchmark adds 4 standard errors for its own replicate count.
TABLE12_BIAS = 0.04


def csv_rows(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def reference(X: np.ndarray) -> dict:
    """What the spectrum check needs from a training matrix, computed once
    per input: the variable means and the trace of the sample covariance
    (X - means)(X - means)^T / n, taken without a centered copy of X."""
    n = X.shape[1]
    means = X.mean(axis=1)
    total = (float(np.einsum("ij,ij->", X, X)) - n * float(means @ means)) / n
    return {"X": X, "means": means, "total": total}


def spectrum(ref: dict, d, d_hat, lambda_hat, spike, U) -> list[str]:
    """The k reported components of a ``center`` fit of ref's matrix.

    ``d``, ``d_hat``, ``lambda_hat`` and ``spike`` have length k and U is
    p x k. Exact oracles, which catch a bias of any size in the eigen,
    rescaling or debiasing layers:
      - (d_v, u_v) is a unit eigenpair of the sample covariance;
      - d_hat = tau * d / trace with one tau for all components;
      - lambda_hat is the root of d_hat = lambda (1 + gamma / (lambda - 1))
        for d_hat above the noise edge (1 + sqrt(gamma))^2, else 1;
      - tau solves the rescaling's fixed point
        tau = sum(lambda_hat above the edge) + p - (count above the edge);
      - a component is flagged a spike iff lambda_hat > 1 + sqrt(gamma).
    Statistical, against the planted truth: 2 to 4 spikes are flagged
    and the two planted ones lie within 5 standard errors. The measured
    relative standard error of a debiased spike is at most 1.4 sqrt(2 / n)
    (at gamma = 20), so the band is 7 sqrt(2 / n). The largest noise
    eigenvalue lies above the detection edge in about a quarter of the
    5000 x 200 inputs, so up to two further spikes may be flagged, each
    below the smaller planted one.
    """
    X, means = ref["X"], ref["means"]
    p, n = X.shape
    d, d_hat, lambda_hat = (np.asarray(a, dtype=float) for a in (d, d_hat, lambda_hat))
    spike, U = np.asarray(spike, dtype=bool), np.asarray(U, dtype=float)
    if U.shape != (p, d.size) or not d.size:
        return [f"{d.size} components with eigenvectors of shape {U.shape}"]
    problems = []

    R = X.T @ U - means @ U  # (X - means)^T U
    SU = (X @ R - np.outer(means, R.sum(axis=0))) / n
    residual = float(np.max(np.linalg.norm(SU - U * d, axis=0))) / d[0]
    norm_err = float(np.max(np.abs(np.linalg.norm(U, axis=0) - 1.0)))
    if not (residual <= 1e-8 and norm_err <= 1e-9):
        problems.append(f"not unit eigenpairs: residual {residual:.3g}, norm {norm_err:.3g}")

    gamma = p / n
    tau = d_hat * ref["total"] / d
    above = d_hat > (1.0 + math.sqrt(gamma)) ** 2
    fixed_point = float(lambda_hat[above].sum()) + p - int(above.sum())
    if not float(np.max(np.abs(tau / tau[0] - 1.0))) <= 1e-9:
        problems.append("d_hat is not one multiple of d")
    if not abs(tau[0] - fixed_point) <= 1e-8 * p:
        problems.append(f"tau {tau[0]:.10g} is not the fixed point {fixed_point:.10g}")
    b = d_hat + 1.0 - gamma
    debiased = np.where(above, (b + np.sqrt(np.maximum(b * b - 4.0 * d_hat, 0.0))) / 2.0, 1.0)
    for v in np.flatnonzero(~np.isclose(lambda_hat, debiased, rtol=1e-10, atol=0.0)):
        problems.append(f"component {v + 1}: lambda_hat {lambda_hat[v]:.6g}, "
                        f"debiased d_hat is {debiased[v]:.6g}")
    if not np.array_equal(spike, lambda_hat > 1.0 + math.sqrt(gamma)):
        problems.append("spike flags disagree with lambda_hat > 1 + sqrt(gamma)")

    s1, s2 = spikes(p, n)
    k_spikes = int(spike.sum())
    if not 2 <= k_spikes <= 4:
        return problems + [f"found {k_spikes} spikes, planted 2"]
    tol = 7.0 * math.sqrt(2.0 / n)
    for v, truth in enumerate((s1, s2)):
        rel = abs(lambda_hat[v] / truth - 1.0)
        if not rel <= tol:
            problems.append(
                f"spike {v + 1}: lambda_hat {lambda_hat[v]:.4g} vs planted "
                f"{truth:.4g} (relative error {rel:.3f} > {tol:.3f})"
            )
    for v in range(2, k_spikes):
        if not lambda_hat[v] < s2:
            problems.append(f"extra spike {v + 1} at {lambda_hat[v]:.4g}")
    return problems


def fit_stdout(text: str, ref: dict, model: dict) -> list[str]:
    """Check the component table printed by ``spikepca fit --k auto``
    against its training matrix and the eigenvectors in its model file."""
    rows = csv_rows(text)
    if not rows or "lambda_hat" not in rows[0]:
        return ["fit printed no component table"]
    try:
        d, d_hat, lambda_hat = (
            [float(r[c]) for r in rows] for c in ("d", "d_hat", "lambda_hat")
        )
    except (KeyError, ValueError) as exc:
        return [f"unreadable component table: {exc}"]
    spike = [r["spike"] == "true" for r in rows]
    return spectrum(ref, d, d_hat, lambda_hat, spike, model["U"])


def read_model(path) -> dict:
    """The parts of a model file the checks need, parsed independently."""
    sections: dict[str, list[str]] = {}
    current = None
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if ln.startswith("[") and ln.endswith("]"):
                current = ln[1:-1]
                sections[current] = []
            elif ln and current is not None:
                sections[current].append(ln)
    meta = dict(ln.split("=", 1) for ln in sections["meta"])
    k = int(meta["k"])
    return {
        "k_spikes": int(meta["k_spikes"]),
        "means": np.array(sections["means"], dtype=float),
        "scales": np.array(sections["scales"], dtype=float),
        "U": np.column_stack(
            [np.array(sections[f"eigenvector {v + 1}"], dtype=float) for v in range(k)]
        ),
        "shrinkage": np.array(
            [float(ln.split(",")[0]) for ln in sections["adjustment"]]
        ),
    }


def scores(naive, adjusted, identifiable, model: dict, X: np.ndarray) -> list[str]:
    """Naive scores equal an independent projection; adjusted = naive / s_v.

    ``naive`` and ``adjusted`` are k x m arrays, ``identifiable`` has
    length k, ``model`` is as returned by read_model and X is the p x m
    matrix that was predicted.
    """
    U = model["U"]
    k = U.shape[1]
    naive = np.asarray(naive, dtype=float)
    adjusted = np.asarray(adjusted, dtype=float)
    if naive.shape != (k, X.shape[1]) or adjusted.shape != naive.shape:
        return [f"score shape {naive.shape}, expected {(k, X.shape[1])}"]
    problems = []
    reference = U.T @ ((X - model["means"][:, None]) / model["scales"][:, None])
    err = float(np.max(np.abs(naive - reference)))
    if not err <= 1e-9 * max(1.0, float(np.max(np.abs(reference)))):
        problems.append(f"naive scores differ from the projection by {err:.3g}")
    ident = np.asarray(identifiable, dtype=bool)
    if not np.array_equal(ident, np.arange(k) < model["k_spikes"]):
        problems.append("identifiable flags disagree with the model's spike count")
    expected = naive.copy()
    expected[ident] = naive[ident] * (1.0 / model["shrinkage"][ident, None])
    if not np.allclose(adjusted, expected, rtol=1e-12, atol=0.0):
        problems.append("adjusted scores are not naive / shrinkage")
    return problems


def predict_stdout(text: str, model: dict, X: np.ndarray) -> list[str]:
    """Check the long-format table printed by ``spikepca predict --adjusted both``."""
    rows = csv_rows(text)
    k, m = model["U"].shape[1], X.shape[1]
    if len(rows) != k * m:
        return [f"predict printed {len(rows)} rows, expected {k * m}"]
    try:
        naive = np.array([float(r["naive"]) for r in rows]).reshape(m, k).T
        adjusted = np.array([float(r["adjusted"]) for r in rows]).reshape(m, k).T
    except (KeyError, ValueError) as exc:
        return [f"unreadable score table: {exc}"]
    ident = [r["identifiable"] == "true" for r in rows[:k]]
    return scores(naive, adjusted, ident, model, X)


def jackknife_stdout(text: str, n: int) -> list[str]:
    rows = csv_rows(text)
    if len(rows) != 1:
        return ["jackknife printed no result row"]
    r = rows[0]
    problems = []
    if int(r["used"]) + int(r["excluded"]) != n:
        problems.append(f"used {r['used']} + excluded {r['excluded']} != n={n}")
    gap = abs(float(r["jackknife"]) - float(r["plugin_shrinkage"]))
    if not gap <= JACKKNIFE_GAP:
        problems.append(f"jackknife is {gap:.4f} from the plug-in value")
    return problems


def table12_report(text: str, replicates: int) -> list[str]:
    """Each cell mean within bias + 4 standard errors of its analytic value."""
    rows = csv_rows(text)
    if len(rows) != 12:
        return [f"table12 report has {len(rows)} rows, expected 12"]
    problems = []
    for r in rows:
        used = int(r["used"])
        if int(r["replicates"]) != replicates or used < 1:
            problems.append(f"{r['estimator']} pc{r['component']}: used {used}")
            continue
        mean, sd, analytic = float(r["mean"]), float(r["sd"]), float(r["analytic"])
        band = TABLE12_BIAS + 4.0 * sd / math.sqrt(used)
        if not abs(mean - analytic) <= band:
            problems.append(
                f"{r['estimator']} pc{r['component']}: mean {mean:.4f} vs "
                f"analytic {analytic:.4f} (band {band:.4f})"
            )
    return problems
