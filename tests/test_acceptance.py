"""Acceptance gate: one test per release criterion, strict tolerances.

Each test prints a single summary line (visible with -v as the node id, and
in captured output on failure).  The benchmark-data criteria skip with an
explanation when the CSVs are not present under data/ (or $PROBITGP_DATA).
"""

import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import helpers
from probitgp import (
    AisConfig,
    Dataset,
    GridSpec,
    Hyperparams,
    MarginalMoments,
    Sites,
    TrainConfig,
    ais_lml,
    assemble,
    cross_validate,
    elbo,
    ep_energy,
    ep_inference,
    ep_like_energy,
    grid_sweep,
    gram,
    load_csv,
)
from probitgp.cli import run


def shared_instances(count=200, seed=2026):
    """Random (K, sites, y) instances with n in {1, 2}, reused by the first
    two criteria so the bound check runs on exactly the energy-check cases."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 3))
        K = helpers.gram_from_matrix(helpers.random_spd(n, rng))
        lam1, lam2 = helpers.random_sites_arrays(n, rng)
        y = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
        out.append((K, Sites(lam1, lam2), y))
    return out


INSTANCES = shared_instances()

REFERENCE_RESULTS = {
    # dataset: (vi_acc, ours_acc, vi_lpd, ours_lpd), five-fold means
    "ionosphere": (0.940, 0.946, -0.179, -0.176),
    "sonar": (0.836, 0.860, -0.353, -0.340),
    "diabetes": (0.783, 0.781, -0.473, -0.473),
}

MISSING_DATA_HINT = (
    "place the benchmark CSVs at data/sonar.csv (60 numeric columns + R/M "
    "label), data/ionosphere.csv (34 numeric columns + g/b label), and "
    "data/diabetes.csv (8 numeric columns + 0/1 label), or point "
    "PROBITGP_DATA at a directory holding them"
)


def test_criterion_1_site_energy_matches_dense_quadrature():
    start = time.time()
    worst = 0.0
    for K, sites, _ in INSTANCES:
        oracle = helpers.site_energy_quadrature(K.K, sites.lam1, sites.lam2)
        worst = max(worst, abs(ep_like_energy(assemble(K, sites)) - oracle))
    elapsed = time.time() - start
    print(f"criterion 1: max |energy - quadrature| = {worst:.3g} "
          f"over {len(INSTANCES)} instances ({elapsed:.1f}s)")
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_criterion_2_elbo_lower_bounds_evidence():
    start = time.time()
    worst_margin = np.inf
    for K, sites, y in INSTANCES:
        evidence = helpers.probit_evidence_quadrature(K.K, y)
        worst_margin = min(worst_margin, evidence - elbo(assemble(K, sites), y)[0])
    elapsed = time.time() - start
    print(f"criterion 2: min (evidence - elbo) = {worst_margin:.3g} ({elapsed:.1f}s)")
    assert worst_margin >= -1e-8
    assert elapsed < 60.0


def test_criterion_3_gradient_checks():
    # (a) likelihood expectations against central differences of the value
    worst_rel = 0.0
    for y in (1.0, -1.0):
        for m in np.linspace(-3.0, 3.0, 10):
            for v in np.geomspace(0.05, 2.0, 10):
                st = helpers.expected_loglik(y, MarginalMoments(m, v))
                hm = 1e-5 * max(1.0, abs(m))
                fd_m = (helpers.expected_loglik(y, MarginalMoments(m + hm, v)).e
                        - helpers.expected_loglik(y, MarginalMoments(m - hm, v)).e) / (2 * hm)
                hv = 1e-5 * v
                fd_v = (helpers.expected_loglik(y, MarginalMoments(m, v + hv)).e
                        - helpers.expected_loglik(y, MarginalMoments(m, v - hv)).e) / (2 * hv)
                worst_rel = max(
                    worst_rel,
                    abs(fd_m - st.g_m) / abs(st.g_m),
                    abs(fd_v - st.g_v) / abs(st.g_v),
                )
    # (b) FD energy gradient against the closed-form regression-evidence
    # gradient when the sites carry an exact Gaussian likelihood
    rng = np.random.default_rng(77)
    n, noise = 8, 0.5
    X = rng.standard_normal((n, 2))
    t = rng.standard_normal(n)
    ds = Dataset("g", X, np.where(t > 0, 1.0, -1.0))
    sites = Sites(t / noise, np.full(n, -0.5 / noise))
    worst_conj = 0.0
    h = 1e-5
    for theta in (Hyperparams(0.0, 0.0), Hyperparams(0.5, -0.3), Hyperparams(-0.4, 0.2)):
        sig2 = theta.magnitude ** 2
        diff = X[:, None, :] - X[None, :, :]
        r = np.sqrt(np.sum(diff * diff, axis=-1))
        u = np.sqrt(5.0) * r / theta.lengthscale
        Km = sig2 * (1.0 + u + u * u / 3.0) * np.exp(-u)
        dK_dll = sig2 * (u * u / 3.0) * (1.0 + u) * np.exp(-u)
        dK_dlm = 2.0 * Km
        C = Km + noise * np.eye(n)
        Ci_t = np.linalg.solve(C, t)
        Ci = np.linalg.inv(C)
        for j, dK in enumerate((dK_dll, dK_dlm)):
            analytic = 0.5 * (Ci_t @ dK @ Ci_t - np.trace(Ci @ dK))
            dv = (h, 0.0) if j == 0 else (0.0, h)
            up = Hyperparams(theta.log_lengthscale + dv[0], theta.log_magnitude + dv[1])
            dn = Hyperparams(theta.log_lengthscale - dv[0], theta.log_magnitude - dv[1])
            # the energy under a jitter-free K, the oracle's own kernel
            fd = (helpers.objective_value(ds, sites, up, "ep_like", helpers.jitter_free_gram(X, up))
                  - helpers.objective_value(ds, sites, dn, "ep_like",
                                            helpers.jitter_free_gram(X, dn))) / (2 * h)
            worst_conj = max(worst_conj, abs(fd - analytic) / abs(analytic))
    print(f"criterion 3: likelihood-gradient rel err {worst_rel:.3g} (limit 1e-6), "
          f"conjugate energy-gradient rel err {worst_conj:.3g} (limit 1e-4)")
    assert worst_rel <= 1e-6
    assert worst_conj <= 1e-4


def test_criterion_4_single_site_ep_is_exact():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(50):
        theta = Hyperparams(rng.uniform(-1, 1), rng.uniform(-1, 1))
        X = rng.standard_normal((1, 2))
        y = np.array([1.0 if rng.uniform() < 0.5 else -1.0])
        K = gram(X, theta)
        post, log_scale, converged = ep_inference(K, y, tol=1e-10)
        assert converged
        oracle = helpers.probit_evidence_quadrature(K.K, y)
        worst = max(worst, abs(ep_energy(post, log_scale) - oracle))
    print(f"criterion 4: max |ep evidence - quadrature| = {worst:.3g} over 50 draws")
    assert worst <= 1e-6


def test_criterion_5_annealed_evidence_calibration():
    start = time.time()
    K1 = helpers.gram_from_matrix(np.array([[1.0]]))
    y1 = np.array([1.0])
    est1 = ais_lml(K1, y1, AisConfig(steps=2000, repeats=3, seed=0))
    truth1 = helpers.probit_evidence_quadrature(K1.K, y1)
    err1 = abs(est1.log_ml - truth1)

    rng = np.random.default_rng(99)
    X = rng.standard_normal((2, 2))
    y2 = np.array([1.0, -1.0])
    K2 = gram(X, Hyperparams(0.3, 0.0))
    est2 = ais_lml(K2, y2, AisConfig(steps=2000, repeats=3, seed=1))
    truth2 = helpers.probit_evidence_quadrature(K2.K, y2)
    err2 = abs(est2.log_ml - truth2)
    elapsed = time.time() - start
    print(f"criterion 5: annealing error n=1 {err1:.4f} (limit 0.05), "
          f"n=2 {err2:.4f} (limit 0.1) ({elapsed:.1f}s)")
    assert err1 < 0.05
    assert err2 < 0.1
    assert elapsed < 120.0


def test_criterion_6_benchmark_cross_validation():
    missing = [n for n in ("sonar", "ionosphere", "diabetes") if not helpers.have_dataset(n)]
    if missing:
        pytest.skip(f"criterion 6: SKIP, missing {missing}; {MISSING_DATA_HINT}")
    cfg = TrainConfig()
    lines = []
    measured = {}
    for name in ("sonar", "ionosphere", "diabetes"):
        ds = load_csv(helpers.dataset_path(name))
        rep = cross_validate(ds, ("vi", "ours"), cfg, seed=0, jobs=5)
        vi_acc = float(rep.accuracy["vi"].mean())
        ours_acc = float(rep.accuracy["ours"].mean())
        vi_lpd = float(rep.lpd["vi"].mean())
        ours_lpd = float(rep.lpd["ours"].mean())
        measured[name] = (vi_acc, ours_acc, vi_lpd, ours_lpd)
        ref = REFERENCE_RESULTS[name]
        for got, want, label in zip(measured[name], ref,
                                    ("vi acc", "ours acc", "vi lpd", "ours lpd")):
            if abs(got - want) > 0.03:
                warnings.warn(
                    f"{name} {label}: {got:.3f} vs reference {want:.3f} "
                    f"(outside the 0.03 soft window)"
                )
        lines.append(
            f"{name} acc vi/ours {vi_acc:.3f}/{ours_acc:.3f} "
            f"lpd {vi_lpd:.3f}/{ours_lpd:.3f}"
        )
    print("criterion 6: " + "; ".join(lines))
    # hard direction-of-effect: the energy objective must not lose on sonar
    assert measured["sonar"][1] >= measured["sonar"][0]


def test_criterion_7_surface_argmax_against_annealing():
    if not helpers.have_dataset("sonar"):
        pytest.skip(f"criterion 7: SKIP, missing ['sonar']; {MISSING_DATA_HINT}")
    from probitgp import fold_datasets, make_folds, standardize
    from probitgp.data import apply_standardization

    ds = load_csv(helpers.dataset_path("sonar"))
    folds = make_folds(ds.n, seed=0)
    train_raw, test_raw = fold_datasets(ds, folds, 0)
    train, mean, scale = standardize(train_raw)
    test = apply_standardization(test_raw, mean, scale)
    spec = GridSpec(lo=-1.0, hi=5.0, points=7, methods=("vi", "ours", "mcmc"),
                    ais=AisConfig(steps=2000, repeats=3, seed=0))
    records = grid_sweep(train, test, spec, jobs=7)

    def argmax_cell(method):
        best, cell = -np.inf, None
        for r in records:
            if r.method == method and np.isfinite(r.lml_per_n) and r.lml_per_n > best:
                best, cell = r.lml_per_n, (r.log_lengthscale, r.log_magnitude)
        assert cell is not None
        return np.array(cell)

    ref = argmax_cell("mcmc")
    d_ours = float(np.linalg.norm(argmax_cell("ours") - ref))
    d_vi = float(np.linalg.norm(argmax_cell("vi") - ref))
    by_cell = {}
    for r in records:
        by_cell.setdefault((r.log_lengthscale, r.log_magnitude), {})[r.method] = r
    shared = all(
        cell["vi"].lpd_per_n == cell["ours"].lpd_per_n
        or (np.isnan(cell["vi"].lpd_per_n) and np.isnan(cell["ours"].lpd_per_n))
        for cell in by_cell.values()
    )
    print(f"criterion 7: argmax distance to annealing, ours {d_ours:.3f} vs vi {d_vi:.3f}; "
          f"shared predictive columns: {shared}")
    assert shared
    assert d_ours <= d_vi


def test_criterion_8_cli_determinism(tmp_path):
    ds = helpers.make_blobs(18, 2, 123)
    data = tmp_path / "d.csv"
    with open(data, "w") as fh:
        for row, label in zip(ds.X, ds.y):
            fh.write(f"{float(row[0])!r},{float(row[1])!r},{int(label)}\n")

    def bytes_of(path):
        return Path(path).read_bytes()

    def body_of(path):
        return bytes_of(path).split(b"\n", 1)[1]

    checks = []

    # fit: rerun reproduces the model and the trace byte for byte
    m1, m2 = tmp_path / "m1.model", tmp_path / "m2.model"
    fit_flags = ["--e-iters", "8", "--m-iters", "2", "--rounds", "2"]
    assert run(["fit", "--data", str(data), "--out", str(m1), *fit_flags]) == 0
    assert run(["fit", "--data", str(data), "--out", str(m2), *fit_flags]) == 0
    checks.append(bytes_of(m1) == bytes_of(m2))
    checks.append(body_of(str(m1) + ".trace.csv") == body_of(str(m2) + ".trace.csv"))

    # predict: rerun is byte-identical
    p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    assert run(["predict", "--model", str(m1), "--data", str(data),
                "--label", "last", "--out", str(p1)]) == 0
    assert run(["predict", "--model", str(m1), "--data", str(data),
                "--label", "last", "--out", str(p2)]) == 0
    checks.append(body_of(p1) == body_of(p2))

    # grid: rerun byte-identical; worker count must not leak into the records
    g_flags = ["--lo", "-0.5", "--hi", "0.5", "--points", "2",
               "--methods", "vi,ours,mcmc", "--e-iters", "10",
               "--ais-T", "50", "--ais-repeats", "2", "--seed", "5"]
    g1, g1b, g8 = tmp_path / "g1.csv", tmp_path / "g1b.csv", tmp_path / "g8.csv"
    assert run(["grid", "--data", str(data), "--out", str(g1), "--jobs", "1", *g_flags]) == 0
    assert run(["grid", "--data", str(data), "--out", str(g1b), "--jobs", "1", *g_flags]) == 0
    assert run(["grid", "--data", str(data), "--out", str(g8), "--jobs", "8", *g_flags]) == 0
    checks.append(body_of(g1) == body_of(g1b))
    checks.append(body_of(g1) == body_of(g8))

    # cv: same across reruns and worker counts
    c_flags = ["--e-iters", "5", "--m-iters", "1", "--rounds", "1", "--seed", "7"]
    c1, c8 = tmp_path / "c1.csv", tmp_path / "c8.csv"
    assert run(["cv", "--data", str(data), "--out", str(c1), "--jobs", "1", *c_flags]) == 0
    assert run(["cv", "--data", str(data), "--out", str(c8), "--jobs", "8", *c_flags]) == 0
    checks.append(body_of(c1) == body_of(c8))
    checks.append(body_of(tmp_path / "c1.summary.csv") == body_of(tmp_path / "c8.summary.csv"))

    # ais: byte-identical CSV on rerun
    a1, a2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    a_flags = ["--ais-T", "60", "--ais-repeats", "2", "--seed", "11"]
    assert run(["ais", "--data", str(data), "--out", str(a1), *a_flags]) == 0
    assert run(["ais", "--data", str(data), "--out", str(a2), *a_flags]) == 0
    checks.append(body_of(a1) == body_of(a2))

    print(f"criterion 8: {sum(checks)}/{len(checks)} determinism comparisons identical")
    assert all(checks)
