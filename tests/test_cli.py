"""End-to-end command-line behavior on small synthetic CSVs."""

import os
import shlex
import signal
import subprocess
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

import helpers
from probitgp import NumericsError, load_model, paired_t_test
from probitgp.cli import run
from probitgp.kernel import JITTER_RUNGS
from probitgp.model_io import number_text
import probitgp
import probitgp.cli as cli_module

FAST_FIT = ["--e-iters", "8", "--m-iters", "1", "--rounds", "2"]


def write_blobs_csv(path, n=18, seed=0, zero_one=False):
    ds = helpers.make_blobs(n, 2, seed)
    with open(path, "w") as fh:
        for row, label in zip(ds.X, ds.y):
            lab = int((label + 1) // 2) if zero_one else int(label)
            fh.write(f"{float(row[0])!r},{float(row[1])!r},{lab}\n")
    return ds


def rerun_from_header(path):
    """Re-execute the resolved command recorded in a CSV's first line."""
    with open(path) as fh:
        header = fh.readline()
    assert header.startswith("# probitgp ")
    argv = shlex.split(header[2:].strip())[1:]
    return run(argv)


class TestFit:
    def test_fit_writes_model_and_trace(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        write_blobs_csv(data)
        model = tmp_path / "m.model"
        code = run(["fit", "--data", str(data), "--out", str(model), *FAST_FIT])
        assert code == 0
        assert model.exists()
        trace = tmp_path / "m.model.trace.csv"
        lines = trace.read_text().splitlines()
        assert lines[0].startswith("# probitgp fit ")
        assert lines[1] == "round,objective,elbo,log_lengthscale,log_magnitude"
        assert "fit train:" in capsys.readouterr().out
        art = load_model(model)
        assert art.objective == "elbo"
        assert art.sites.n == 18

    def test_fit_header_replay_is_bit_exact(self, tmp_path):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, seed=1)
        model = tmp_path / "m.model"
        run(["fit", "--data", str(data), "--out", str(model), *FAST_FIT])
        trace = tmp_path / "m.model.trace.csv"
        model_bytes, trace_bytes = model.read_bytes(), trace.read_bytes()
        assert rerun_from_header(trace) == 0
        assert model.read_bytes() == model_bytes
        assert trace.read_bytes() == trace_bytes

    def test_zero_one_labels_accepted(self, tmp_path):
        data = tmp_path / "zo.csv"
        write_blobs_csv(data, seed=2, zero_one=True)
        model = tmp_path / "m.model"
        assert run(["fit", "--data", str(data), "--out", str(model), *FAST_FIT]) == 0

    @pytest.mark.parametrize("tol,stopped", [
        ("0", "stopped=round_cap"),
        ("10", "stopped=tolerance"),
    ])
    def test_summary_says_why_fit_stopped(self, tmp_path, capsys, tol, stopped):
        """--tol 0 runs every round to the cap; a tolerance no step can
        exceed stops after round 1.  The trace CSV is the same either way
        but for its length."""
        data = tmp_path / "train.csv"
        write_blobs_csv(data, seed=8)
        model = tmp_path / "m.model"
        code = run(["fit", "--data", str(data), "--out", str(model),
                    "--e-iters", "8", "--m-iters", "1", "--rounds", "3", "--tol", tol])
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("fit train: rounds=")
        assert line.endswith(stopped)
        rounds = 3 if tol == "0" else 1
        assert f"rounds={rounds} " in line
        trace = (tmp_path / "m.model.trace.csv").read_text().splitlines()
        assert trace[1] == "round,objective,elbo,log_lengthscale,log_magnitude"
        assert len(trace) == 2 + rounds


class TestPredict:
    def fitted(self, tmp_path, seed=3):
        data = tmp_path / "train.csv"
        ds = write_blobs_csv(data, seed=seed)
        model = tmp_path / "m.model"
        run(["fit", "--data", str(data), "--out", str(model), *FAST_FIT])
        return data, model, ds

    def test_predict_train_rows(self, tmp_path):
        data, model, ds = self.fitted(tmp_path)
        out = tmp_path / "pred.csv"
        code = run(["predict", "--model", str(model), "--data", str(data),
                    "--label", "last", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "row,p_positive,label"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == ds.n
        probs = np.array([float(r[1]) for r in rows])
        labels = np.array([float(r[2]) for r in rows])
        assert np.all((probs >= 0) & (probs <= 1))
        assert set(labels) <= {-1.0, 1.0}
        # separable blobs: the in-sample fit should label most points right
        assert np.mean(labels == ds.y) > 0.8

    def test_predict_header_replay_is_bit_exact(self, tmp_path):
        data, model, _ = self.fitted(tmp_path, seed=4)
        out = tmp_path / "pred.csv"
        run(["predict", "--model", str(model), "--data", str(data),
             "--label", "last", "--out", str(out)])
        before = out.read_bytes()
        assert rerun_from_header(out) == 0
        assert out.read_bytes() == before

    def test_rows_are_written_as_the_generic_csv_form(self, tmp_path):
        """Each predictions line is what _write_csv's generic form writes for
        (row, p, label): number_text of an int, a float and an int, comma-joined."""
        data, model, _ = self.fitted(tmp_path, seed=9)
        out = tmp_path / "pred.csv"
        assert run(["predict", "--model", str(model), "--data", str(data),
                    "--label", "last", "--out", str(out)]) == 0
        artifact = load_model(model)
        X = probitgp.read_feature_rows(data, "last")
        Xs = (X - artifact.feature_mean) / artifact.feature_scale
        post = probitgp.assemble(probitgp.gram(artifact.features, artifact.theta), artifact.sites)
        p = ndtr(probitgp.predictive_z(post.scoring(), Xs))
        expected = ["row,p_positive,label"] + [
            ",".join(number_text(v) for v in (i, p[i], 1 if p[i] >= 0.5 else -1))
            for i in range(p.size)
        ]
        assert out.read_text().splitlines()[1:] == expected

    @pytest.mark.parametrize("block,value", [
        ("features", "nan"),
        ("feature_mean", "inf"),
        ("feature_scale", "-inf"),
        ("feature_scale", "0"),
    ])
    def test_corrupt_model_block_is_usage_error(self, tmp_path, capsys, block, value):
        """A model with a non-finite or non-positive block is rejected at load,
        naming the file and the block, before any scoring."""
        data, model, _ = self.fitted(tmp_path, seed=6)
        lines = model.read_text().splitlines()
        row = lines.index(f"{block}:") + 1
        lines[row] = " ".join([value] + lines[row].split()[1:])
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run(["predict", "--model", str(model), "--data", str(data),
                    "--label", "last", "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ") and block in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("key", [
        "name", "objective", "log_lengthscale", "log_magnitude", "n", "d",
    ])
    def test_model_without_a_required_key_is_usage_error(self, tmp_path, capsys, key):
        """A model file missing a key= line exits 1, naming the file and the
        key, and writes no output."""
        data, model, _ = self.fitted(tmp_path, seed=6)
        lines = [line for line in model.read_text().splitlines()
                 if not line.startswith(f"{key}=")]
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run(["predict", "--model", str(model), "--data", str(data),
                    "--label", "last", "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(model) in err and f"missing keys ['{key}']" in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("line", ["jitter=x", "jitter=1e-4", "n=x", "objective=zzz",
                                      "n=0", "d=0"])
    def test_model_with_a_bad_key_value_is_usage_error(self, tmp_path, capsys, line):
        """A key= line whose value does not parse, a model with no rows or no
        columns, or an objective the trainer does not know, exits 1 naming
        the file and the key, with no output.
        So does any jitter but none: gram picks the jitter, and predicting
        from another K than the model's would be silently wrong."""
        data, model, _ = self.fitted(tmp_path, seed=6)
        key = line.partition("=")[0]
        lines = model.read_text().splitlines()
        if key == "jitter":  # no longer written: put it where older files had it
            lines.insert(lines.index("objective=elbo") + 1, "jitter=")
        lines = [line if old.startswith(f"{key}=") else old for old in lines]
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run(["predict", "--model", str(model), "--data", str(data),
                    "--label", "last", "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(model) in err and f"key '{key}'" in err
        assert not (tmp_path / "o.csv").exists()

    def test_model_with_a_seed_line_predicts_the_same_bytes(self, tmp_path):
        """Model files written while fit took --seed carry a seed= line after
        objective=.  load_model skips it: predict writes the same file, byte
        for byte, as from the model without it."""
        data, model, _ = self.fitted(tmp_path, seed=6)
        out = tmp_path / "pred.csv"
        argv = ["predict", "--model", str(model), "--data", str(data),
                "--label", "last", "--out", str(out)]
        assert run(argv) == 0
        without = out.read_bytes()
        lines = model.read_text().splitlines()
        assert not any(line.startswith("seed=") for line in lines)
        lines.insert(lines.index("objective=elbo") + 1, "seed=0")
        model.write_text("\n".join(lines) + "\n")
        assert load_model(model).objective == "elbo"
        assert run(argv) == 0
        assert out.read_bytes() == without

    def test_model_with_a_jitter_none_line_predicts_the_same_bytes(self, tmp_path):
        """Model files of fits before gram alone picked the jitter carry
        jitter=none after objective=, and predict reads them as before."""
        data, model, _ = self.fitted(tmp_path, seed=6)
        out = tmp_path / "pred.csv"
        argv = ["predict", "--model", str(model), "--data", str(data),
                "--label", "last", "--out", str(out)]
        assert run(argv) == 0
        without = out.read_bytes()
        lines = model.read_text().splitlines()
        assert not any(line.startswith("jitter=") for line in lines)
        lines.insert(lines.index("objective=elbo") + 1, "jitter=none")
        model.write_text("\n".join(lines) + "\n")
        assert run(argv) == 0
        assert out.read_bytes() == without

    def test_model_with_a_bad_block_value_names_the_block(self, tmp_path, capsys):
        data, model, _ = self.fitted(tmp_path, seed=6)
        lines = model.read_text().splitlines()
        row = lines.index("lambda1:") + 1
        lines[row] = " ".join(["x"] + lines[row].split()[1:])
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run(["predict", "--model", str(model), "--data", str(data),
                    "--label", "last", "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(model) in err and "'lambda1'" in err
        assert not (tmp_path / "o.csv").exists()

    def test_feature_count_mismatch_is_usage_error(self, tmp_path, capsys):
        _, model, _ = self.fitted(tmp_path, seed=5)
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0,3.0,1\n4.0,5.0,6.0,0\n")
        code = run(["predict", "--model", str(model), "--data", str(bad),
                    "--label", "last", "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "feature count" in err and str(bad) in err

    @pytest.mark.parametrize("culprit", ["model", "data"])
    def test_file_that_is_not_utf8_is_named(self, tmp_path, capsys, culprit):
        """A byte that is not UTF-8 in either input names that file."""
        data, model, _ = self.fitted(tmp_path, seed=6)
        bad = {"model": model, "data": data}[culprit]
        bad.write_bytes(bad.read_bytes().replace(b"\n", b"\n\xe9", 1))
        capsys.readouterr()
        code = run(["predict", "--model", str(model), "--data", str(data),
                    "--label", "last", "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (invalid continuation byte)\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("body,reason", [
        ("x1,x2,label\n", "no data rows"),
        ("1.0,2.0,1\nnan,5.0,0\n", "non-finite"),
    ])
    def test_unusable_rows_are_usage_errors(self, tmp_path, capsys, body, reason):
        """A header-only CSV and a non-finite cell exit 1, naming the file,
        and write no output."""
        _, model, _ = self.fitted(tmp_path, seed=7)
        bad = tmp_path / "rows.csv"
        bad.write_text(body)
        capsys.readouterr()
        code = run(["predict", "--model", str(model), "--data", str(bad),
                    "--label", "last", "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(bad) in err and reason in err
        assert not (tmp_path / "o.csv").exists()

    def test_row_that_overflows_standardization_is_named(self, tmp_path, capsys):
        """Finite cells whose standardized value overflows are rejected before
        scoring: exit 1, the row named, no output and no RuntimeWarning."""
        _, model, _ = self.fitted(tmp_path, seed=8)
        lines = model.read_text().splitlines()
        row = lines.index("feature_scale:") + 1
        lines[row] = " ".join(["1e-300"] + lines[row].split()[1:])
        model.write_text("\n".join(lines) + "\n")
        rows = tmp_path / "rows.csv"
        rows.write_text("0.5,0.5\n1e10,0.5\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["predict", "--model", str(model), "--data", str(rows),
                        "--out", str(tmp_path / "o.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(rows) in err and "row 1" in err and "standardized" in err
        assert not (tmp_path / "o.csv").exists()

    def test_row_whose_kernel_overflows_is_named(self, tmp_path, capsys):
        """A finite standardized cell of 1e200 passes the standardization
        check but its squared distance overflows; the kernel check names the
        row: exit 1, no output and no RuntimeWarning."""
        _, model, _ = self.fitted(tmp_path, seed=9)
        rows = tmp_path / "rows.csv"
        rows.write_text("0.5,0.5\n1e200,0.5\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["predict", "--model", str(model), "--data", str(rows),
                        "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "row 1" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_one_feature_model_scores_one_column_file(self, tmp_path, capsys):
        """A model fit on x,label scores an unlabeled one-column file."""
        data = tmp_path / "train.csv"
        data.write_text("x,label\n0.1,0\n0.2,0\n0.5,1\n0.8,1\n0.9,1\n")
        model = tmp_path / "m.model"
        assert run(["fit", "--data", str(data), "--out", str(model), *FAST_FIT]) == 0
        rows = tmp_path / "rows.csv"
        rows.write_text("0.3\n0.6\n")
        out = tmp_path / "pred.csv"
        capsys.readouterr()
        code = run(["predict", "--model", str(model), "--data", str(rows),
                    "--label", "none", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert lines[1] == "row,p_positive,label"
        assert [line.split(",")[0] for line in lines[2:]] == ["0", "1"]

    def test_one_column_file_still_needs_a_label_to_train(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("0.1\n0.9\n")
        code = run(["fit", "--data", str(data), "--out", str(tmp_path / "m.model")])
        assert code == 1
        assert "need at least one feature and one label column" in capsys.readouterr().err


class TestGrid:
    def test_schema_and_determinism_across_jobs(self, tmp_path):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, n=15, seed=6)
        base = ["grid", "--data", str(data), "--lo", "-0.5", "--hi", "0.5",
                "--points", "2", "--methods", "vi,ours,mcmc",
                "--e-iters", "10", "--ais-T", "40", "--ais-repeats", "1"]
        out1, out2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        assert run(base + ["--out", str(out1), "--jobs", "1"]) == 0
        assert run(base + ["--out", str(out2), "--jobs", "2"]) == 0
        lines1 = out1.read_text().splitlines()
        lines2 = out2.read_text().splitlines()
        assert lines1[1] == "log_lengthscale,log_magnitude,method,lml_per_n,lpd_per_n"
        # identical apart from the recorded --out/--jobs flags in the header
        assert lines1[1:] == lines2[1:]
        assert len(lines1) == 2 + 2 * 2 * 3

    def test_header_replay_is_bit_exact(self, tmp_path):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, n=15, seed=7)
        out = tmp_path / "g.csv"
        assert run(["grid", "--data", str(data), "--out", str(out),
                    "--lo", "0", "--hi", "1", "--points", "2",
                    "--methods", "vi,ours", "--e-iters", "10"]) == 0
        before = out.read_bytes()
        assert rerun_from_header(out) == 0
        assert out.read_bytes() == before

    def test_values_round_trip_through_text(self, tmp_path):
        """%.17g columns parse back to the exact float64 they came from."""
        data = tmp_path / "train.csv"
        write_blobs_csv(data, n=15, seed=8)
        out = tmp_path / "g.csv"
        run(["grid", "--data", str(data), "--out", str(out), "--lo", "0",
             "--hi", "1", "--points", "2", "--methods", "vi", "--e-iters", "10"])
        for line in out.read_text().splitlines()[2:]:
            val = line.split(",")[3]
            assert "%.17g" % float(val) == val

    def test_bad_method_is_usage_error(self, tmp_path):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, n=15, seed=9)
        code = run(["grid", "--data", str(data), "--out", str(tmp_path / "g.csv"),
                    "--methods", "vi,laplace"])
        assert code == 1


class TestCv:
    def test_fold_and_summary_files(self, tmp_path):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, n=20, seed=10)
        out = tmp_path / "cv.csv"
        code = run(["cv", "--data", str(data), "--out", str(out),
                    "--e-iters", "5", "--m-iters", "1", "--rounds", "1"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "dataset,fold,method,accuracy,lpd"
        assert len(lines) == 2 + 5 * 2  # 5 folds x {vi, ours}
        summary = tmp_path / "cv.summary.csv"
        slines = summary.read_text().splitlines()
        assert slines[1] == "dataset,metric,method,mean,sd,t,p"
        assert len(slines) == 2 + 4  # 2 metrics x 2 methods
        baseline_acc = slines[2].split(",")
        assert baseline_acc[2] == "vi" and baseline_acc[5] == "0" and baseline_acc[6] == "1"

    @pytest.mark.parametrize("methods", ["vi,ours", "ours"])
    def test_summary_tests_each_method_against_the_first(self, tmp_path, methods):
        """Each summary row's t and p are the paired test of the first
        method's fold column against that row's method's column."""
        data = tmp_path / "train.csv"
        write_blobs_csv(data, n=20, seed=12)
        out = tmp_path / "cv.csv"
        assert run(["cv", "--data", str(data), "--out", str(out), "--methods", methods,
                    "--e-iters", "5", "--m-iters", "1", "--rounds", "1"]) == 0
        folds = {}
        for line in out.read_text().splitlines()[2:]:
            _, _, method, accuracy, lpd = line.split(",")
            folds.setdefault(("accuracy", method), []).append(float(accuracy))
            folds.setdefault(("lpd", method), []).append(float(lpd))
        first = methods.split(",")[0]
        rows = (tmp_path / "cv.summary.csv").read_text().splitlines()[2:]
        assert len(rows) == 2 * len(methods.split(","))
        for line in rows:
            _, metric, method, _, _, t, p = line.split(",")
            want = paired_t_test(folds[(metric, first)], folds[(metric, method)])
            assert (float(t), float(p)) == want

    def test_cv_rejects_untrainable_methods(self, tmp_path):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, n=20, seed=11)
        code = run(["cv", "--data", str(data), "--out", str(tmp_path / "c.csv"),
                    "--methods", "vi,ep"])
        assert code == 1

    def test_objective_flag_is_gone(self, tmp_path):
        """cross_validate fixes each method's objective, so cv has no --objective."""
        data = tmp_path / "train.csv"
        write_blobs_csv(data, n=20, seed=11)
        code = run(["cv", "--data", str(data), "--out", str(tmp_path / "c.csv"),
                    "--objective", "elbo"])
        assert code == 1
        assert not (tmp_path / "c.csv").exists()


class TestAis:
    def test_stdout_line_and_optional_csv(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, n=10, seed=12)
        code = run(["ais", "--data", str(data), "--ais-T", "50", "--ais-repeats", "2"])
        assert code == 0
        out_line = capsys.readouterr().out.strip()
        assert out_line.startswith("log_ml=") and "per_repeat=" in out_line
        csv_out = tmp_path / "a.csv"
        assert run(["ais", "--data", str(data), "--ais-T", "50",
                    "--ais-repeats", "2", "--out", str(csv_out)]) == 0
        lines = csv_out.read_text().splitlines()
        assert lines[1] == "quantity,value"
        assert len(lines) == 2 + 1 + 2

    def test_header_replay_matches(self, tmp_path):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, n=10, seed=13)
        csv_out = tmp_path / "a.csv"
        run(["ais", "--data", str(data), "--ais-T", "40",
             "--ais-repeats", "1", "--out", str(csv_out)])
        before = csv_out.read_bytes()
        assert rerun_from_header(csv_out) == 0
        assert csv_out.read_bytes() == before


class TestSmallAndDegenerateData:
    def test_cv_with_a_one_class_training_fold(self, tmp_path):
        """Six rows with one positive: the fold that holds it out trains on
        negatives alone, and every fold still scores finite numbers."""
        data, out = tmp_path / "six.csv", tmp_path / "cv.csv"
        data.write_text("a,b,c\n" + "".join(f"{0.5 * i},{(3 * i) % 4},{int(i == 2)}\n"
                                            for i in range(6)))
        assert run(["cv", "--data", str(data), "--out", str(out), "--rounds", "10"]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert len(rows) == 5 * 2
        assert all(np.isfinite(float(v)) for row in rows for v in row[3:])

    @pytest.mark.parametrize("command", ["fit", "cv"])
    def test_identical_feature_rows(self, tmp_path, command):
        """Eight copies of one feature row: a rank-one kernel that only
        jitter makes factorable."""
        data = tmp_path / "same.csv"
        data.write_text("a,b,c\n" + "".join(f"1.5,-2,{i % 2}\n" for i in range(8)))
        out = tmp_path / "out"
        assert run([command, "--data", str(data), "--out", str(out), "--rounds", "10"]) == 0

    @pytest.mark.parametrize("command", ["grid", "cv"])
    def test_fewer_rows_than_folds(self, tmp_path, capsys, command):
        """The held-out protocol's 5 folds need 5 rows; the error says so."""
        data = tmp_path / "two.csv"
        data.write_text("a,b\n0.1,0\n0.7,1\n")
        assert run([command, "--data", str(data), "--out", str(tmp_path / "out.csv")]) == 1
        assert "5 folds need n >= 5 rows, got n=2" in capsys.readouterr().err


# every subcommand's flags it does not have
UNKNOWN_FLAGS = [(command, flag) for flag in ("--jitter", "--no-such-flag")
                 for command in cli_module._SPECS] + [("grid", "--e-step-size")]


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = run(["fit", "--data", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "m.model")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_label_column_is_usage_error(self, tmp_path):
        data = tmp_path / "d.csv"
        write_blobs_csv(data, n=10, seed=14)
        assert run(["fit", "--data", str(data), "--label", "missing",
                    "--out", str(tmp_path / "m.model")]) == 1

    def test_csv_that_cannot_be_split_is_usage_error(self, tmp_path, capsys):
        """A field over the csv module's size limit exits 1 naming the file,
        not with a traceback."""
        data = tmp_path / "huge.csv"
        data.write_text("1," + "7" * 200_000 + ",0\n2,3,1\n")
        code = run(["fit", "--data", str(data), "--out", str(tmp_path / "m.model")])
        assert code == 1
        assert str(data) in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run(["fit", "--help"]) == 0
        assert "--objective" in capsys.readouterr().out

    def test_numeric_failures_map_to_two(self, monkeypatch):
        def boom(args):
            raise NumericsError("synthetic failure")

        monkeypatch.setitem(cli_module._HANDLERS, "ais", boom)
        code = run(["ais", "--data", "irrelevant.csv"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["fit", "--tol", "nan"], ["fit", "--tol", "inf"], ["cv", "--tol", "nan"],
        ["cv", "--tol", "inf"], ["fit", "--tol", "-1"],
    ])
    def test_non_finite_training_settings_rejected(self, tmp_path, capsys, argv):
        """A NaN tolerance would switch the tolerance off, an infinite one
        would end every fit after its first round, and a negative one can
        never be met."""
        data, out = tmp_path / "d.csv", tmp_path / "out"
        write_blobs_csv(data, n=10, seed=15)
        command, *flags = argv
        assert run([command, "--data", str(data), "--out", str(out), *flags]) == 1
        assert "outer_tol must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, setting", [
        (["grid", "--points", "2", "--ais-T", "20", "--seed", "-1"], "seed"),
        (["cv", "--seed", "-1"], "seed"),
        (["cv", "--e-step-size", "2"], "e_step_size"),
        (["grid", "--jobs", "0"], "jobs must be >= 1"),
        (["grid", "--jobs", "-1"], "jobs must be >= 1"),
        (["cv", "--jobs", "0"], "jobs must be >= 1"),
        (["cv", "--jobs", "-1"], "jobs must be >= 1"),
    ])
    def test_bad_sweep_settings_named_before_any_cell(self, tmp_path, capsys, monkeypatch,
                                                       argv, setting):
        """A negative seed, an E-step size outside (0, 1] or a worker count
        below 1 exits 1 with a message naming the setting, before the first
        grid cell or CV fold."""
        started = []
        monkeypatch.setattr(probitgp.harness, "_sweep_cell", started.append)
        monkeypatch.setattr(probitgp.harness, "_cv_task", started.append)
        data, out = tmp_path / "d.csv", tmp_path / "out.csv"
        write_blobs_csv(data, n=6, seed=16)
        command, *flags = argv
        assert run([command, "--data", str(data), "--out", str(out), *flags]) == 1
        assert setting in capsys.readouterr().err
        assert started == [] and not out.exists()

    @pytest.mark.parametrize("flag, value, setting", [
        ("--e-iters", "-1", "e_iters"), ("--ais-T", "0", "steps"),
        ("--ais-repeats", "0", "repeats"), ("--seed", "-1", "seed"),
    ])
    def test_grid_settings_named_before_the_data_file_is_read(self, tmp_path, capsys,
                                                              flag, value, setting):
        missing = tmp_path / "missing.csv"
        assert run(["grid", "--data", str(missing), "--out", str(tmp_path / "out.csv"),
                    flag, value]) == 1
        err = capsys.readouterr().err
        assert setting in err and str(missing) not in err

    @pytest.mark.parametrize("command, flag", UNKNOWN_FLAGS,
                             ids=[f"{flag}-{command}" for command, flag in UNKNOWN_FLAGS])
    def test_unknown_flag_is_usage_error(self, tmp_path, capsys, flag, command):
        """Every subcommand answers a flag it does not have, the --jitter that
        gram's ladder made redundant among them, with exit 1 and its own usage
        on stderr.  grid's E-step runs at cvi.STEP_SIZE, so grid has no
        --e-step-size."""
        data = tmp_path / "d.csv"
        write_blobs_csv(data, n=10, seed=15)
        required = [arg for name, kwargs in cli_module._SPECS[command]
                    if kwargs.get("required") for arg in (name, str(data))]
        assert run([command, *required, flag, "1e-4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: probitgp {command} ")
        assert f"unrecognized arguments: {flag} 1e-4" in err

    def test_unknown_flag_before_the_subcommand_gets_the_program_usage(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        write_blobs_csv(data, n=10, seed=15)
        assert run(["--no-such-flag", "ais", "--data", str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: probitgp [-h] {fit,")
        assert "unrecognized arguments: --no-such-flag" in err


class TestJitterLadderEnd:
    """A Gram matrix that no jitter rung makes factorable, forced by a
    Cholesky whose first five calls fail: no kernel of a test's size needs
    more than the first rung."""

    @pytest.mark.parametrize("command", ["fit", "ais"])
    def test_fit_and_ais_exit_two(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(probitgp.kernel, "cholesky", helpers.failing_cholesky(JITTER_RUNGS))
        data, out = tmp_path / "d.csv", tmp_path / "out"
        write_blobs_csv(data, n=10, seed=17)
        assert run([command, "--data", str(data), "--out", str(out)]) == 2
        assert "jitter escalation" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_writes_nan_for_that_cell_only(self, tmp_path, monkeypatch):
        """Only the first cell's Gram matrix meets the five failures."""
        monkeypatch.setattr(probitgp.kernel, "cholesky", helpers.failing_cholesky(JITTER_RUNGS))
        data, out = tmp_path / "d.csv", tmp_path / "g.csv"
        write_blobs_csv(data, n=15, seed=18)
        assert run(["grid", "--data", str(data), "--out", str(out), "--points", "2",
                    "--e-iters", "10", "--ais-T", "40", "--ais-repeats", "1"]) == 0
        cells = {}
        for row in out.read_text().splitlines()[2:]:
            ll, ls, method, lml, lpd = row.split(",")
            # the mcmc rows hold no held-out density
            values = [float(lml)] if method == "mcmc" else [float(lml), float(lpd)]
            cells.setdefault((ll, ls), []).extend(values)
        assert len(cells) == 4
        nan_cells = [cell for cell, values in cells.items() if np.isnan(values).all()]
        assert len(nan_cells) == 1
        assert all(np.isfinite(values).all() for cell, values in cells.items()
                   if cell not in nan_cells)


TEN_ROWS = "a,b,c\n" + "".join(f"{0.3 * i},{(7 * i) % 5},{i % 2}\n" for i in range(10))

# (argv after --data and --out, exit code, what a fit that exits 0 prints
# as stopped=, M-step step in place of trainer.M_STEP or None): hyperparameters
# past what the floats can hold or the E-step can follow, and M-step steps
# that throw their probes there (1e6: every probe rejected) or past the
# floats (1.7e308: every step overflows).  The grids run a short AIS chain;
# it is not what fails.
EXTREME_RUNS = [
    (["fit", "--log-magnitude", "800"], 2, None, None),
    (["fit", "--log-magnitude", "-400"], 2, None, None),
    (["fit", "--log-magnitude", "360"], 2, None, None),
    (["fit", "--log-magnitude", "300"], 0, "stalled", None),
    (["fit", "--log-lengthscale", "-800"], 2, None, None),
    (["fit", "--log-lengthscale", "800"], 0, "round_cap", None),
    (["fit", "--rounds", "3"], 0, "stalled", 1.7e308),
    (["ais", "--log-magnitude", "800"], 2, None, None),
    (["ais", "--log-magnitude", "-400"], 2, None, None),
    (["cv", "--rounds", "2"], 0, None, 1e6),
    (["grid", "--points", "2", "--hi", "800"], 0, None, None),
    (["grid", "--points", "2", "--lo", "0", "--hi", "20"], 0, None, None),
    (["grid", "--points", "2", "--lo", "-50", "--hi", "50"], 0, None, None),
    (["grid", "--points", "2", "--lo", "0", "--hi", "15"], 0, None, None),
]
EXTREME_SECONDS = 10


class _Overtime(Exception):
    pass


@contextmanager
def time_limit(seconds):
    """Raise _Overtime in the running code once seconds have passed."""
    def expire(signum, frame):
        raise _Overtime(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "argv, expected, stopped, m_step", EXTREME_RUNS,
    ids=[" ".join(a).replace("--", "") + ("" if m is None else f" M_STEP {m:g}")
         for a, _, _, m in EXTREME_RUNS],
)
def test_extreme_hyperparameters_exit_cleanly_in_time(tmp_path, capsys, monkeypatch, argv,
                                                      expected, stopped, m_step):
    """Each run ends within the time limit with 0 or 2 and no traceback.  A
    fit says why it stopped, and a grid writes all 16 rows, each value
    finite or NaN (a failed cell)."""
    if m_step is not None:
        monkeypatch.setattr(probitgp.trainer, "M_STEP", m_step)
    data, out = tmp_path / "ten.csv", tmp_path / "out.csv"
    data.write_text(TEN_ROWS)
    command, *flags = argv
    if command == "grid":
        flags += ["--ais-T", "200", "--ais-repeats", "1"]
    with time_limit(EXTREME_SECONDS):
        code = run([command, "--data", str(data), "--out", str(out), *flags])
    assert code == expected
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if stopped:
        assert captured.out.rstrip().endswith(f"stopped={stopped}")
    if command == "grid":
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert len(rows) == 16
        assert all(not np.isinf(float(v)) for row in rows for v in row[3:])


SMALL_BUDGETS = {"--points": "2", "--ais-T": "20", "--e-iters": "2", "--rounds": "1",
                 "--m-iters": "1"}
TYPED_FLAGS = [(command, flag) for command, flags in cli_module._SPECS.items()
               for flag, kwargs in flags if "type" in kwargs]


def small_budgets(command):
    """SMALL_BUDGETS' flags that command has, as argv."""
    flags = dict(cli_module._SPECS[command])
    return [arg for name, value in SMALL_BUDGETS.items() if name in flags for arg in (name, value)]


@pytest.fixture(scope="module")
def ten_rows_and_model(tmp_path_factory):
    """TEN_ROWS as a CSV and a model fit on it, for predict's cases."""
    folder = tmp_path_factory.mktemp("bad_values")
    data, model = folder / "ten.csv", folder / "m.model"
    data.write_text(TEN_ROWS)
    assert run(["fit", "--data", str(data), "--out", str(model), *small_budgets("fit")]) == 0
    return data, model


@pytest.mark.parametrize("value", ["x", "nan", "inf", "-1"])
@pytest.mark.parametrize("command, flag", TYPED_FLAGS, ids=[" ".join(cf) for cf in TYPED_FLAGS])
def test_bad_flag_value_exits_cleanly(ten_rows_and_model, tmp_path, monkeypatch, capsys,
                                      command, flag, value):
    """Every typed flag, given a word, NaN, infinity or -1, ends with 0, 1 or
    2 and no traceback; a value its type cannot parse exits 1 with the
    subcommand's usage.  The bad value comes after the small budgets, so it
    overrides a budget flag's own."""
    monkeypatch.chdir(tmp_path)  # ais --out x writes the file x
    data, model = ten_rows_and_model
    argv = [command, "--data", str(data), "--out", str(tmp_path / "out"), *small_budgets(command)]
    if command == "predict":
        argv += ["--model", str(model)]
    capsys.readouterr()
    code = run([*argv, flag, value])
    err = capsys.readouterr().err
    assert code in (0, 1, 2) and "Traceback" not in err
    try:
        dict(cli_module._SPECS[command])[flag]["type"](value)
    except ValueError:
        assert code == 1 and err.startswith(f"usage: probitgp {command} ")


# (training CSV bytes, whether the error must name the file): each makes
# every training subcommand exit 1 before any work
MALFORMED_CSVS = {
    "empty": (b"", False),
    "blank_only": (b"\n  \n\n", False),
    "header_only": (b"a,b,c\n", False),
    "ragged": (f"{TEN_ROWS}1,2\n".encode(), False),
    "one_class": (TEN_ROWS.replace(",0\n", ",1\n").encode(), False),
    "three_labels": (f"{TEN_ROWS}0.5,1,2\n".encode(), False),
    "one_column": (b"".join(b"%d\n" % (i % 2) for i in range(10)), False),
    "inf_cell": (f"{TEN_ROWS}inf,1,0\n".encode(), False),
    "not_utf8": (TEN_ROWS.encode() + b"0.5,caf\xe9,1\n", True),
    "overflowing_column": (
        ("1e200,1,1\n-1e200,2,0\n" + "".join(TEN_ROWS.splitlines(True)[1:5])).encode(), True
    ),
}


@pytest.mark.parametrize("case", list(MALFORMED_CSVS))
@pytest.mark.parametrize("command", ["fit", "grid", "cv", "ais"])
def test_malformed_training_csv_exits_one(tmp_path, capsys, command, case):
    """An unusable training file exits 1 with one error line, no traceback,
    no warning and no output file; a file that is not UTF-8 text, or whose
    column overflows standardization, is named.  Every subcommand reports
    the overflowing column in fit's words: grid and cv standardize a fold's
    rows, but under the file's name."""
    body, named = MALFORMED_CSVS[case]
    data = tmp_path / f"{case}.csv"
    data.write_bytes(body)
    out = tmp_path / "out" / "o.csv"
    out.parent.mkdir()
    argv = [command, "--data", str(data), "--out", str(out), *small_budgets(command)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv)
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
    assert not named or data.stem in err
    assert not list(out.parent.iterdir())
    if case == "overflowing_column":
        assert run(["fit", "--data", str(data), "--out", str(out), *small_budgets("fit")]) == 1
        assert capsys.readouterr().err == err


# predict --data inputs that exit 1, each with an error naming the file: the
# training table's unreadable files, a row wider than the model's, and a row
# whose squared distances to the training rows overflow
PREDICT_CSVS = {
    **{case: MALFORMED_CSVS[case][0] for case in (
        "empty", "blank_only", "header_only", "ragged", "inf_cell", "not_utf8")},
    "wrong_width": b"a,b,c,d\n1,2,3,1\n",
    "kernel_overflow": b"a,b,c\n1e308,1e308,1\n",
}


@pytest.mark.parametrize("case", list(PREDICT_CSVS))
def test_malformed_predict_data_exits_one(ten_rows_and_model, tmp_path, capsys, case):
    """An unusable --data file exits 1 with one error line naming it, no
    traceback, no warning and no output file."""
    _, model = ten_rows_and_model
    data = tmp_path / f"{case}.csv"
    data.write_bytes(PREDICT_CSVS[case])
    out = tmp_path / "out" / "p.csv"
    out.parent.mkdir()
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["predict", "--model", str(model), "--data", str(data), "--label", "last",
                    "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith(f"error: {data}") and err.count("\n") == 1, err
    assert not list(out.parent.iterdir())
    if case == "kernel_overflow":
        assert "test row 0: kernel values are not finite" in err


def _set_first(block, value):
    """Edit of a model file's lines: the first value of block becomes value."""
    def edit(lines):
        row = lines.index(f"{block}:") + 1
        lines[row] = " ".join([value] + lines[row].split()[1:])
        return lines
    return edit


def _set_key(key, value):
    return lambda lines: [f"{key}={value}" if line.startswith(f"{key}=") else line
                          for line in lines]


def _repeat_key(key, value):
    def edit(lines):
        row = next(i for i, line in enumerate(lines) if line.startswith(f"{key}="))
        return lines[:row + 1] + [f"{key}={value}"] + lines[row + 1:]
    return edit


def _repeat_block(block):
    def edit(lines):
        start = lines.index(f"{block}:")
        end = next(i for i in range(start + 1, len(lines)) if lines[i].endswith(":"))
        return lines + lines[start:end]
    return edit


# (edit of the model file's lines, what the error must name besides the file);
# the model fit on TEN_ROWS has n=10 and d=2
CORRUPT_MODELS = {
    "repeated_key": (_repeat_key("log_lengthscale", "5"), "key 'log_lengthscale' is repeated"),
    "repeated_block": (_repeat_block("lambda1"), "block 'lambda1' is repeated"),
    "positive_lambda2": (_set_first("lambda2", "0.5"), "lam2 must be <= 0"),
    "nan_site": (_set_first("lambda1", "nan"), "site parameters must be finite"),
    "n_too_large": (_set_key("n", 11), "block 'lambda1' is short"),
    "n_too_small": (_set_key("n", 9), "block 'lambda1' has extra values"),
    "d_too_large": (_set_key("d", 3), "block 'feature_mean' is short"),
    "truncated": (lambda lines: lines[:-1], "block 'features' is short"),
}


@pytest.mark.parametrize("case", list(CORRUPT_MODELS))
def test_corrupt_model_exits_one(ten_rows_and_model, tmp_path, capsys, case):
    """A model file that load_model cannot take as written exits 1 with one
    error line naming the file and what is wrong, no traceback and no
    output file; none of them predicts from a silently altered model."""
    data, fitted = ten_rows_and_model
    edit, named = CORRUPT_MODELS[case]
    model = tmp_path / "m.model"
    model.write_text("\n".join(edit(fitted.read_text().splitlines())) + "\n")
    out = tmp_path / "out" / "p.csv"
    out.parent.mkdir()
    capsys.readouterr()
    code = run(["predict", "--model", str(model), "--data", str(data), "--label", "last",
                "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith(f"error: {model}: ") and err.count("\n") == 1, err
    assert named in err
    assert not list(out.parent.iterdir())


def test_overflowing_site_precision_exits_two(ten_rows_and_model, tmp_path, capsys):
    """A lambda2 entry of -1e308 is finite, so the model loads, but its
    precision overflows the posterior factor: predict exits 2 with one
    numeric-failure line, no traceback, no warning (which pytest would
    raise) and no output file."""
    data, fitted = ten_rows_and_model
    model = tmp_path / "m.model"
    edit = _set_first("lambda2", "-1e308")
    model.write_text("\n".join(edit(fitted.read_text().splitlines())) + "\n")
    out = tmp_path / "p.csv"
    capsys.readouterr()
    code = run(["predict", "--model", str(model), "--data", str(data), "--label", "last",
                "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("numeric failure: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and not out.exists()


def test_cli_import_leaves_scipy_stats_unloaded():
    """scipy.stats costs about a second of import time; the CLI needs none of it."""
    src = str(Path(probitgp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, probitgp.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
