"""Flat-text artifact round-trips and format validation."""

import numpy as np
import pytest

from probitgp import Hyperparams, ModelArtifact, Sites, load_model, save_model


def awkward_artifact():
    rng = np.random.default_rng(50)
    n, d = 5, 3
    feats = rng.standard_normal((n, d))
    feats[0, 0] = np.pi
    feats[1, 1] = 1.0 / 3.0
    feats[2, 2] = 1e-300
    feats[3, 0] = -1.2345678901234567e17
    return ModelArtifact(
        name="toy",
        objective="ep_like",
        jitter=None,
        theta=Hyperparams(0.1234567890123456, -1.0 / 7.0),
        sites=Sites(rng.standard_normal(n), -np.exp(rng.standard_normal(n))),
        feature_mean=rng.standard_normal(d),
        feature_scale=np.abs(rng.standard_normal(d)) + 0.1,
        features=feats,
    )


class TestRoundTrip:
    def test_bitwise_exact(self, tmp_path):
        art = awkward_artifact()
        p = tmp_path / "m.model"
        save_model(p, art)
        back = load_model(p)
        assert back.name == art.name
        assert back.objective == art.objective
        assert back.jitter is None
        assert back.theta == art.theta
        assert np.array_equal(back.sites.lam1, art.sites.lam1)
        assert np.array_equal(back.sites.lam2, art.sites.lam2)
        assert np.array_equal(back.feature_mean, art.feature_mean)
        assert np.array_equal(back.feature_scale, art.feature_scale)
        assert np.array_equal(back.features, art.features)
        assert back.features.shape == (5, 3)

    def test_save_is_deterministic(self, tmp_path):
        art = awkward_artifact()
        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        save_model(p1, art)
        save_model(p2, art)
        assert p1.read_bytes() == p2.read_bytes()

    def test_explicit_jitter_round_trips(self, tmp_path):
        art = awkward_artifact()
        art = ModelArtifact(
            name=art.name, objective=art.objective, jitter=3.5e-7, theta=art.theta, sites=art.sites,
            feature_mean=art.feature_mean, feature_scale=art.feature_scale,
            features=art.features,
        )
        p = tmp_path / "j.model"
        save_model(p, art)
        assert load_model(p).jitter == 3.5e-7

    def test_six_values_per_block_line(self, tmp_path):
        art = awkward_artifact()  # features block has 15 values -> 3 lines
        p = tmp_path / "w.model"
        save_model(p, art)
        lines = p.read_text().splitlines()
        start = lines.index("features:")
        assert len(lines[start + 1].split()) == 6
        assert len(lines[start + 2].split()) == 6
        assert len(lines[start + 3].split()) == 3


class TestValidation:
    def test_foreign_file_rejected(self, tmp_path):
        p = tmp_path / "x.model"
        p.write_text("format=other\nversion=1\n")
        with pytest.raises(ValueError):
            load_model(p)

    def test_unknown_version_rejected(self, tmp_path):
        art = awkward_artifact()
        p = tmp_path / "v.model"
        save_model(p, art)
        text = p.read_text().replace("version=1", "version=2")
        p.write_text(text)
        with pytest.raises(ValueError):
            load_model(p)

    def test_truncated_block_rejected(self, tmp_path):
        art = awkward_artifact()
        p = tmp_path / "t.model"
        save_model(p, art)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError):
            load_model(p)

    def test_missing_block_rejected(self, tmp_path):
        art = awkward_artifact()
        p = tmp_path / "mb.model"
        save_model(p, art)
        lines = p.read_text().splitlines()
        start = lines.index("lambda1:")
        del lines[start:start + 2]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            load_model(p)

    def test_artifact_shape_validation(self):
        art = awkward_artifact()
        with pytest.raises(ValueError):
            ModelArtifact(
                name="x", objective="elbo", jitter=None,
                theta=Hyperparams(), sites=Sites.zeros(4),
                feature_mean=np.zeros(3), feature_scale=np.ones(3),
                features=art.features,  # 5 rows vs 4 sites
            )
        with pytest.raises(ValueError):
            ModelArtifact(
                name="x", objective="elbo", jitter=None,
                theta=Hyperparams(), sites=Sites.zeros(5),
                feature_mean=np.zeros(2), feature_scale=np.ones(2),
                features=art.features,  # 3 columns vs 2 stats
            )
