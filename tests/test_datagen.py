import numpy as np
import pytest

from shiftlab.datagen import (
    Dataset,
    gen_gaussian_blobs,
    gen_two_moons,
    load_dataset,
    make_adversarial_source,
    save_dataset,
    split,
)
from shiftlab.errors import FormatError, ParameterError


def lda_accuracy(ds):
    """Closed-form two-class LDA oracle: train accuracy on the given sample."""
    X, y = ds.features, ds.labels
    mu0, mu1 = X[y == 0].mean(axis=0), X[y == 1].mean(axis=0)
    centered = np.vstack([X[y == 0] - mu0, X[y == 1] - mu1])
    cov = centered.T @ centered / len(X) + 1e-9 * np.eye(X.shape[1])
    w = np.linalg.solve(cov, mu1 - mu0)
    scores = X @ w
    thresh = 0.5 * (mu0 + mu1) @ w + np.log(np.mean(y == 0) / np.mean(y == 1))
    pred = (scores > thresh).astype(int)
    return np.mean(pred == y)


class TestTwoMoons:
    def test_zero_noise_points_on_unit_semicircles(self):
        ds = gen_two_moons(1000, 0.0, seed=7)
        r0 = np.linalg.norm(ds.features[ds.labels == 0] - [0.0, 0.0], axis=1)
        r1 = np.linalg.norm(ds.features[ds.labels == 1] - [1.0, 0.5], axis=1)
        assert np.allclose(r0, 1.0, atol=1e-12)
        assert np.allclose(r1, 1.0, atol=1e-12)

    def test_rotation_180_reflects_through_centroid(self):
        base = gen_two_moons(100, 0.0, seed=7)
        rot = gen_two_moons(100, 0.0, 180.0, seed=7)
        centroid = base.features.mean(axis=0)
        assert np.allclose(rot.features, 2 * centroid - base.features, atol=1e-9)

    def test_determinism(self):
        a = gen_two_moons(500, 0.1, 30.0, seed=3)
        b = gen_two_moons(500, 0.1, 30.0, seed=3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_rotation_roundtrip(self):
        base = gen_two_moons(200, 0.05, seed=5)
        centroid = gen_two_moons(200, 0.0, seed=5).features.mean(axis=0)
        fwd = gen_two_moons(200, 0.05, 73.0, seed=5)
        theta = np.deg2rad(-73.0)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        undone = (fwd.features - centroid) @ rot.T + centroid
        assert np.allclose(undone, base.features, atol=1e-9)

    @pytest.mark.parametrize("bad", [dict(n=1, noise=0.1), dict(n=100, noise=-0.1)])
    def test_rejects_bad_params(self, bad):
        with pytest.raises(ParameterError):
            gen_two_moons(**bad)

    @pytest.mark.parametrize("rotation", [400.0, -1.0, np.nan])
    def test_rotation_bound(self, rotation):
        with pytest.raises(ParameterError):
            gen_two_moons(10, 0.1, rotation)


class TestBlobs:
    def test_separable_blobs_lda_oracle(self):
        ds = gen_gaussian_blobs(200, 2, 2, 6.0, [0.5, 0.5], seed=1)
        assert lda_accuracy(ds) >= 0.99

    def test_degenerate_prior(self):
        ds = gen_gaussian_blobs(100, 2, 2, 3.0, [1.0, 0.0], seed=2)
        assert np.all(ds.labels == 0)

    def test_determinism(self):
        a = gen_gaussian_blobs(150, 3, 4, 5.0, [0.2, 0.3, 0.5], seed=9)
        b = gen_gaussian_blobs(150, 3, 4, 5.0, [0.2, 0.3, 0.5], seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_rejects_malformed_priors(self):
        with pytest.raises(ParameterError):
            gen_gaussian_blobs(100, 2, 2, 3.0, [0.7, 0.5], seed=0)

    def test_rejects_non_numeric_prior(self):
        with pytest.raises(ParameterError, match="'x'"):
            gen_gaussian_blobs(100, 2, 2, 3.0, [0.5, "x"], seed=0)


class TestAdversarialSource:
    def test_two_class_flip(self):
        base = gen_two_moons(50, 0.1, seed=1)
        adv = make_adversarial_source(base, seed=3)
        assert np.array_equal(adv.labels, 1 - base.labels)
        assert np.array_equal(adv.features, base.features)

    def test_derangement_has_no_fixed_point(self):
        base = gen_gaussian_blobs(90, 3, 2, 4.0, [1 / 3] * 3, seed=4)
        adv = make_adversarial_source(base, seed=11)
        assert not np.any(adv.labels == base.labels)

    def test_involution_for_two_classes(self):
        base = gen_two_moons(40, 0.1, seed=2)
        twice = make_adversarial_source(make_adversarial_source(base, seed=5), seed=5)
        assert np.array_equal(twice.labels, base.labels)

    def test_rejects_unlabeled(self):
        base = gen_two_moons(40, 0.1, seed=2).unlabeled()
        with pytest.raises(ParameterError):
            make_adversarial_source(base, seed=0)


class TestSplit:
    def test_nine_to_one_sizes(self):
        ds = gen_two_moons(100, 0.1, seed=1)
        tr, te = split(ds, 0.9, seed=0)
        assert (tr.n, te.n) == (90, 10)

    def test_stratification_on_balanced_tens(self):
        ds = Dataset(np.arange(20, dtype=float).reshape(10, 2),
                     np.array([0] * 5 + [1] * 5), 2, "toy")
        tr, te = split(ds, 0.5, seed=7)
        assert tr.n == te.n == 5
        for half in (tr, te):
            counts = np.bincount(half.labels, minlength=2)
            assert set(counts) <= {2, 3}

    def test_per_class_proportions_within_one_sample(self):
        ds = gen_gaussian_blobs(300, 3, 2, 4.0, [0.5, 0.3, 0.2], seed=3)
        tr, te = split(ds, 0.7, seed=1)
        for k in range(3):
            total = np.sum(ds.labels == k)
            got = np.sum(tr.labels == k)
            assert abs(got - total * 0.7) <= 1.0

    def test_determinism_and_disjoint_cover(self):
        ds = gen_two_moons(101, 0.1, seed=4)
        tr1, te1 = split(ds, 0.8, seed=9)
        tr2, te2 = split(ds, 0.8, seed=9)
        assert np.array_equal(tr1.features, tr2.features)
        assert np.array_equal(te1.features, te2.features)
        merged = np.vstack([tr1.features, te1.features])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, ds.features))

    def test_rejects_out_of_range_fraction(self):
        ds = gen_two_moons(10, 0.1, seed=0)
        for f in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ParameterError):
                split(ds, f)


@pytest.mark.parametrize("make", [
    lambda seed: gen_two_moons(10, 0.1, seed=seed),
    lambda seed: gen_gaussian_blobs(10, 2, 2, 3.0, [0.5, 0.5], seed=seed),
    lambda seed: split(gen_two_moons(10, 0.1), 0.5, seed=seed),
    lambda seed: make_adversarial_source(gen_two_moons(10, 0.1), seed=seed),
], ids=["two-moons", "blobs", "split", "adversarial"])
def test_rejects_negative_seed(make):
    with pytest.raises(ParameterError, match="got -1"):
        make(-1)


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        ds = gen_two_moons(73, 0.1, 12.0, seed=6)
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.num_classes == ds.num_classes
        assert back.domain_id == ds.domain_id

    def test_unlabeled_roundtrip(self, tmp_path):
        ds = gen_two_moons(20, 0.1, seed=1).unlabeled()
        path = tmp_path / "u.csv"
        save_dataset(ds, path)
        assert load_dataset(path).labels is None

    def test_label_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("#shiftlab-dataset v1 n=1 d=2 K=2 domain=x\n0.0,0.0,2\n")
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not a dataset\n")
        with pytest.raises(FormatError):
            load_dataset(path)
