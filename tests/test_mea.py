import numpy as np
import pytest

from shiftlab import cli
from shiftlab.datagen import Dataset
from shiftlab.errors import ExclusionError, FormatError, ParameterError
from shiftlab.mea import (
    WeightEstimate,
    combine_weights,
    confidence_weights,
    estimate,
    format_provenance,
    format_weights,
    parse_weights,
    proxy_accuracy,
    proxy_weights,
)
from shiftlab.nn import Layer, SourceModel


def sign_model(domain_id="m", scale=1.0):
    """1-D model predicting class 0 for x > 0 (class 1 when scale < 0)."""
    layers = [Layer(np.array([[scale]]), np.zeros(1)),
              Layer(np.array([[1.0], [-1.0]]), np.zeros(2))]
    return SourceModel(layers, {"domain_id": domain_id})


def weights_text(w_t, w_s, lam, ids=("a", "b")):
    return format_weights(combine_weights(np.array(w_t), np.array(w_s), lam), list(ids))


def fallback_text(lam):
    """A confidence-only weights file whose lambda line reads `lam`; lambda enters no vector."""
    text = format_weights(combine_weights(np.array([0.25, 0.75]), None, 1.0), ["a", "b"])
    return text.replace("lambda 1\n", f"lambda {lam}\n")


def dataset_with_accuracy(frac, n=10, domain="proxy"):
    """All-positive features; sign_model scores exactly `frac` on it."""
    correct = int(round(frac * n))
    labels = np.array([0] * correct + [1] * (n - correct))
    return Dataset(np.ones((n, 1)), labels, 2, domain)


class TestProxyAccuracy:
    def test_macro_average_of_worked_accuracies(self):
        model = sign_model("own")
        proxies = [dataset_with_accuracy(0.8, domain="p1"), dataset_with_accuracy(0.4, domain="p2")]
        assert proxy_accuracy(model, proxies) == pytest.approx(0.6, abs=1e-12)

    def test_own_domain_raises_exclusion_error(self):
        model = sign_model("own")
        with pytest.raises(ExclusionError):
            proxy_accuracy(model, [dataset_with_accuracy(0.8, domain="own")])

    def test_unlabeled_proxy_rejected(self):
        model = sign_model("own")
        with pytest.raises(ParameterError):
            proxy_accuracy(model, [dataset_with_accuracy(0.8).unlabeled()])

    def test_empty_proxy_list_rejected(self):
        with pytest.raises(ParameterError):
            proxy_accuracy(sign_model(), [])

    def test_provenance_entries(self):
        prov = []
        proxy_accuracy(sign_model("own"), [dataset_with_accuracy(0.7, domain="p")], prov)
        assert prov == [{"kind": "proxy", "model": "own", "proxy": "p", "accuracy": 0.7}]


class TestProxyWeights:
    def _setup(self):
        models = [sign_model("a"), sign_model("b")]
        datasets = {
            # accuracies seen by the *other* model: a scores on pb, b on pa
            "a": dataset_with_accuracy(0.4, domain="a"),
            "b": dataset_with_accuracy(0.8, domain="b"),
        }
        return models, datasets

    def test_worked_example_two_thirds_one_third(self):
        # model a is scored on domain b (0.8), model b on domain a (0.4)
        models, datasets = self._setup()
        w = proxy_weights(models, datasets)
        assert np.allclose(w, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)

    def test_scale_invariance_of_accuracies(self):
        # doubling every proxy dataset leaves the normalized weights unchanged
        models, datasets = self._setup()
        doubled = {
            k: Dataset(np.vstack([d.features] * 2), np.concatenate([d.labels] * 2), 2, k)
            for k, d in datasets.items()
        }
        assert np.allclose(proxy_weights(models, datasets),
                           proxy_weights(models, doubled), atol=1e-12)

    def test_monotone_in_proxy_accuracy(self):
        models = [sign_model("a"), sign_model("b")]
        lo = {"a": dataset_with_accuracy(0.5, domain="a"),
              "b": dataset_with_accuracy(0.5, domain="b")}
        hi = {"a": dataset_with_accuracy(0.5, domain="a"),
              "b": dataset_with_accuracy(0.9, domain="b")}
        w_lo = proxy_weights(models, lo)
        w_hi = proxy_weights(models, hi)
        assert w_hi[0] > w_lo[0]  # model a improved on its only proxy

    def test_single_visible_domain_falls_back(self):
        models = [sign_model("a"), sign_model("b")]
        datasets = {"a": dataset_with_accuracy(0.8, domain="a")}
        assert proxy_weights(models, datasets) is None  # model a has no proxy

    def test_all_zero_accuracy_gives_uniform(self):
        models = [sign_model("a"), sign_model("b")]
        datasets = {"a": dataset_with_accuracy(0.0, domain="a"),
                    "b": dataset_with_accuracy(0.0, domain="b")}
        assert np.allclose(proxy_weights(models, datasets), [0.5, 0.5], atol=1e-12)


class TestConfidenceWeights:
    def test_sharper_model_gets_more_weight(self):
        target = Dataset(np.ones((8, 1)), None, 2, "t")
        w = confidence_weights([sign_model("a", scale=5.0), sign_model("b", scale=0.1)], target)
        assert w[0] > w[1]
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_equal_models_get_equal_weight(self):
        target = Dataset(np.ones((4, 1)), None, 2, "t")
        w = confidence_weights([sign_model("a"), sign_model("b")], target)
        assert np.allclose(w, [0.5, 0.5], atol=1e-12)

    def test_sample_duplication_invariance(self):
        base = Dataset(np.array([[1.0], [-2.0], [0.5]]), None, 2, "t")
        doubled = Dataset(np.vstack([base.features] * 2), None, 2, "t")
        models = [sign_model("a", 3.0), sign_model("b", 0.4)]
        assert np.allclose(confidence_weights(models, base),
                           confidence_weights(models, doubled), atol=1e-12)


class TestCombineWeights:
    def test_worked_example_lambda_one(self):
        w_t = np.array([0.2, 0.8])
        w_s = np.array([2.0 / 3.0, 1.0 / 3.0])
        est = combine_weights(w_t, w_s, 1.0)
        assert np.allclose(est.w_raw, [0.2 + 2 / 3, 0.8 + 1 / 3], atol=1e-12)
        assert est.w_raw.sum() == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(est.w_final, est.w_raw / 2.0, atol=1e-12)
        assert np.argmax(est.w_final) == np.argmax(est.w_raw)

    def test_lambda_zero_reduces_to_confidence(self):
        w_t = np.array([0.3, 0.7])
        est = combine_weights(w_t, np.array([0.9, 0.1]), 0.0)
        assert np.allclose(est.w_final, w_t, atol=1e-12)

    def test_fallback_when_no_proxies(self):
        w_t = np.array([0.25, 0.75])
        est = combine_weights(w_t, None, 1.0)
        assert est.fallback
        assert est.w_s is None
        assert np.allclose(est.w_final, w_t, atol=1e-12)

    def test_negative_lambda_rejected(self):
        for lam in (-0.5, -1.0, np.inf, -np.inf):  # -1 divides by zero, +-inf by inf
            with pytest.raises(ParameterError, match="^lambda must be finite and >= 0"):
                combine_weights(np.array([0.5, 0.5]), np.array([0.5, 0.5]), lam)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ParameterError):
            combine_weights(np.array([0.5, 0.5]), np.array([1.0]), 1.0)


class TestWeightEstimateValidation:
    def test_rejects_bad_raw_sum(self):
        with pytest.raises(ParameterError):
            WeightEstimate(
                np.array([0.5, 0.5]), np.array([0.5, 0.5]), 1.0,
                np.array([0.5, 0.5]), np.array([0.5, 0.5]),
            )

    @pytest.mark.parametrize("lam", [1e16, 1e17, 1e300])
    def test_large_lambda_accepted_despite_rounding(self, lam):
        # w_raw sums to 1 + lam only up to a rounding relative to 1 + lam
        est = combine_weights([0.4, 0.6], [0.1, 0.9], lam)
        assert np.allclose(est.w_final, [0.1, 0.9], atol=1e-12)
        assert parse_weights(format_weights(est, ["a", "b"]))[0].lam == lam

    def test_rejects_raw_sum_off_by_a_millionth(self):
        with pytest.raises(ParameterError, match="w_raw must sum to 2.0"):
            WeightEstimate(
                np.array([0.5, 0.5]), np.array([0.5, 0.5]), 1.0,
                np.array([1.0, 1.0 + 1e-6]), np.array([0.5, 0.5]),
            )

    def test_rejects_non_simplex_final(self):
        with pytest.raises(ParameterError):
            WeightEstimate(
                np.array([0.5, 0.5]), np.array([0.5, 0.5]), 1.0,
                np.array([1.0, 1.0]), np.array([0.7, 0.7]),
            )


class TestEstimate:
    def test_end_to_end_excludes_own_domain(self):
        models = [sign_model("a"), sign_model("b"), sign_model("c", scale=-1.0)]
        datasets = {d: dataset_with_accuracy(0.9, domain=d) for d in ("a", "b", "c")}
        target = Dataset(np.ones((6, 1)), None, 2, "t")
        est, prov = estimate(models, datasets, target, lam=1.0)
        assert not est.fallback
        for rec in prov:
            if rec["kind"] == "proxy":
                assert rec["model"] != rec["proxy"]
        # the inverted model scores 0.1 on every proxy and gets the least weight
        assert np.argmin(est.w_final) == 2

    def test_single_model_falls_back(self):
        target = Dataset(np.ones((4, 1)), None, 2, "t")
        est, _ = estimate(
            [sign_model("a")], {"a": dataset_with_accuracy(0.8, domain="a")}, target,
        )
        assert est.fallback
        assert np.allclose(est.w_final, [1.0], atol=1e-12)


class TestSerialization:
    def _estimate(self):
        return combine_weights(
            np.array([0.2, 0.8]), np.array([2.0 / 3.0, 1.0 / 3.0]), 1.0
        )

    def test_weights_roundtrip_bit_exact(self):
        est = self._estimate()
        back, ids = parse_weights(format_weights(est, ["a", "b"]))
        assert ids == ["a", "b"]
        assert np.array_equal(back.w_s, est.w_s)
        assert np.array_equal(back.w_t, est.w_t)
        assert np.array_equal(back.w_raw, est.w_raw)
        assert np.array_equal(back.w_final, est.w_final)
        assert back.lam == est.lam
        assert back.fallback == est.fallback

    def test_fallback_roundtrip(self):
        est = combine_weights(np.array([0.25, 0.75]), None, 2.0)
        back, _ = parse_weights(format_weights(est, ["a", "b"]))
        assert back.fallback and back.w_s is None

    def test_parse_rejects_wrong_magic(self):
        with pytest.raises(FormatError):
            parse_weights("#not-weights v1\n")

    @pytest.mark.parametrize("old, new", [
        (None, "#shiftlab-weights v1\nmodels a\nw_final 1\n"),  # no lambda
        ("lambda 1\n", ""),
        ("lambda 1\n", "lambda abc\n"),
        ("w_t 0.20000000000000001", "w_t x"),
        ("w_t 0.20000000000000001 0.80000000000000004", "w_t absent"),
        ("w_t 0.20000000000000001", "w_t nan"),
        ("0.56666666666666665\n", "0.56666666666666665 0\n"),
        (None, weights_text([0.2, 0.3, 0.5], [0.5, 0.25, 0.25], 1.0)),  # two ids, three weights
        ("models a,b\n", ""),
        (None, weights_text([0.2, 0.8], [0.6, 0.4], 0.0).replace("fallback false", "fallback true")),
        (None, fallback_text("-0.5")),
        (None, fallback_text("inf")),
    ], ids=["only-w_final", "no-lambda", "bad-lambda", "bad-entry", "absent-w_t", "nan-entry",
            "extra-entry", "models-count", "no-models", "fallback-with-w_s", "negative-lambda",
            "infinite-lambda"])
    def test_malformed_file_is_format_error(self, tmp_path, capsys, old, new):
        text = format_weights(self._estimate(), ["a", "b"])
        assert old is None or old in text
        text = new if old is None else text.replace(old, new)
        with pytest.raises(FormatError):
            parse_weights(text)
        path = tmp_path / "bad.weights"
        path.write_text(text)
        assert cli.main(["verify", "weights", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_provenance_contains_audit_lines(self):
        models = [sign_model("a"), sign_model("b")]
        datasets = {"a": dataset_with_accuracy(0.4, domain="a"),
                    "b": dataset_with_accuracy(0.8, domain="b")}
        target = Dataset(np.ones((4, 1)), None, 2, "t")
        est, prov = estimate(models, datasets, target)
        text = format_provenance(est, prov, ["a", "b"])
        assert text.startswith("#shiftlab-provenance v1\n")
        assert "proxy model=a proxy=b" in text
        assert "confidence model=a" in text
        assert "w_final" in text
