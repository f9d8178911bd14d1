"""Acceptance gate: nine property-based and directional criteria.

Each test prints one `ACCEPT criterion-N PASS` line on success so the gate
can be audited from the pytest log.
"""

import time

import numpy as np
import pytest

from shiftlab.adapt import AdaptationConfig, train_msfda, train_sfda, train_source, train_uda
from shiftlab.bench import (
    convergence_suite,
    fusion_suite,
    negative_transfer_suite,
    overfitting_suite,
)
from shiftlab.datagen import gen_two_moons
from shiftlab.mea import combine_weights, confidence_weights, estimate
from shiftlab.nn import Layer, SourceModel, backward, forward, init_model
from shiftlab.objectives import cross_entropy, diversity_loss, entropy_loss, mmd_rbf, mmd_rbf_grad

FD_EPS = 1e-5
REL_TOL = 1e-4


def report(criterion, ok, detail=""):
    print(f"ACCEPT criterion-{criterion} {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def fd_model_grad(model, loss_fn):
    grads = []
    for layer in [*model.extractor, model.classifier]:
        for arr in (layer.weight, layer.bias):
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                arr[i] += FD_EPS
                hi = loss_fn()
                arr[i] -= 2 * FD_EPS
                lo = loss_fn()
                arr[i] += FD_EPS
                g[i] = (hi - lo) / (2 * FD_EPS)
            grads.append(g)
    return grads


def flat_analytic(grad):
    out = []
    for gw, gb in [*grad.extractor, grad.classifier]:
        out.extend([gw, gb])
    return out


def max_rel_err(analytic, fd):
    worst = 0.0
    for a, f in zip(analytic, fd):
        denom = np.maximum(np.abs(f), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


class TestCriterion1Gradients:
    def test_analytic_matches_fd_on_20_instances(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        worst = 0.0
        losses = [(entropy_loss, None), (diversity_loss, None), (cross_entropy, "labels")]
        count = 0
        for rep in range(5):
            for loss, needs in losses:
                model = init_model(2, 5, 3, depth=2, seed=rep)
                X = rng.normal(size=(6, 2))
                y = rng.integers(0, 3, size=6)

                def value():
                    probs = forward(model, X)[2]
                    return (loss(probs, y) if needs else loss(probs))[0]

                tape = forward(model, X)
                dprobs = (loss(tape.probs, y) if needs else loss(tape.probs))[1]
                analytic = backward(model, tape, dprobs)
                worst = max(worst, max_rel_err(flat_analytic(analytic), fd_model_grad(model, value)))
                count += 1
            # MMD through the feature extractor, explicit bandwidths so the
            # kernel is differentiable (the median heuristic is data-dependent)
            model = init_model(2, 4, 2, depth=2, seed=100 + rep)
            X = rng.normal(size=(5, 2))
            Y = rng.normal(size=(6, 2)) + 0.5
            kernel = [0.8, 1.5]

            def value():
                return mmd_rbf(forward(model, X)[0], forward(model, Y)[0], kernel)

            _, gx, gy = mmd_rbf_grad(forward(model, X)[0], forward(model, Y)[0], kernel)
            analytic = backward(model, forward(model, X), dfeat=gx)
            analytic.add_(backward(model, forward(model, Y), dfeat=gy))
            worst = max(worst, max_rel_err(flat_analytic(analytic), fd_model_grad(model, value)))
            count += 1
        elapsed = time.perf_counter() - t0
        ok = worst < REL_TOL and count == 20 and elapsed < 30
        report(1, ok, f"max_rel_err={worst:.2e} instances={count} elapsed={elapsed:.1f}s")


class TestCriterion2WeightAlgebra:
    def test_worked_examples_and_invariants(self):
        t0 = time.perf_counter()
        # proxy worked example: accuracies (0.8, 0.4) -> w_s = (2/3, 1/3)
        acc = np.array([0.8, 0.4])
        w_s = acc / acc.sum()
        ok = bool(np.allclose(w_s, [2 / 3, 1 / 3], atol=1e-12))

        # confidence worked example (0.25, 1.0) -> (0.2, 0.8), realized by
        # actual models: a zero classifier over 4 classes is exactly 0.25
        # confident; a saturated classifier is exactly 1.0 confident
        from shiftlab.datagen import Dataset

        ext = [Layer(np.array([[1.0]]), np.zeros(1), "tanh")]
        flat = SourceModel([Layer(np.array([[1.0]]), np.zeros(1), "tanh")],
                           Layer(np.zeros((4, 1)), np.zeros(4), "linear"),
                           {"domain_id": "flat"})
        sharp = SourceModel(ext,
                            Layer(np.array([[4000.0], [-4000.0], [-4000.0], [-4000.0]]),
                                  np.zeros(4), "linear"),
                            {"domain_id": "sharp"})
        target = Dataset(np.ones((5, 1)), None, 4, "t")
        w_t = confidence_weights([flat, sharp], target)
        ok &= bool(np.allclose(w_t, [0.2, 0.8], atol=1e-12))

        # Eq. 9 combination and simplex invariants
        est = combine_weights(w_t, w_s, 1.0)
        for vec in (est.w_s, est.w_t, est.w_final):
            ok &= abs(vec.sum() - 1.0) <= 1e-9 and bool(np.all(vec >= -1e-12))
        ok &= abs(est.w_raw.sum() - 2.0) <= 1e-9

        # lambda = 0 and single-source fallback hold exactly
        ok &= bool(np.array_equal(combine_weights(w_t, w_s, 0.0).w_final * 1.0, w_t))
        fb = combine_weights(w_t, None, 1.0)
        ok &= fb.fallback and bool(np.array_equal(fb.w_final, w_t))

        # own-domain exclusion audited through provenance
        models = [init_model(2, 8, 2, seed=i, domain_id=d) for i, d in enumerate("ab")]
        data = {
            d: gen_two_moons(40, 0.1, seed=i, domain_id=d) for i, d in enumerate("ab")
        }
        tgt = gen_two_moons(40, 0.1, seed=9, domain_id="t").unlabeled()
        _, prov = estimate(models, data, tgt)
        proxy_pairs = [(p["model"], p["proxy"]) for p in prov if p["kind"] == "proxy"]
        ok &= len(proxy_pairs) > 0 and all(m != p for m, p in proxy_pairs)

        elapsed = time.perf_counter() - t0
        ok &= elapsed < 5
        report(2, ok, f"elapsed={elapsed:.2f}s")


class TestCriterion3MmdProperties:
    def test_properties_and_oracle_agreement(self):
        t0 = time.perf_counter()

        def naive(X, Y, bw):
            def k(a, b, s2):
                return np.exp(-np.sum((a - b) ** 2) / (2 * s2))

            tot = 0.0
            for s2 in bw:
                tot += (
                    np.mean([k(a, b, s2) for a in X for b in X])
                    + np.mean([k(a, b, s2) for a in Y for b in Y])
                    - 2 * np.mean([k(a, b, s2) for a in X for b in Y])
                )
            return tot / len(bw)

        rng = np.random.default_rng(1)
        ok = True
        worst_oracle = 0.0
        for rep in range(10):
            n, m = int(rng.integers(5, 200)), int(rng.integers(5, 200))
            X = rng.normal(size=(n, 2))
            Y = rng.normal(size=(m, 2)) + rng.uniform(0, 2)
            kernel = [float(rng.uniform(0.5, 3.0))]
            v = mmd_rbf(X, Y, kernel)
            ok &= abs(v - mmd_rbf(Y, X, kernel)) <= 1e-12  # symmetry
            ok &= v >= -1e-9  # non-negativity
            if n <= 60 and m <= 60:  # keep the O(n^2) python oracle affordable
                worst_oracle = max(worst_oracle, abs(v - naive(X, Y, kernel)))
        # oracle agreement on 10 dedicated small instances
        for rep in range(10):
            X = rng.normal(size=(12, 3))
            Y = rng.normal(size=(9, 3)) + 1.0
            bw = [0.7, 1.4]
            worst_oracle = max(
                worst_oracle, abs(mmd_rbf(X, Y, bw) - naive(X, Y, bw))
            )
        Z = rng.normal(size=(30, 2))
        ok &= abs(mmd_rbf(Z, Z.copy())) <= 1e-9  # zero on identical samples
        ok &= worst_oracle <= 1e-9
        elapsed = time.perf_counter() - t0
        ok &= elapsed < 30
        report(3, ok, f"oracle_max_abs_diff={worst_oracle:.2e} elapsed={elapsed:.1f}s")


class TestCriterion4Degenerations:
    def test_uda_lambda_zero_and_msfda_single_weight(self):
        t0 = time.perf_counter()
        src = gen_two_moons(200, 0.1, seed=3, domain_id="src")
        tgt = gen_two_moons(200, 0.1, 30.0, seed=4, domain_id="tgt").unlabeled()
        cfg = AdaptationConfig(iterations=150, seed=3, lambda_uda=0.0)
        uda = train_uda(src, tgt, cfg)
        plain = train_source(src, cfg)
        step_diff = max(
            abs(a.loss_total - b.loss_total) for a, b in zip(uda.rows, plain.rows)
        )
        param_diff = max(
            float(np.max(np.abs(la.weight - lb.weight)))
            for la, lb in zip(
                [*uda.model.extractor, uda.model.classifier],
                [*plain.model.extractor, plain.model.classifier],
            )
        )

        models = [
            train_source(gen_two_moons(200, 0.1, r, seed=10 + i, domain_id=f"s{i}"),
                         AdaptationConfig(iterations=150, seed=20 + i)).model
            for i, r in enumerate((0.0, 10.0))
        ]
        cfg2 = AdaptationConfig(iterations=150, seed=7)
        ens = train_msfda(models, [1.0, 0.0], tgt, cfg2)
        solo = train_sfda(models[0], tgt, cfg2)
        step_diff2 = max(
            abs(a.loss_total - b.loss_total) for a, b in zip(ens.rows, solo.rows)
        )
        param_diff2 = max(
            float(np.max(np.abs(la.weight - lb.weight)))
            for la, lb in zip(
                [*ens.models[0].extractor, ens.models[0].classifier],
                [*solo.models[0].extractor, solo.models[0].classifier],
            )
        )
        elapsed = time.perf_counter() - t0
        worst = max(step_diff, param_diff, step_diff2, param_diff2)
        ok = worst <= 1e-9 and elapsed < 120
        report(4, ok, f"max_step_diff={worst:.2e} elapsed={elapsed:.1f}s")


@pytest.fixture(scope="module")
def convergence_report():
    return convergence_suite(range(5))


@pytest.fixture(scope="module")
def negative_transfer_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("negxfer-a")
    return negative_transfer_suite(range(5), out_dir=out), out


@pytest.fixture(scope="module")
def fusion_report():
    return fusion_suite(range(5))


class TestCriterion5Convergence:
    def test_sfda_converges_at_most_half_of_uda(self, convergence_report):
        t0 = time.perf_counter()
        rep = convergence_report
        ok = rep["passed"]
        elapsed = time.perf_counter() - t0
        detail = (
            f"sfda_median={rep['sfda_median_conv']} uda_median={rep['uda_median_conv']} "
            f"per_seed={[p['pass'] for p in rep['per_seed']]}"
        )
        report(5, ok, detail)


class TestCriterion6NegativeTransfer:
    def test_adversarial_source_hurts_and_is_downweighted(self, negative_transfer_report):
        rep, _ = negative_transfer_report
        drops = [
            round(p["acc_uniform"] - p["acc_expanded"], 4) for p in rep["per_seed"]
        ]
        ok = rep["expanded_drop_majority"] and rep["adv_min_weight_all"]
        report(6, ok, f"drops={drops} adv_min_weight_all={rep['adv_min_weight_all']}")


class TestCriterion7MeaImproves:
    def test_mea_at_least_uniform_in_fusion_suite(self, fusion_report):
        rep = fusion_report
        flags = [p["mea_ge_uniform"] for p in rep["per_seed"]]
        report(7, rep["passed"], f"per_seed={flags}")


class TestCriterion8Overfitting:
    def test_train_test_gap_small(self):
        rep = overfitting_suite(range(5))
        gaps = [round(p["gap"], 4) for p in rep["per_seed"]]
        report(8, rep["passed"], f"gaps={gaps} isolation_all={rep['isolation_all']}")


class TestCriterion9Determinism:
    def test_suite_rerun_byte_identical_excluding_wall_clock(
        self, negative_transfer_report, tmp_path
    ):
        rep_a, dir_a = negative_transfer_report
        rep_b = negative_transfer_suite(range(5), out_dir=tmp_path)

        def strip_ms(text):
            # the wall-clock ms column is the last CSV field
            return "\n".join(ln.rsplit(",", 1)[0] for ln in text.splitlines())

        ok = rep_a["per_seed"] == rep_b["per_seed"]
        names_a = sorted(p.name for p in dir_a.iterdir())
        names_b = sorted(p.name for p in tmp_path.iterdir())
        ok &= names_a == names_b
        for name in names_a:
            a = (dir_a / name).read_text()
            b = (tmp_path / name).read_text()
            if name.startswith("run_") and name.endswith(".csv"):
                ok &= strip_ms(a) == strip_ms(b)
            else:
                ok &= a == b
        report(9, ok, f"files_compared={len(names_a)}")
