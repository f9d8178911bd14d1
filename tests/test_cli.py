import ast
import hashlib
import io
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shiftlab import adapt, bench, cli
from shiftlab.adapt import AdaptationConfig
from shiftlab.datagen import Dataset, gen_gaussian_blobs, gen_two_moons, load_dataset, save_dataset
from shiftlab.errors import NumericError, ShiftLabError
from shiftlab.mea import combine_weights, format_weights, parse_weights
from shiftlab.nn import Layer, SourceModel, init_model, load_model, save_model


def run(*argv):
    return cli.main(list(argv))


def id_models(tmp_path):
    """Paths of two saved 2-D models with domain ids a and b."""
    paths = []
    for i, domain in enumerate("ab"):
        paths.append(tmp_path / f"{domain}.model")
        save_model(init_model(2, 8, 2, seed=i, domain_id=domain), paths[-1])
    return paths


def weights_text(ids):
    """A fallback weights file for `ids`, weighted 1 : 2 : ... in id order."""
    w_t = np.arange(1.0, len(ids) + 1) / sum(range(1, len(ids) + 1))
    return format_weights(combine_weights(w_t, None, 1.0), ids)


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def moons_file(tmp_path):
    path = tmp_path / "src.csv"
    assert run("gen", "two-moons", "--n", "120", "--seed", "1",
               "--domain", "src", "--out", str(path)) == 0
    return path


@pytest.fixture
def target_file(tmp_path):
    path = tmp_path / "tgt.csv"
    assert run("gen", "two-moons", "--n", "120", "--rotation", "30",
               "--seed", "2", "--domain", "tgt", "--out", str(path)) == 0
    return path


@pytest.fixture
def model_file(tmp_path, moons_file):
    path = tmp_path / "src.model"
    assert run("train-source", "--data", str(moons_file), "--out", str(path),
               "--iterations", "80") == 0
    return path


class TestGen:
    def test_prints_digest_and_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("gen", "two-moons", "--seed", "5", "--out", str(a))
        run("gen", "two-moons", "--seed", "5", "--out", str(b))
        out = capsys.readouterr().out
        assert "sha256=" in out
        assert digest(a) == digest(b)

    def test_blobs(self, tmp_path):
        path = tmp_path / "blobs.csv"
        assert run("gen", "blobs", "--n", "60", "--classes", "3",
                   "--priors", "0.3,0.3,0.4", "--out", str(path)) == 0
        assert run("verify", "dataset", str(path)) == 0

    def test_bad_rotation_is_usage_error(self, tmp_path):
        assert run("gen", "two-moons", "--rotation", "400",
                   "--out", str(tmp_path / "x.csv")) == 2


class TestTrainSource:
    def test_writes_model_and_trajectory(self, tmp_path, moons_file):
        model = tmp_path / "m.model"
        traj = tmp_path / "t.csv"
        assert run("train-source", "--data", str(moons_file), "--out", str(model),
                   "--iterations", "50", "--trajectory", str(traj)) == 0
        assert run("verify", "model", str(model)) == 0
        lines = traj.read_text().splitlines()
        assert lines[0].startswith("iteration,loss_total")
        assert len(lines) == 51

    def test_unlabeled_data_rejected(self, tmp_path, target_file):
        from shiftlab.datagen import load_dataset, save_dataset

        unlabeled = tmp_path / "u.csv"
        save_dataset(load_dataset(target_file).unlabeled(), unlabeled)
        assert run("train-source", "--data", str(unlabeled),
                   "--out", str(tmp_path / "m.model")) == 2

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run("train-source", "--data", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "m.model")) == 2


class TestAdapt:
    def test_sfda_rejects_source_data(self, tmp_path, model_file, target_file,
                                      moons_file, capsys):
        code = run("adapt", "--paradigm", "sfda", "--target", str(target_file),
                   "--model", str(model_file), "--source-data", str(moons_file))
        assert code == 2
        assert "paradigm 'sfda' does not read --source-data" in capsys.readouterr().err

    def test_msfda_rejects_source_data(self, tmp_path, model_file, target_file, moons_file):
        assert run("adapt", "--paradigm", "msfda", "--target", str(target_file),
                   "--model", str(model_file), "--source-data", str(moons_file)) == 2

    def test_source_paradigm_is_gone(self, target_file, moons_file, capsys):
        # a source model comes from train-source; adapt has no such paradigm
        with pytest.raises(SystemExit) as exc:
            run("adapt", "--paradigm", "source", "--target", str(target_file),
                "--source-data", str(moons_file))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "'source'" in err

    def test_uda_requires_source_data(self, target_file):
        assert run("adapt", "--paradigm", "uda", "--target", str(target_file)) == 2

    def test_sfda_runs_after_source_data_deleted(self, tmp_path, model_file,
                                                 target_file, moons_file):
        moons_file.unlink()  # source data is gone; only the model remains
        out = tmp_path / "adapted.model"
        assert run("adapt", "--paradigm", "sfda", "--target", str(target_file),
                   "--model", str(model_file), "--iterations", "40",
                   "--out", str(out)) == 0
        assert run("verify", "model", str(out)) == 0

    def test_sfda_deterministic_output_bytes(self, tmp_path, model_file, target_file):
        outs = []
        for name in ("a.model", "b.model"):
            out = tmp_path / name
            assert run("adapt", "--paradigm", "sfda", "--target", str(target_file),
                       "--model", str(model_file), "--iterations", "30",
                       "--out", str(out)) == 0
            outs.append(digest(out))
        assert outs[0] == outs[1]

    def test_msfda_with_mea_weights(self, tmp_path, model_file, target_file, moons_file):
        # second source domain and model
        src2 = tmp_path / "src2.csv"
        run("gen", "two-moons", "--n", "120", "--rotation", "10", "--seed", "3",
            "--domain", "src2", "--out", str(src2))
        model2 = tmp_path / "src2.model"
        run("train-source", "--data", str(src2), "--out", str(model2),
            "--iterations", "80")
        assert run("adapt", "--paradigm", "msfda", "--target", str(target_file),
                   "--model", str(model_file), "--model", str(model2),
                   "--weights", "mea",
                   "--visible", f"src={moons_file}", "--visible", f"src2={src2}",
                   "--iterations", "30", "--out", str(tmp_path / "ens.model")) == 0
        assert (tmp_path / "ens-0.model").exists()
        assert (tmp_path / "ens-1.model").exists()

    def test_weights_file_binds_by_model_id(self, monkeypatch, tmp_path, target_file):
        model_a, model_b = id_models(tmp_path)
        weights = tmp_path / "w.weights"
        weights.write_text(weights_text(["a", "b"]))
        seen = []
        real = cli.train_msfda

        def spy(models, w, *args, **kwargs):
            seen.append({m.meta["domain_id"]: float(x) for m, x in zip(models, w)})
            return real(models, w, *args, **kwargs)

        monkeypatch.setattr(cli, "train_msfda", spy)
        for order in ((model_a, model_b), (model_b, model_a)):
            assert run("adapt", "--paradigm", "msfda", "--target", str(target_file),
                       "--iterations", "1", "--weights", str(weights),
                       "--model", str(order[0]), "--model", str(order[1])) == 0
        assert seen == [{"a": 1 / 3, "b": 2 / 3}] * 2

    def test_expanded_requires_source_data(self, model_file, target_file):
        assert run("adapt", "--paradigm", "expanded", "--target", str(target_file),
                   "--model", str(model_file)) == 2

    @pytest.mark.parametrize("paradigm,flag,value", [
        ("uda", "--model", "m.model"), ("uda", "--weights", "uniform"),
        ("uda", "--visible", "x=y.csv"), ("uda", "--mode", "ce-only"),
        ("sfda", "--source-data", "s.csv"), ("sfda", "--weights", "uniform"),
        ("sfda", "--visible", "x=y.csv"), ("sfda", "--mode", "ce-only"),
        ("msfda", "--source-data", "s.csv"), ("msfda", "--mode", "ce-only"),
        ("expanded", "--weights", "uniform"), ("expanded", "--visible", "x=y.csv"),
    ])
    def test_flag_the_paradigm_does_not_read_is_usage_error(self, capsys, paradigm, flag,
                                                            value):
        # refused before any file is read, so the paths need not exist
        assert run("adapt", "--paradigm", paradigm, "--target", "t.csv", flag, value) == 2
        err = capsys.readouterr().err
        assert err == f"error: paradigm {paradigm!r} does not read {flag}\n"


class TestEstimate:
    def test_writes_weights_and_provenance(self, tmp_path, model_file, target_file,
                                           moons_file):
        src2 = tmp_path / "src2.csv"
        run("gen", "two-moons", "--n", "120", "--rotation", "10", "--seed", "3",
            "--domain", "src2", "--out", str(src2))
        model2 = tmp_path / "src2.model"
        run("train-source", "--data", str(src2), "--out", str(model2),
            "--iterations", "80")
        weights = tmp_path / "w.weights"
        log = tmp_path / "w.log"
        assert run("estimate", "--model", str(model_file), "--model", str(model2),
                   "--visible", f"src={moons_file}", "--visible", f"src2={src2}",
                   "--target", str(target_file), "--out", str(weights),
                   "--log", str(log)) == 0
        assert run("verify", "weights", str(weights)) == 0
        assert log.read_text().startswith("#shiftlab-provenance v1\n")

    def test_single_model_falls_back(self, tmp_path, model_file, target_file, capsys):
        weights = tmp_path / "w.weights"
        assert run("estimate", "--model", str(model_file),
                   "--target", str(target_file), "--out", str(weights)) == 0
        assert "fallback=True" in capsys.readouterr().out


class TestConfig:
    def test_config_file_applies(self, tmp_path, moons_file):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[adapt]\niterations = 7\nlearning_rate = 0.01\n")
        traj = tmp_path / "t.csv"
        assert run("train-source", "--data", str(moons_file),
                   "--out", str(tmp_path / "m.model"),
                   "--config", str(cfg), "--trajectory", str(traj)) == 0
        assert len(traj.read_text().splitlines()) == 8  # header + 7 rows

    def test_flag_overrides_config(self, tmp_path, moons_file):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[adapt]\niterations = 7\n")
        traj = tmp_path / "t.csv"
        assert run("train-source", "--data", str(moons_file),
                   "--out", str(tmp_path / "m.model"),
                   "--config", str(cfg), "--iterations", "3",
                   "--trajectory", str(traj)) == 0
        assert len(traj.read_text().splitlines()) == 4

    def test_utf8_config_file_applies(self, tmp_path, moons_file):
        cfg = tmp_path / "cfg.ini"
        cfg.write_bytes("# r\u00e9glages \u2014 caf\u00e9\n[adapt]\niterations = 7\n".encode("utf-8"))
        traj = tmp_path / "t.csv"
        assert run("train-source", "--data", str(moons_file), "--out", str(tmp_path / "m.model"),
                   "--config", str(cfg), "--trajectory", str(traj)) == 0
        assert len(traj.read_text().splitlines()) == 8

    def test_unknown_key_rejected(self, tmp_path, moons_file):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[adapt]\nlearning_rat = 0.1\n")
        assert run("train-source", "--data", str(moons_file),
                   "--out", str(tmp_path / "m.model"), "--config", str(cfg)) == 2

    def test_unknown_section_rejected(self, tmp_path, moons_file):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[optimizer]\nlr = 0.1\n")
        assert run("train-source", "--data", str(moons_file),
                   "--out", str(tmp_path / "m.model"), "--config", str(cfg)) == 2


class TestExitCodes:
    def test_unknown_bench_suite(self):
        assert run("bench", "no-such-suite") == 2

    def test_verify_bad_file(self, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("garbage\n")
        assert run("verify", "model", str(bad)) == 2

    @pytest.mark.parametrize("edit", ["magic-only", "relu"])
    def test_verify_unrunnable_model_is_usage_error(self, tmp_path, model_file, capsys, edit):
        bad = tmp_path / "bad.model"
        if edit == "magic-only":
            bad.write_text("#shiftlab-model v1\n")
        else:
            bad.write_text(model_file.read_text().replace(" tanh\n", " relu\n", 1))
        assert run("verify", "model", str(bad)) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("probe", [
        "config-int", "config-float", "seed-list", "no-seeds", "negative-seed", "repeated-seed",
        "dataset-dir", "config-dir", "non-ascii-dataset", "dataset-label", "dataset-feature",
        "dataset-n", "dataset-d", "model-weight", "model-layer-dims",
        "weights-missing-id", "weights-extra-id", "weights-duplicate-id",
        "models-duplicate-id", "mea-duplicate-id", "estimate-duplicate-id",
        "gen-negative-seed", "train-negative-seed", "config-negative-seed", "blobs-priors",
        "config-duplicate-key", "domain-space", "domain-comma", "domain-equals",
        "domain-non-ascii", "visible-bad-id", "dataset-bare-token", "dataset-repeated-key",
        "model-bare-token", "weights-repeated-line", "weights-unknown-line",
        "weights-fallback-word", "train-zero-iterations", "blobs-nan-priors",
        "moons-nan-noise", "blobs-inf-separation", "adapt-unlabeled-eval", "uda-unread-flags",
        "uda-two-sources", "sfda-unread-flags", "msfda-unread-mode", "msfda-visible-without-mea",
        "expanded-unread-weights", "train-source-overflow", "estimate-visible-twice",
        "mea-visible-twice", "visible-empty-id", "path-under-a-file", "path-too-long",
        "non-ascii-weights", "msfda-non-ascii-weights", "expanded-source-classes",
        "non-ascii-model", "sfda-non-ascii-model", "config-non-utf8", "verify-weights-not-weights",
        "msfda-weights-not-weights", "estimate-lambda-minus-1", "estimate-lambda-inf",
    ])
    def test_bad_value_or_unreadable_path_is_usage_error(self, tmp_path, moons_file,
                                                         capsys, probe):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[adapt]\n" + {
            "config-int": "iterations = abc\n",
            "config-negative-seed": "seed = -1\n",
            "config-duplicate-key": "iterations = 3\niterations = 4\n",
        }.get(probe, "learning_rate = fast\n"))
        non_utf8 = tmp_path / "latin1.cfg"
        non_utf8.write_bytes(b"[adapt]\n# caf\xe9\niterations = 7\n")
        non_ascii = tmp_path / "data.csv"
        non_ascii.write_bytes(b"\xc3\xa9\n")
        em_space = tmp_path / "em.weights"  # U+2003 between the two w_final numbers
        head, tail = weights_text(["a", "b"]).rsplit(" ", 1)
        em_space.write_bytes(f"{head}\u2003{tail}".encode())
        em_ascii = f"{em_space}: not an ascii file: byte {len(head)} is 0xe2"
        dataset = "#shiftlab-dataset v1 n={} d={} K=2 domain=x\n{}\n"
        model = "#shiftlab-model v1\ndomain_id=x\nlayer {}\n{}\n0\nlayer 2 1 linear\n1\n-1\n0\n0\n"
        bad = tmp_path / "bad.txt"
        bad.write_text({
            "dataset-label": dataset.format(1, 1, "0.5,x"),
            "dataset-feature": dataset.format(1, 1, "abc,0"),
            "dataset-n": dataset.format(0, 1, ""),
            "dataset-d": dataset.format(1, -1, "0"),
            "model-weight": model.format("1 1 tanh", "abc"),
            "model-layer-dims": model.format("-1 -1 tanh", "1"),
            "dataset-bare-token": dataset.replace("domain=x", "domain=a b").format(1, 1, "0,0"),
            "dataset-repeated-key": dataset.replace("domain=x", "domain=a domain=b junk")
            .format(1, 1, "0,0"),
            "model-bare-token": model.replace("domain_id=x", "domain_id=b junk")
            .format("1 1 tanh", "1"),
            "weights-repeated-line": weights_text(["a", "b"]) + "models c,d\n",
            "weights-unknown-line": weights_text(["a", "b"]) + "junk 1 2 3\n",
            "weights-fallback-word": format_weights(combine_weights([0.2, 0.8], [0.6, 0.4], 1.0),
                                                    ["a", "b"]).replace("fallback false",
                                                                        "fallback maybe"),
        }.get(probe, ""))
        train = ("train-source", "--data", str(moons_file), "--out", str(tmp_path / "m"))
        model_a, model_b = id_models(tmp_path)
        em_model = tmp_path / "em.model"  # U+2003 for the metadata line's first space
        em_model.write_bytes(model_a.read_bytes().replace(b" ", "\u2003".encode(), 1))
        model_ascii = f"{em_model}: not an ascii file: byte {model_a.read_bytes().index(b' ')} is 0xe2"
        weights = tmp_path / "w.weights"
        ids = {"weights-missing-id": "a,c", "weights-extra-id": "a,b,c",
               "weights-duplicate-id": "a,a"}.get(probe, "a,b").split(",")
        weights.write_text(weights_text(ids))
        adapt = ("adapt", "--paradigm", "msfda", "--target", str(moons_file), "--iterations", "1")
        msfda = (*adapt, "--weights", str(weights), "--model", str(model_a))
        unlabeled = tmp_path / "unlabeled.csv"
        save_dataset(load_dataset(moons_file).unlabeled(), unlabeled)
        target, source = ("--target", str(moons_file)), ("--source-data", str(moons_file))
        twice = ("--visible", f"a={moons_file}", "--visible", f"a={moons_file}")
        estimate = ("estimate", "--model", str(model_a), "--model", str(model_b), *target,
                    "--visible", f"a={moons_file}", "--visible", f"b={moons_file}",
                    "--out", str(weights))  # two models, each scored on the other's domain
        blobs = tmp_path / "blobs.csv"
        save_dataset(gen_gaussian_blobs(120, 3, 2, 6.0, [0.3, 0.3, 0.4]), blobs)
        argv, needle = {  # needle: what the one-line error must name
            "config-int": ((*train, "--config", str(cfg)), "'iterations': 'abc'"),
            "config-float": ((*train, "--config", str(cfg)), "'learning_rate': 'fast'"),
            "seed-list": (("bench", "overfitting", "--seed-list", "0,x"), "'0,x'"),
            "no-seeds": (("bench", "overfitting", "--seeds", "0"), "[]"),
            "negative-seed": (("bench", "overfitting", "--seed-list", "-1"), "[-1]"),
            "repeated-seed": (("bench", "overfitting", "--seed-list", "3,3,3"), "[3, 3, 3]"),
            "dataset-dir": (("verify", "dataset", str(tmp_path)), str(tmp_path)),
            "path-under-a-file": (("verify", "dataset", f"{moons_file}/x"), "Not a directory"),
            "path-too-long": (("verify", "dataset", str(tmp_path / ("x" * 300))),
                              "File name too long"),
            "config-dir": ((*train, "--config", str(tmp_path)), str(tmp_path)),
            "config-non-utf8": ((*train, "--config", str(non_utf8)),
                                f"{non_utf8}: not a utf-8 file: byte 13 is 0xe9"),
            "verify-weights-not-weights": (("verify", "weights", str(moons_file)),
                                           f"{moons_file}: not a shiftlab weights file"),
            "msfda-weights-not-weights": ((*adapt, "--weights", str(moons_file), "--model",
                                           str(model_a), "--model", str(model_b)),
                                          f"{moons_file}: not a shiftlab weights file"),
            "non-ascii-dataset": (("verify", "dataset", str(non_ascii)),
                                  f"{non_ascii}: not an ascii file: byte 0 is 0xc3"),
            "non-ascii-weights": (("verify", "weights", str(em_space)), em_ascii),
            "non-ascii-model": (("verify", "model", str(em_model)), model_ascii),
            "sfda-non-ascii-model": (("adapt", "--paradigm", "sfda", *target, "--model",
                                      str(em_model)), model_ascii),
            "msfda-non-ascii-weights": ((*adapt, "--weights", str(em_space), "--model",
                                         str(model_a), "--model", str(model_b)), em_ascii),
            "expanded-source-classes": (("adapt", "--paradigm", "expanded", *target,
                                         "--source-data", str(blobs), "--model", str(model_a),
                                         "--iterations", "1"),
                                        "'blobs' has 3 classes, the models 2"),
            "dataset-label": (("verify", "dataset", str(bad)), "'x'"),
            "dataset-feature": (("verify", "dataset", str(bad)), "'abc'"),
            "dataset-n": (("verify", "dataset", str(bad)), "n=0"),
            "dataset-d": (("verify", "dataset", str(bad)), "d=-1"),
            "model-weight": (("verify", "model", str(bad)), "'abc'"),
            "model-layer-dims": (("verify", "model", str(bad)), "line 3"),
            "weights-missing-id": ((*msfda, "--model", str(model_b)),
                                   f"{weights}: weights file is for models ['a', 'c']"),
            "weights-extra-id": ((*msfda, "--model", str(model_b)), "['a', 'b', 'c']"),
            "weights-duplicate-id": ((*msfda, "--model", str(model_b)), "['a', 'a']"),
            "models-duplicate-id": ((*msfda, "--model", str(model_a)), "['a', 'a']"),
            "mea-duplicate-id": ((*adapt, "--weights", "mea", "--model", str(model_a),
                                  "--model", str(model_a)), "['a', 'a']"),
            "estimate-duplicate-id": (("estimate", "--model", str(model_a), "--model",
                                       str(model_a), "--target", str(moons_file),
                                       "--out", str(weights)), "['a', 'a']"),
            "gen-negative-seed": (("gen", "two-moons", "--seed", "-1", "--out", str(bad)),
                                  "got -1"),
            "train-negative-seed": ((*train, "--seed", "-1"), "got -1"),
            "train-zero-iterations": ((*train, "--iterations", "0"), "must be positive"),
            "config-negative-seed": ((*train, "--config", str(cfg)), "got -1"),
            "blobs-priors": (("gen", "blobs", "--priors", "0.5,x", "--out", str(bad)),
                             "'0.5,x'"),
            "blobs-nan-priors": (("gen", "blobs", "--priors", "nan,nan", "--out", str(bad)),
                                 "priors must be"),
            "moons-nan-noise": (("gen", "two-moons", "--noise", "nan", "--out", str(bad)),
                                "got nan"),
            "blobs-inf-separation": (("gen", "blobs", "--separation", "inf", "--out", str(bad)),
                                     "got inf"),
            "config-duplicate-key": ((*train, "--config", str(cfg)),
                                     "3: key 'iterations' given twice in [adapt], first on line 2"),
            "domain-space": (("gen", "two-moons", "--domain", "a b", "--out", str(bad)), "'a b'"),
            "domain-comma": (("gen", "two-moons", "--domain", "p,q", "--out", str(bad)), "'p,q'"),
            "domain-equals": (("gen", "two-moons", "--domain", "x=y", "--out", str(bad)), "'x=y'"),
            "domain-non-ascii": (("gen", "blobs", "--domain", "\xe9", "--out", str(bad)),
                                 "'\\xe9'"),
            "visible-bad-id": (("estimate", "--model", str(model_a), "--target", str(moons_file),
                                "--visible", f"a b={moons_file}", "--out", str(weights)),
                               "'a b'"),
            "visible-empty-id": (("estimate", "--model", str(model_a), "--target", str(moons_file),
                                  "--visible", f"={moons_file}", "--out", str(weights)),
                                 f"got '={moons_file}'"),
            "dataset-bare-token": (("verify", "dataset", str(bad)), "'b'"),
            "dataset-repeated-key": (("verify", "dataset", str(bad)), "'domain' given twice"),
            "model-bare-token": (("verify", "model", str(bad)), "'junk'"),
            "weights-repeated-line": (("verify", "weights", str(bad)), "repeats its models line"),
            "weights-unknown-line": (("verify", "weights", str(bad)), "unknown 'junk' line"),
            "weights-fallback-word": (("verify", "weights", str(bad)), "got 'maybe'"),
            "adapt-unlabeled-eval": (("adapt", "--paradigm", "sfda", *target, "--model",
                                      str(model_a), "--eval-data", str(unlabeled)),
                                     "'src' has no labels"),
            "uda-unread-flags": (("adapt", "--paradigm", "uda", *target, *source, *source,
                                  "--weights", str(tmp_path / "missing.w"), "--mode", "ce+mmd",
                                  "--visible", "x=y"), "paradigm 'uda' does not read --mode"),
            "uda-two-sources": (("adapt", "--paradigm", "uda", *target, *source, *source),
                                "exactly one --source-data"),
            "sfda-unread-flags": (("adapt", "--paradigm", "sfda", *target, "--model",
                                   str(model_a), "--weights", "mea", "--mode", "ce+mmd"),
                                  "paradigm 'sfda' does not read --mode"),
            "msfda-unread-mode": ((*adapt, "--model", str(model_a), "--mode", "ce+mmd",
                                   "--visible", f"q={moons_file}"),
                                  "paradigm 'msfda' does not read --mode"),
            "msfda-visible-without-mea": ((*adapt, "--model", str(model_a),
                                           "--visible", f"q={moons_file}"),
                                          "--visible is read only with --weights mea"),
            "expanded-unread-weights": (("adapt", "--paradigm", "expanded", *target, *source,
                                         "--model", str(model_a), "--weights", "mea"),
                                        "paradigm 'expanded' does not read --weights"),
            "train-source-overflow": ((*train, "--learning-rate", "1e308", "--iterations", "3"),
                                      "overflow encountered"),
            "estimate-lambda-minus-1": ((*estimate, "--lambda=-1"),
                                        "lambda must be finite and >= 0, got -1.0"),
            "estimate-lambda-inf": ((*estimate, "--lambda=inf"),
                                    "lambda must be finite and >= 0, got inf"),
            "estimate-visible-twice": (("estimate", "--model", str(model_a), "--model",
                                        str(model_b), "--target", str(moons_file), *twice,
                                        "--out", str(weights)), "domain 'a' given twice"),
            "mea-visible-twice": ((*adapt, "--weights", "mea", "--model", str(model_a),
                                   "--model", str(model_b), *twice), "domain 'a' given twice"),
        }[probe]
        # a float that overflows is a numeric error (exit 3), with the same one line
        assert run(*argv) == (3 if probe == "train-source-overflow" else 2)
        err = capsys.readouterr().err
        assert needle in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_numeric_error_maps_to_exit_3(self, monkeypatch, tmp_path, moons_file):
        def boom(*a, **k):
            raise NumericError("diverged")

        monkeypatch.setattr(cli, "train_source", boom)
        assert run("train-source", "--data", str(moons_file),
                   "--out", str(tmp_path / "m.model")) == 3

    @pytest.mark.parametrize("where", ["inline", "worker", "helper"])
    def test_memory_error_exits_3_with_one_error_line(self, monkeypatch, tmp_path, capfd,
                                                      moons_file, target_file, where):
        # raised, not allocated: inline, in a bench pool worker (which names its
        # seed) and in UDA's diagnostic helper (whose error the trainer re-raises)
        caller, message = os.getpid(), "Unable to allocate 1.49 GiB for an array"
        line = f"error: {message}\n"

        def out_of_memory(*args, **kwargs):
            if where != "inline" and os.getpid() == caller:
                raise AssertionError("raised in the calling process")
            raise MemoryError(message)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # 2 usable CPUs
        if where == "inline":
            monkeypatch.setattr(cli, "gen_two_moons", out_of_memory)
            argv = ["gen", "two-moons", "--out", str(tmp_path / "m.csv")]
        elif where == "worker":
            monkeypatch.setattr(bench, "_overfit_seed", out_of_memory)
            argv = ["bench", "overfitting", "--seed-list", "0,1", "--out", str(tmp_path)]
            line = f"error: seed 0: {message}\n"
        else:
            monkeypatch.setattr(adapt, "mmd_full", out_of_memory)
            argv = ["adapt", "--paradigm", "uda", "--source-data", str(moons_file),
                    "--target", str(target_file), "--iterations", "11"]
        capfd.readouterr()  # the fixtures' output
        assert (run(*argv), *capfd.readouterr()) == (3, "", line)

    def test_a_bare_memory_error_names_its_type(self, monkeypatch, tmp_path, capsys):
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "gen_two_moons", out_of_memory)
        assert run("gen", "two-moons", "--out", str(tmp_path / "m.csv")) == 3
        assert capsys.readouterr().err == "error: MemoryError\n"

    def test_any_other_exception_exits_70_with_its_traceback(self, monkeypatch, tmp_path, capsys):
        def bug(*args, **kwargs):
            raise RuntimeError("a bug")

        monkeypatch.setattr(cli, "gen_two_moons", bug)
        assert run("gen", "two-moons", "--out", str(tmp_path / "m.csv")) == 70
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("RuntimeError: a bug\n")

    def test_only_cmd_bench_exits_1(self):
        # 1 means a failed acceptance: no other function in cli may return it
        def codes(value):  # what a return statement's value can be
            if isinstance(value, ast.IfExp):
                return codes(value.body) + codes(value.orelse)
            return [ast.unparse(value)]

        tree = ast.parse(Path(cli.__file__).read_text())
        returning_1 = {
            func.name
            for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
            for ret in ast.walk(func) if isinstance(ret, ast.Return) and ret.value is not None
            if {"EXIT_ACCEPTANCE", "1"} & set(codes(ret.value))
        }
        assert returning_1 == {"cmd_bench"} and cli.EXIT_ACCEPTANCE == 1

    def test_seeds_and_seed_list_together_are_a_usage_error(self):
        assert run_under_contract(["bench", "overfitting", "--seeds", "2", "--seed-list", "0"]) == 2

    def test_help_enumerates_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for needle in ("learning_rate=0.05", "momentum=0.9", "hidden=64",
                       "convergence_window=50", "convergence_tolerance=0.01", "eval_interval=10"):
            assert needle in out

    def test_the_parser_is_built_once_and_reused_as_new(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        fresh = cli.build_parser.__wrapped__()
        for argv in (["--help"], ["adapt", "--help"], ["bench", "--help"]):
            texts = []
            for parse in (cli.main, fresh.parse_args, cli.main):
                with pytest.raises(SystemExit):
                    parse(argv)
                texts.append(capsys.readouterr().out)
            assert texts[0] == texts[1] == texts[2] != ""
        # a parse leaves nothing behind for the next one
        first = cli.build_parser().parse_args(["bench", "fusion", "--seed-list", "1,2"])
        second = cli.build_parser().parse_args(["bench", "fusion"])
        assert (first.seed_list, second.seed_list) == ("1,2", None)
        assert vars(cli.build_parser().parse_args(["defaults"])) == vars(fresh.parse_args(["defaults"]))

    def test_defaults_prints_config(self, capsys):
        assert run("defaults") == 0
        out = capsys.readouterr().out
        assert "[adapt]" in out and "learning_rate = 0.05" in out
        assert "eval_interval = 10" in out

    def test_defaults_output_is_a_config_file(self, tmp_path, capsys, moons_file, target_file):
        capsys.readouterr()  # the fixtures' lines
        assert run("defaults") == 0
        config = tmp_path / "d.ini"
        config.write_text(capsys.readouterr().out)
        plain, configured = tmp_path / "plain.model", tmp_path / "configured.model"
        train = ("train-source", "--data", str(moons_file), "--iterations", "5")
        assert run(*train, "--out", str(plain)) == 0
        assert run(*train, "--config", str(config), "--out", str(configured)) == 0
        assert digest(configured) == digest(plain)
        adapt = ("adapt", "--paradigm", "sfda", "--target", str(target_file), "--model",
                 str(plain), "--iterations", "5")
        assert run(*adapt, "--out", str(tmp_path / "a.model")) == 0
        assert run(*adapt, "--config", str(config), "--out", str(tmp_path / "b.model")) == 0
        assert digest(tmp_path / "b.model") == digest(tmp_path / "a.model")


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """kind -> the text of one small valid file of that kind."""
    d = tmp_path_factory.mktemp("valid")
    save_dataset(gen_two_moons(3, 0.1, seed=0, domain_id="d"), d / "ds")
    save_model(init_model(2, 2, 2, depth=1, domain_id="d"), d / "model")
    weights = combine_weights(np.array([0.25, 0.75]), np.array([0.5, 0.5]), 1.0)
    return {
        "dataset": (d / "ds").read_text(),
        "model": (d / "model").read_text(),
        "weights": format_weights(weights, ["a", "b"]),
        "config": "[adapt]\niterations = 7\nlearning_rate = 0.01\n",
    }


def run_under_contract(argv, names=None) -> int:
    """The exit code of `shiftlab argv`, once it is checked against the exit-code contract;
    with `names`, an exit-2 error line must contain it."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code, usage = cli.main(argv), False
        except SystemExit as exc:  # argparse's own rejection
            code, usage = exc.code, True
    err = err.getvalue()
    assert code in (0, 2, 3)
    assert "Traceback" not in out.getvalue() + err
    if usage:
        assert code == 2 and err.startswith("usage: ") and "error: argument" in err
    elif code:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert names is None or code != 2 or names in err
    else:
        assert err == ""
    return code


def check_exit_contract(kind, path):
    """`verify` exits 0, or 2 with one `error:` line that names the file;
    `read_config` returns a dict or raises a ShiftLabError that names the file."""
    if kind == "config":
        try:
            assert isinstance(cli.read_config(path), dict)
        except ShiftLabError as exc:
            assert str(path) in str(exc)
        return
    assert run_under_contract(["verify", kind, str(path)], names=str(path)) in (0, 2)


KINDS = ["dataset", "model", "weights", "config"]
FUZZ = settings(max_examples=60, deadline=None, derandomize=True)


class TestArbitraryInput:
    @pytest.mark.parametrize("kind", KINDS)
    @FUZZ
    @given(data=st.binary(max_size=120))
    def test_arbitrary_bytes(self, tmp_path_factory, kind, data):
        path = tmp_path_factory.getbasetemp() / f"fuzz-bytes-{kind}"
        path.write_bytes(data)
        check_exit_contract(kind, path)

    @pytest.mark.parametrize("kind", KINDS)
    @FUZZ
    @given(index=st.integers(min_value=0), text=st.text(max_size=12))
    def test_one_token_replaced(self, tmp_path_factory, valid_files, kind, index, text):
        parts = re.split(r"([\s,=]+)", valid_files[kind])
        parts[2 * (index % ((len(parts) + 1) // 2))] = text  # even entries are tokens
        path = tmp_path_factory.getbasetemp() / f"fuzz-token-{kind}"
        path.write_bytes("".join(parts).encode("utf-8"))
        check_exit_contract(kind, path)


ADAPT_NUMBERS = [f"--{f.name.replace('_', '-')}" for f in fields(AdaptationConfig)]
MOONS_NUMBERS = ["--n", "--noise", "--rotation", "--seed"]
BLOBS_NUMBERS = ["--n", "--classes", "--dim", "--separation", "--priors", "--seed"]
EXTREMES = ["nan", "inf", "-inf", "0", "-1", "1e308", "1e-320", "x", ""]


@pytest.fixture(scope="module")
def run_commands(tmp_path_factory):
    """name -> (argv of one small valid run, its numeric flags, None or the (kind, path)
    of the file it writes): gen, train-source, each adapt paradigm and weights form,
    and estimate."""
    d = tmp_path_factory.mktemp("runs")
    a, b, t = (str(d / f"{name}.csv") for name in "abt")
    for seed, (name, rotation) in enumerate((("a", 0.0), ("b", 10.0), ("t", 30.0))):
        save_dataset(gen_two_moons(60, 0.1, rotation, seed=seed, domain_id=name), d / f"{name}.csv")
    model_a, model_b = (str(p) for p in id_models(d))
    (d / "w.weights").write_text(weights_text(["a", "b"]))
    adapt = ("adapt", "--target", t, "--iterations=3", "--batch-size=16", "--pseudo-refresh=2")
    msfda = (*adapt, "--paradigm", "msfda", "--model", model_a, "--model", model_b)
    expanded = (*adapt, "--paradigm", "expanded", "--model", model_a, "--model", model_b,
                "--source-data", a, "--mode")
    visible = ("--visible", f"a={a}", "--visible", f"b={b}")
    dataset, model, weights = str(d / "out.csv"), str(d / "out.model"), str(d / "out.weights")
    adapt_run = {
        "uda": (*adapt, "--paradigm", "uda", "--source-data", a),
        "sfda": (*adapt, "--paradigm", "sfda", "--model", model_a),
        "msfda": msfda,
        "msfda-uniform": (*msfda, "--weights", "uniform"),
        "msfda-mea": (*msfda, "--weights", "mea", *visible),
        "msfda-file": (*msfda, "--weights", str(d / "w.weights")),
        "expanded-ce-only": (*expanded, "ce-only"),
        "expanded-ce+mmd": (*expanded, "ce+mmd"),
    }
    return {
        **{name: (argv, ADAPT_NUMBERS, None) for name, argv in adapt_run.items()},
        "estimate": (("estimate", "--model", model_a, "--model", model_b, "--target", t,
                      *visible, "--out", weights), ["--lambda"], ("weights", weights)),
        "gen-two-moons": (("gen", "two-moons", "--n=400", "--out", dataset), MOONS_NUMBERS,
                          ("dataset", dataset)),
        "gen-blobs": (("gen", "blobs", "--n=400", "--out", dataset), BLOBS_NUMBERS,
                      ("dataset", dataset)),
        "train-source": (("train-source", "--data", a, "--iterations=3", "--batch-size=16",
                          "--out", model), ADAPT_NUMBERS, ("model", model)),
    }


class TestExitCodeContract:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_one_numeric_flag_replaced(self, run_commands, data):
        name = data.draw(st.sampled_from(sorted(run_commands)))
        argv, flags, written = run_commands[name]
        flag, value = data.draw(st.sampled_from(flags)), data.draw(st.sampled_from(EXTREMES))
        # argparse keeps an option's last value; `=` lets "-inf" through as a value
        if run_under_contract([*argv, f"{flag}={value}"]) == 0:
            if written:  # what a command writes, `verify` reads back
                assert run_under_contract(["verify", *written]) == 0


# every printable ASCII character but the format separators: whitespace, ',' and '='
DOMAIN_IDS = st.text(
    st.characters(min_codepoint=0x21, max_codepoint=0x7E, exclude_characters=",="), max_size=8
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def same_bits(a, b):
    return (a is None) == (b is None) and (
        a is None or (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    )


@st.composite
def datasets(draw):
    n, d, k = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(2, 4))
    labels = draw(st.none() | arrays(np.int64, n, elements=st.integers(0, k - 1)))
    return Dataset(draw(arrays(np.float64, (n, d), elements=FINITE)), labels, k, draw(DOMAIN_IDS))


@st.composite
def source_models(draw):
    dims = draw(st.lists(st.integers(1, 4), min_size=3, max_size=5))  # input, hidden..., classes
    layers = [
        Layer(draw(arrays(np.float64, (out, fan_in), elements=FINITE)),
              draw(arrays(np.float64, out, elements=FINITE)))
        for fan_in, out in zip(dims, dims[1:])
    ]
    meta = {"domain_id": draw(DOMAIN_IDS), "seed": str(draw(st.integers(0, 99)))}
    return SourceModel(layers, meta)


@st.composite
def weight_estimates(draw):
    m = draw(st.integers(1, 4))
    simplex = arrays(np.float64, m, elements=st.floats(0.01, 1.0)).map(lambda v: v / v.sum())
    est = combine_weights(draw(simplex), draw(st.none() | simplex), draw(st.floats(0, 1e3)))
    return est, draw(st.lists(DOMAIN_IDS, min_size=m, max_size=m, unique=True))


class TestRoundTrip:
    """What shiftlab writes, it reads back: the same bits and the same ids."""

    @FUZZ
    @given(ds=datasets())
    def test_dataset(self, tmp_path_factory, ds):
        path = tmp_path_factory.getbasetemp() / "roundtrip.ds"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert same_bits(back.features, ds.features) and same_bits(back.labels, ds.labels)
        assert (back.num_classes, back.domain_id) == (ds.num_classes, ds.domain_id)

    @FUZZ
    @given(model=source_models())
    def test_model(self, tmp_path_factory, model):
        path = tmp_path_factory.getbasetemp() / "roundtrip.model"
        save_model(model, path)
        back = load_model(path)
        assert back.meta == model.meta
        for a, b in zip(model.layers, back.layers, strict=True):
            assert same_bits(a.weight, b.weight) and same_bits(a.bias, b.bias)

    @FUZZ
    @given(drawn=weight_estimates())
    def test_weights(self, drawn):
        est, ids = drawn
        back, back_ids = parse_weights(format_weights(est, ids))
        assert back_ids == ids
        assert (back.lam, back.fallback) == (est.lam, est.fallback)
        for name in ("w_s", "w_t", "w_raw", "w_final"):
            assert same_bits(getattr(back, name), getattr(est, name))
