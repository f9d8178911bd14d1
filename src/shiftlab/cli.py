"""Command-line surface: gen, train-source, adapt, estimate, bench, verify, defaults.

Exit codes: 0 success/pass, 1 bench acceptance failure (only), 2 usage, config
or file-format error, or a path the OS refuses, 3 numeric or memory failure,
4 a dead worker or diagnostic helper process, 70 an internal error (a bug: its
traceback is on stderr), 130 interrupted (Ctrl-C). `bench` takes --seeds or
--seed-list, not both.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import traceback
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import bench, mea
from .adapt import (
    EVAL_INTERVAL,
    EXPANDED_MODES,
    AdaptationConfig,
    train_expanded_base,
    train_msfda,
    train_sfda,
    train_source,
    train_uda,
)
from .datagen import gen_gaussian_blobs, gen_two_moons, load_dataset, read_ascii, save_dataset
from .errors import FormatError, NumericError, ParameterError, ShiftLabError, WorkerError
from .nn import DEFAULT_DEPTH, DEFAULT_HIDDEN, load_model, save_model
from .records import final_accuracy, write_trajectory

EXIT_OK = 0
EXIT_ACCEPTANCE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_WORKER = 4
EXIT_SOFTWARE = 70  # EX_SOFTWARE in BSD's sysexits.h: an internal error
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it

CONFIG_SECTIONS = {"adapt"}

# The adapt flags (by dest) that only some paradigms read; giving one to a
# paradigm that does not read it is a usage error.
ADAPT_FLAGS = {"uda": {"source_data"}, "sfda": {"model"}, "msfda": {"model", "weights", "visible"},
               "expanded": {"model", "source_data", "mode"}}


def read_config(path) -> dict:
    """Parse a flat `key = value` config document with [section] headers."""
    config: dict = {}
    first_line: dict = {}  # (section, key) -> the line that set it
    section = None
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not a utf-8 file: byte {exc.start} "
                             f"is 0x{data[exc.start]:02x}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in CONFIG_SECTIONS:
                raise ParameterError(f"{path}:{lineno}: unknown section [{section}]")
            config.setdefault(section, {})
            continue
        if "=" not in line or section is None:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value' inside a section")
        key, _, value = line.partition("=")
        key = key.strip()
        if (section, key) in first_line:
            raise ParameterError(f"{path}:{lineno}: key {key!r} given twice in [{section}], "
                                 f"first on line {first_line[section, key]}")
        first_line[section, key] = lineno
        config[section][key] = value.strip()
    return config


def _apply_config(cfg: AdaptationConfig, overrides: dict) -> AdaptationConfig:
    valid = sorted(f.name for f in fields(AdaptationConfig))
    kwargs = {}
    for key, raw in overrides.items():
        if key not in valid:
            raise ParameterError(f"unknown config key {key!r}; valid: {valid}")
        kind = type(getattr(cfg, key))
        try:
            kwargs[key] = kind(raw)
        except ValueError:
            raise ParameterError(
                f"config key {key!r}: {raw!r} is not of type {kind.__name__}"
            ) from None
    return replace(cfg, **kwargs)


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _cfg_from_args(args) -> AdaptationConfig:
    cfg = AdaptationConfig()
    if getattr(args, "config", None):
        file_cfg = read_config(args.config).get("adapt", {})
        cfg = _apply_config(cfg, file_cfg)
    overrides = {}
    for f in fields(AdaptationConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            overrides[f.name] = v
    return replace(cfg, **overrides)


def _add_cfg_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file with [adapt] section")
    defaults = AdaptationConfig()
    for f in fields(AdaptationConfig):
        flag = "--" + f.name.replace("_", "-")
        p.add_argument(flag, dest=f.name, type=type(getattr(defaults, f.name)))


def cmd_gen(args) -> int:
    if args.generator == "two-moons":
        ds = gen_two_moons(args.n, args.noise, args.rotation, seed=args.seed, domain_id=args.domain)
    else:
        try:
            priors = [float(v) for v in args.priors.split(",")]
        except ValueError:
            raise ParameterError(
                f"--priors needs comma-separated numbers, got {args.priors!r}"
            ) from None
        ds = gen_gaussian_blobs(
            args.n, args.classes, args.dim, args.separation, priors,
            seed=args.seed, domain_id=args.domain,
        )
    save_dataset(ds, args.out)
    print(f"{args.out} sha256={_digest(args.out)}")
    return EXIT_OK


def cmd_train_source(args) -> int:
    ds = load_dataset(args.data)
    if ds.labels is None:
        raise ParameterError(f"{args.data}: source training needs a labeled dataset")
    cfg = _cfg_from_args(args)
    out = train_source(ds, cfg, eval_set=ds)
    save_model(out.model, args.out)
    if args.trajectory:
        write_trajectory(out.rows, args.trajectory)
    print(f"{args.out} final_train_accuracy={final_accuracy(out.rows):.4f}")
    return EXIT_OK


def _read_weights(path):
    """`mea.parse_weights` of the weights file at `path`; a format error names the file."""
    text = read_ascii(path)
    try:
        return mea.parse_weights(text)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _load_weights_arg(args, models):
    """msfda's weights: None (uniform), the --visible datasets (MEA), or a file's."""
    if args.weights in (None, "uniform"):
        return None
    ids = _model_ids(models)
    if args.weights == "mea":
        return _parse_visible(args)
    est, file_ids = _read_weights(args.weights)
    if sorted(file_ids) != sorted(ids):
        raise ParameterError(f"{args.weights}: weights file is for models {file_ids}, --model gives {ids}")
    by_id = dict(zip(file_ids, est.w_final))
    return np.array([by_id[i] for i in ids])


def _model_ids(models) -> list:
    """Each model's domain_id (its position when it has none); ids must be distinct."""
    ids = [m.meta.get("domain_id", str(i)) for i, m in enumerate(models)]
    if len(set(ids)) != len(ids):
        raise ParameterError(f"models must have distinct domain ids, got {ids}")
    return ids


def _parse_visible(args) -> dict:
    visible = {}
    for item in args.visible or []:
        domain, sep, path = item.partition("=")
        if not (sep and domain):
            raise ParameterError(f"--visible expects domain=path, got {item!r}")
        if domain in visible:
            raise ParameterError(f"--visible domain {domain!r} given twice")
        ds = load_dataset(path)
        if ds.labels is None:
            raise ParameterError(f"visible domain {domain!r} must be labeled")
        visible[domain] = replace(ds, domain_id=domain)
    return visible


def cmd_adapt(args) -> int:
    for dest in sorted(set().union(*ADAPT_FLAGS.values()) - ADAPT_FLAGS[args.paradigm]):
        if getattr(args, dest) is not None:
            flag = "--" + dest.replace("_", "-")
            raise ParameterError(f"paradigm {args.paradigm!r} does not read {flag}")
    cfg = _cfg_from_args(args)
    target = load_dataset(args.target)
    eval_set = load_dataset(args.eval_data) if args.eval_data else None
    target_unlabeled = target.unlabeled()

    if args.paradigm == "uda":
        if len(args.source_data or []) != 1:
            raise ParameterError("paradigm 'uda' requires exactly one --source-data")
        out = train_uda(load_dataset(args.source_data[0]), target_unlabeled, cfg, eval_set=eval_set)
    elif args.paradigm == "sfda":
        if len(args.model or []) != 1:
            raise ParameterError("paradigm 'sfda' requires exactly one --model")
        out = train_sfda(load_model(args.model[0]), target_unlabeled, cfg, eval_set=eval_set)
    elif args.paradigm == "msfda":
        models = [load_model(p) for p in args.model or []]
        if not models:
            raise ParameterError("paradigm 'msfda' requires at least one --model")
        if args.visible and args.weights != "mea":
            raise ParameterError("--visible is read only with --weights mea")
        out = train_msfda(models, _load_weights_arg(args, models), target_unlabeled, cfg,
                          eval_set=eval_set)
    else:  # expanded
        models = [load_model(p) for p in args.model or []]
        if not models:
            raise ParameterError("paradigm 'expanded' requires at least one --model")
        if not args.source_data:
            raise ParameterError("paradigm 'expanded' requires --source-data")
        visible = [load_dataset(p) for p in args.source_data]
        out = train_expanded_base(models, None, target_unlabeled, visible,
                                  args.mode or "ce-only", cfg, eval_set=eval_set)

    if args.out:
        if len(out.models) == 1:
            save_model(out.models[0], args.out)
        else:
            stem = Path(args.out)
            for i, model in enumerate(out.models):
                save_model(model, stem.with_name(f"{stem.stem}-{i}{stem.suffix}"))
    if args.trajectory:
        write_trajectory(out.rows, args.trajectory)
    final = final_accuracy(out.rows)
    print(f"paradigm={args.paradigm} iterations={cfg.iterations}"
          + (f" final_accuracy={final:.4f}" if final is not None else ""))
    return EXIT_OK


def cmd_estimate(args) -> int:
    models = [load_model(p) for p in args.model]
    ids = _model_ids(models)
    target = load_dataset(args.target).unlabeled()
    est, prov = mea.estimate(models, _parse_visible(args), target, args.lam)
    Path(args.out).write_text(mea.format_weights(est, ids), encoding="ascii")
    if args.log:
        Path(args.log).write_text(mea.format_provenance(est, prov, ids), encoding="ascii")
    print(f"{args.out} fallback={est.fallback} w_final={est.w_final.tolist()}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.suite not in bench.SUITES:
        raise ParameterError(f"unknown suite {args.suite!r}; valid: {sorted(bench.SUITES)}")
    if args.seed_list is None:
        seeds = list(range(args.seeds))
    else:
        try:
            seeds = [int(s) for s in args.seed_list.split(",")]
        except ValueError:
            raise ParameterError(
                f"--seed-list needs comma-separated integers, got {args.seed_list!r}"
            ) from None
    report = bench.SUITES[args.suite](seeds, out_dir=args.out)
    for entry in report["per_seed"]:
        print(" ".join(f"{k}={v}" for k, v in entry.items()))
    print(f"suite={args.suite} passed={report['passed']}")
    return EXIT_OK if report["passed"] else EXIT_ACCEPTANCE


def cmd_verify(args) -> int:
    if args.kind == "dataset":
        ds = load_dataset(args.path)
        print(f"ok dataset n={ds.n} d={ds.d} K={ds.num_classes} domain={ds.domain_id}")
    elif args.kind == "model":
        model = load_model(args.path)
        print(f"ok model arch={model.meta.get('architecture', '?')}")
    else:
        est, _ = _read_weights(args.path)
        print(f"ok weights m={len(est.w_final)} fallback={est.fallback}")
    return EXIT_OK


def _defaults() -> dict:
    """Every built-in default: section -> [(name, value, note)]."""
    cfg = AdaptationConfig()
    return {
        "adapt": [(f.name, getattr(cfg, f.name), "") for f in fields(AdaptationConfig)],
        "model": [
            ("hidden", DEFAULT_HIDDEN, ""),
            ("depth", DEFAULT_DEPTH, ""),
            ("activation", "tanh", ""),
            ("init", "uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) with zero bias", ""),
        ],
        "bench": [
            ("convergence_window", bench.DEFAULT_WINDOW, "logged evaluations"),
            ("convergence_tolerance", bench.DEFAULT_TOLERANCE, ""),
            ("eval_interval", EVAL_INTERVAL, "iterations between accuracy evaluations"),
        ],
    }


def cmd_defaults(_args) -> int:
    """Print the defaults as a valid --config file: the sections it cannot set are comments."""
    blocks = []
    for section, entries in _defaults().items():
        lines = [f"[{section}]"]
        lines += [f"{k} = {v}" + (f"  # {note}" if note else "") for k, v, note in entries]
        if section not in CONFIG_SECTIONS:
            lines = [f"# {line}" for line in lines]
        blocks.append("\n".join(lines))
    print("\n\n".join(blocks))
    return EXIT_OK


def _defaults_epilog() -> str:
    lines = ["defaults:"]
    for section, entries in _defaults().items():
        items = "  ".join(f"{k}={v}" + (f" ({note})" if note else "") for k, v, note in entries)
        lines.append(f"  {f'[{section}]':<9}{items}")
    return "\n".join(lines) + "\n"


@functools.cache  # built once per process; parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description=__doc__,
        epilog=_defaults_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset file")
    gsub = p.add_subparsers(dest="generator", required=True)
    moons = gsub.add_parser("two-moons")
    moons.add_argument("--n", type=int, default=400)
    moons.add_argument("--noise", type=float, default=0.1)
    moons.add_argument("--rotation", type=float, default=0.0, help="degrees in [0, 360)")
    moons.add_argument("--seed", type=int, default=0)
    moons.add_argument("--domain", default="moons")
    moons.add_argument("--out", required=True)
    moons.set_defaults(func=cmd_gen)
    blobs = gsub.add_parser("blobs")
    blobs.add_argument("--n", type=int, default=400)
    blobs.add_argument("--classes", type=int, default=2)
    blobs.add_argument("--dim", type=int, default=2)
    blobs.add_argument("--separation", type=float, default=6.0)
    blobs.add_argument("--priors", default="0.5,0.5")
    blobs.add_argument("--seed", type=int, default=0)
    blobs.add_argument("--domain", default="blobs")
    blobs.add_argument("--out", required=True)
    blobs.set_defaults(func=cmd_gen)

    p = sub.add_parser("train-source", help="supervised training on a labeled dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trajectory")
    _add_cfg_flags(p)
    p.set_defaults(func=cmd_train_source)

    p = sub.add_parser("adapt", help="run an adaptation paradigm")
    p.add_argument("--paradigm", required=True,
                   choices=["uda", "sfda", "msfda", "expanded"])
    p.add_argument("--target", required=True)
    p.add_argument("--model", action="append", help="source model file (repeatable)")
    p.add_argument("--source-data", dest="source_data", action="append",
                   help="labeled source dataset (uda/expanded only)")
    p.add_argument("--weights", help="msfda weights: uniform (default) | mea | <weights file>")
    p.add_argument("--visible", action="append",
                   help="domain=path of data-visible source (msfda --weights mea only)")
    p.add_argument("--mode", choices=EXPANDED_MODES, help="expanded only; default ce-only")
    p.add_argument("--eval-data", dest="eval_data", help="labeled copy for accuracy logging")
    p.add_argument("--out", help="adapted model output path")
    p.add_argument("--trajectory")
    _add_cfg_flags(p)
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("estimate", help="proxy/confidence weight estimation")
    p.add_argument("--model", action="append", required=True)
    p.add_argument("--visible", action="append", help="domain=path (repeatable)")
    p.add_argument("--target", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="provenance log output path")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bench", help="run a benchmark suite")
    p.add_argument("suite")
    seeds = p.add_mutually_exclusive_group()
    seeds.add_argument("--seeds", type=int, default=5, help="use seeds 0..N-1")
    seeds.add_argument("--seed-list", dest="seed_list", help="comma-separated explicit seeds")
    p.add_argument("--out", help="report output directory")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="validate a shiftlab file")
    p.add_argument("kind", choices=["dataset", "model", "weights"])
    p.add_argument("path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("defaults", help="print all built-in defaults")
    p.set_defaults(func=cmd_defaults)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # an overflowing or invalid float is a numeric error, not a warning
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (NumericError, FloatingPointError, MemoryError, WorkerError) as exc:
        # a MemoryError that Python itself raises has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_WORKER if isinstance(exc, WorkerError) else EXIT_NUMERIC
    # a path the OS refuses (missing, a directory, too long, ...) is a usage error too
    except (ShiftLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Exception:  # a bug: its traceback is the report
        traceback.print_exc()
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
