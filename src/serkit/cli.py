"""Command-line surface: train, eval, relabel, pseudolabel, gradcheck, report, synth.

Every command is deterministic given --seed and its inputs. Exit codes:
0 success, 1 configuration error, 2 data error, 3 numeric failure; the
reason is printed as a single machine-parseable line on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from .checkpoint import load_into_model
from .config import RunConfig
from .datapipe import (
    ConsensusConfig,
    pseudo_label_files,
    read_manifest,
    synth_dataset,
    write_manifest,
)
from .errors import ConfigError, DataError, NumericError, SerkitError
from .evaluation import evaluate_manifest, two_pass_relabel
from .losses import DimTargets
from .model import SERModel
from .reporting import read_report_csv, svg_bar_chart, write_report_csv, write_svg
from .training import compute_batch_loss, train_loop

log = logging.getLogger("serkit.cli")

EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def _setup_logging():
    level_name = os.environ.get("SER_LOG_LEVEL", "warn").lower()
    level = {"error": logging.ERROR, "warn": logging.WARNING,
             "info": logging.INFO, "debug": logging.DEBUG}.get(level_name)
    if level is None:
        raise ConfigError(f"SER_LOG_LEVEL must be error/warn/info/debug, got {level_name!r}")
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


# -- train -----------------------------------------------------------------------


class RunLock:
    """Sentinel file guarding a run directory against concurrent writers."""

    def __init__(self, out_dir: str):
        self.path = os.path.join(out_dir, ".lock")

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ConfigError(f"run directory is locked (stale {self.path}?)") from None
        os.close(fd)
        return self

    def __exit__(self, *exc):
        if os.path.exists(self.path):
            os.remove(self.path)
        return False


def cmd_train(args) -> int:
    cfg = RunConfig.load(args.config, args.set)
    train_records = read_manifest(args.train)
    dev_records = read_manifest(args.dev)
    os.makedirs(args.out, exist_ok=True)
    with RunLock(args.out):
        cfg.write_echo(os.path.join(args.out, "effective_config.cfg"))
        model = SERModel(cfg.model_config(args.seed))
        state = train_loop(
            model, train_records, dev_records, args.out,
            loss_cfg=cfg.loss_config(),
            opt_cfg=cfg.optimizer_config(),
            train_cfg=cfg.train_config(args.seed),
            augment_cfg=cfg.augment_config(),
            config_hash=cfg.config_hash(),
        )
        with open(os.path.join(args.out, "train_state.json"), "w", encoding="utf-8") as handle:
            json.dump(state.summary(relative_to=args.out), handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(f"trained {state.epoch} epochs, best dev categorical loss {state.best_dev_cat_loss:.6f}")
    return 0


# -- eval / relabel ------------------------------------------------------------------


def _load_ensemble(args) -> tuple:
    """(config, manifest records, one LoRA-merged model per --checkpoint) for `eval`
    and `relabel`: members are scored in their deployed, adapter-free form."""
    if not args.checkpoint:
        raise ConfigError("at least one --checkpoint is required")
    cfg = RunConfig.load(args.config, args.set)
    records = read_manifest(args.manifest)
    models = []
    for path in args.checkpoint:
        model = SERModel(cfg.model_config(args.seed))
        load_into_model(path, model, expected_hash=cfg.config_hash())
        models.append(model.merge_adapters())
    return cfg, records, models


def _write_labels(out: str, records: list, stats: dict) -> None:
    """A labeled manifest at `out` and its stats at `out`.stats.json."""
    write_manifest(out, records)
    with open(out + ".stats.json", "w", encoding="utf-8") as handle:
        json.dump(stats, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_eval(args) -> int:
    cfg, records, models = _load_ensemble(args)
    report = evaluate_manifest(models, records, granularity=args.granularity,
                               merge_cap_s=cfg["eval.merge_cap_s"])
    write_report_csv(args.report, report)
    if args.svg:
        name = os.path.splitext(os.path.basename(args.report))[0]
        write_svg(args.svg, svg_bar_chart([(name, dict(report.rows()))]))
    headline = report.uar_4 if args.classes == 4 else report.uar_7
    print(f"scored {report.n_scored} segments: uar_{args.classes}={headline:.4f}")
    return 0


def cmd_relabel(args) -> int:
    _, records, models = _load_ensemble(args)
    relabeled, stats = two_pass_relabel(models, records)
    _write_labels(args.out, relabeled, stats)
    print(f"relabeled {stats['n_relabeled']} of {stats['n_total']} utterances "
          f"({stats['n_changed']} changed, {stats['n_skipped']} skipped)")
    return 0


# -- pseudolabel -------------------------------------------------------------------


def cmd_pseudolabel(args) -> int:
    cfg = ConsensusConfig(window_s=args.window_s, hop_s=args.hop_s,
                          min_emotional_fraction=args.min_frac)
    records, stats = pseudo_label_files(args.pred_a, args.pred_b, args.durations, cfg)
    _write_labels(args.out, records, stats)
    print(f"pseudo-labeled {len(records)} utterances "
          f"({stats['neutral_fallback_fraction']:.3f} neutral window fraction)")
    return 0


# -- gradcheck ----------------------------------------------------------------------


def _gradcheck_group(name: str) -> str:
    if ".lora." in name:
        return "encoder.lora"
    return name.split(".", 1)[0]


def cmd_gradcheck(args) -> int:
    from .autodiff import finite_difference_sample, no_grad, relative_error

    for flag in ("samples", "frames", "batch"):
        if getattr(args, flag) < 1:
            raise ConfigError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    if not 0 <= args.tolerance < np.inf:  # 0 fails every group: a check of the FAIL path
        raise ConfigError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    cfg = RunConfig.load(args.config, args.set)
    loss_cfg = cfg.loss_config()
    model = SERModel(cfg.model_config(args.seed))
    rng = np.random.default_rng((args.seed, 0xFD))
    batch = rng.normal(size=(args.batch, args.frames, cfg["model.feature_dim"]))
    lengths = np.full(args.batch, args.frames)
    cats = np.eye(7)[rng.integers(0, 7, size=args.batch)]
    dims = DimTargets(values=rng.uniform(0.1, 0.9, size=(args.batch, 3)),
                      present_mask=np.ones(args.batch, dtype=bool))

    model.zero_grad()
    loss, _, _ = compute_batch_loss(model, batch, lengths, cats, dims, loss_cfg)
    loss.backward()
    analytic = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for name, t in model.trainable_parameters().items()}

    def loss_at(name, arr):
        tensor = model.params[name]
        saved = tensor.data
        tensor.data = arr
        try:
            with no_grad():  # the oracle never touches the reverse-mode engine
                return compute_batch_loss(model, batch, lengths, cats, dims, loss_cfg)[0].item()
        finally:
            tensor.data = saved

    group_err: dict = {}
    worst_param, worst_err = None, -1.0
    for name, tensor in model.trainable_parameters().items():
        n = tensor.data.size
        k = min(args.samples, n)
        idx = rng.choice(n, size=k, replace=False)
        fd = finite_difference_sample(lambda arr, name=name: loss_at(name, arr),
                                      tensor.data, idx, h=args.step)
        err = relative_error(analytic[name].reshape(-1)[idx], fd)
        group = _gradcheck_group(name)
        group_err[group] = max(group_err.get(group, 0.0), err)
        if err > worst_err:
            worst_param, worst_err = name, err

    failed = False
    for group in sorted(group_err):
        status = "PASS" if group_err[group] < args.tolerance else "FAIL"
        failed = failed or status == "FAIL"
        print(f"group {group}: max_rel_err={group_err[group]:.3e} [{status}]")
    if failed:
        raise NumericError(
            f"gradient check failed (worst parameter {worst_param}, rel err {worst_err:.3e})"
        )
    return 0


# -- report -------------------------------------------------------------------------


def cmd_report(args) -> int:
    groups = []
    for path in args.inputs:
        name = os.path.splitext(os.path.basename(path))[0]
        groups.append((name, read_report_csv(path)))
    write_svg(args.svg, svg_bar_chart(groups))
    print(f"wrote {args.svg} with {len(groups)} group(s)")
    return 0


# -- synth --------------------------------------------------------------------------


def cmd_synth(args) -> int:
    manifest = synth_dataset(args.out, n_per_class=args.n_per_class, frames=args.frames,
                             dim=args.dim, seed=args.seed, split=args.split,
                             frame_rate_hz=args.frame_rate,
                             geometry_seed=args.geometry_seed)
    print(f"wrote {manifest}")
    return 0


# -- parser ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="serkit",
                                     description="Speech emotion recognition desk stack")
    sub = parser.add_subparsers(dest="command", required=True)
    # --config, --seed and --set: a run configuration, shared by four commands
    run_args = argparse.ArgumentParser(add_help=False)
    run_args.add_argument("--config", default=None)
    run_args.add_argument("--seed", type=int, default=0)
    run_args.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    ensemble_args = argparse.ArgumentParser(add_help=False, parents=[run_args])
    ensemble_args.add_argument("--checkpoint", action="append", default=[])
    ensemble_args.add_argument("--manifest", required=True)

    p_train = sub.add_parser("train", help="train a model from manifests", parents=[run_args])
    p_train.add_argument("--train", required=True)
    p_train.add_argument("--dev", required=True)
    p_train.add_argument("--out", required=True)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate checkpoint ensemble on a manifest",
                            parents=[ensemble_args])
    p_eval.add_argument("--report", required=True)
    p_eval.add_argument("--classes", type=int, choices=(7, 4), default=7)
    p_eval.add_argument("--granularity", choices=("fine", "merged"), default="fine")
    p_eval.add_argument("--svg", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_relabel = sub.add_parser("relabel", help="relabel a manifest with a checkpoint ensemble",
                               parents=[ensemble_args])
    p_relabel.add_argument("--out", required=True)
    p_relabel.set_defaults(func=cmd_relabel)

    p_pseudo = sub.add_parser("pseudolabel", help="windowed two-predictor consensus labels")
    p_pseudo.add_argument("--pred-a", required=True)
    p_pseudo.add_argument("--pred-b", required=True)
    p_pseudo.add_argument("--durations", required=True)
    p_pseudo.add_argument("--out", required=True)
    p_pseudo.add_argument("--min-frac", type=float,
                          default=ConsensusConfig.min_emotional_fraction)
    p_pseudo.add_argument("--window-s", type=float, default=ConsensusConfig.window_s)
    p_pseudo.add_argument("--hop-s", type=float, default=ConsensusConfig.hop_s)
    p_pseudo.set_defaults(func=cmd_pseudolabel)

    p_grad = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients",
                            parents=[run_args])
    p_grad.add_argument("--tolerance", type=float, default=1e-4)
    p_grad.add_argument("--samples", type=int, default=3, help="probed elements per tensor")
    p_grad.add_argument("--frames", type=int, default=12)
    p_grad.add_argument("--batch", type=int, default=2)
    p_grad.add_argument("--step", type=float, default=1e-5)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_report = sub.add_parser("report", help="render report CSVs as an SVG bar chart")
    p_report.add_argument("--in", dest="inputs", nargs="+", required=True)
    p_report.add_argument("--svg", required=True)
    p_report.set_defaults(func=cmd_report)

    p_synth = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--n-per-class", type=int, required=True)
    p_synth.add_argument("--frames", type=int, default=16)
    p_synth.add_argument("--dim", type=int, default=16)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--geometry-seed", type=int, default=None,
                         help="class-centroid seed; share across splits (default: --seed)")
    p_synth.add_argument("--split", choices=("train", "dev", "eval"), default="train")
    p_synth.add_argument("--frame-rate", type=float, default=8.0)
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:  # an output path that cannot be made or written
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: config: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SerkitError as exc:  # fallback for any future subclass
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
