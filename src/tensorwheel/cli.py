"""Command-line interface: reproducible ingest/train/evaluate pipelines.

Every report-producing command embeds its fully resolved configuration in
the report, so a run can be reproduced byte-for-byte from the report
alone.  Reports are JSON; nothing in them depends on wall-clock time.

Commands:
    ingest-check  parse and validate a COO file, print a summary
    split         write train/validation/test COO files
    synth         generate a planted low-rank dataset (+ truth checkpoint)
    train         normalize -> split -> train -> evaluate, repeated over seeds
    evaluate      score a saved checkpoint against a COO file
    ablate        train PID and PID-removed arms on identical data
    grid          grid-search eta/lambda against the validation split
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from .errors import ParameterError, TensorWheelError
from .metrics import evaluate
from .pid_sgd import DivergenceError, HyperParams, train
from .synthgen import SynthSpec, generate
from .tensor_store import SplitSpec, ingest, normalize, read_dims_header, split, write_coo
from .twd_core import (
    Ranks,
    checkpoint_text,
    init_factors,
    load_checkpoint,
    save_checkpoint,
)

DEFAULT_GRID_ETAS = (0.1, 0.03, 0.01)
DEFAULT_GRID_LAMBDAS = (0.0, 0.001, 0.01)


def _parse_ints(text: str, n: int, what: str) -> tuple:
    parts = text.split(",")
    if len(parts) != n:
        raise ParameterError(f"{what} needs {n} comma-separated integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ParameterError(f"{what} must be integers, got {text!r}") from None


def _parse_floats(text: str, what: str) -> tuple:
    try:
        return tuple(float(p) for p in text.split(",") if p != "")
    except ValueError:
        raise ParameterError(f"{what} must be comma-separated numbers, got {text!r}") from None


def _parse_split(text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError(f"split ratio needs the form A:B:C, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ParameterError(f"split ratio must be integers, got {text!r}") from None


def _resolve_ranks(args) -> Ranks:
    if getattr(args, "ranks", None):
        r1, r2, r3, h1, h2, h3 = _parse_ints(args.ranks, 6, "--ranks")
        return Ranks(r=(r1, r2, r3), h=(h1, h2, h3))
    return Ranks.from_dim(args.dim)


def _resolve_hp(args, seed: int) -> HyperParams:
    return HyperParams(eta=args.eta, lam=getattr(args, "lam"), cp=args.cp, ci=args.ci,
                       cd=args.cd, max_epochs=args.epochs, patience=args.patience,
                       seed=seed, init_scale=args.init_scale)


def _load_input(args):
    dims = "infer" if args.dims is None else _parse_ints(args.dims, 3, "--dims")
    tensor = ingest(args.input, dims=dims, keep_last=getattr(args, "keep_last", False))
    if not getattr(args, "no_normalize", False):
        tensor = normalize(tensor)
    return tensor


def _write_report(report: dict, path) -> None:
    # strict JSON: a non-finite metric is a bug upstream, not a report
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _ranks_dict(ranks: Ranks) -> dict:
    return {"r": list(ranks.r), "h": list(ranks.h)}


def _hp_dict(hp: HyperParams) -> dict:
    return {"eta": hp.eta, "lambda": hp.lam, "cp": hp.cp, "ci": hp.ci, "cd": hp.cd,
            "max_epochs": hp.max_epochs, "patience": hp.patience,
            "init_scale": hp.init_scale}


def cmd_ingest_check(args) -> int:
    dims = "infer" if args.dims is None else _parse_ints(args.dims, 3, "--dims")
    tensor = ingest(args.input, dims=dims, keep_last=args.keep_last)
    values = tensor.value_array
    print(f"ok: {len(tensor)} entries, dims {tensor.dims}")
    if len(tensor):
        print(f"values: min {values.min():g} max {values.max():g} mean {values.mean():g}")
    return 0


def cmd_split(args) -> int:
    tensor = ingest(args.input,
                    dims="infer" if args.dims is None else _parse_ints(args.dims, 3, "--dims"))
    spec = SplitSpec(ratios=_parse_split(args.split), seed=args.seed)
    train_t, valid_t, test_t = split(tensor, spec)
    for name, part in (("train", train_t), ("valid", valid_t), ("test", test_t)):
        path = f"{args.output_prefix}.{name}.txt"
        write_coo(part, path)
        print(f"{name}: {len(part)} entries -> {path}")
    return 0


def cmd_synth(args) -> int:
    ranks = _resolve_ranks(args)
    spec = SynthSpec(dims=_parse_ints(args.dims, 3, "--dims"), ranks=ranks,
                     density=args.density, noise_sigma=args.noise, seed=args.seed,
                     value_scale=args.value_scale)
    observed, truth = generate(spec)
    write_coo(observed, args.output)
    print(f"wrote {len(observed)} observations -> {args.output}")
    if args.truth:
        save_checkpoint(truth, args.truth)
        print(f"wrote ground-truth checkpoint -> {args.truth}")
    return 0


def run_train(args) -> dict:
    """Full pipeline for one config: repeated split/train/evaluate.

    Repetition r uses seed base_seed + r for both the split shuffle and
    the trainer, so repetitions are independent but reproducible.
    """
    if args.reps < 1:
        raise ParameterError(f"--reps must be >= 1, got {args.reps}")
    tensor = _load_input(args)
    ranks = _resolve_ranks(args)
    ratios = _parse_split(args.split)
    raw_metrics = args.raw_domain_metrics

    reps = []
    for rep in range(args.reps):
        seed = args.seed + rep
        train_t, valid_t, test_t = split(tensor, SplitSpec(ratios=ratios, seed=seed))
        hp = _resolve_hp(args, seed)
        factors, report = train(train_t, valid_t, tensor.dims, ranks, hp,
                                early_stop=not args.no_early_stop)
        if len(test_t) == 0:
            raise ParameterError("test split is empty; adjust --split ratios")
        scores = evaluate(factors, test_t, raw_domain=raw_metrics)
        if args.checkpoint:
            save_checkpoint(factors, f"{args.checkpoint}.rep{rep}.txt")
        reps.append({
            "seed": seed,
            "rmse": scores.rmse,
            "mae": scores.mae,
            "test_count": scores.count,
            "epochs_run": report.epochs_run,
            "converged_at": report.converged_at,
            "loss_history": report.loss_history,
            "valid_rmse_history": report.valid_rmse_history,
        })

    hp0 = _resolve_hp(args, args.seed)
    return {
        "command": "train",
        "config": {
            "input": args.input,
            "dims": list(tensor.dims),
            "ranks": _ranks_dict(ranks),
            "hyperparams": _hp_dict(hp0),
            "split": list(ratios),
            "base_seed": args.seed,
            "repetitions": args.reps,
            "normalize": not args.no_normalize,
            "early_stop": not args.no_early_stop,
            "raw_domain_metrics": raw_metrics,
        },
        "repetitions": reps,
        "mean_rmse": float(np.mean([r["rmse"] for r in reps])),
        "mean_mae": float(np.mean([r["mae"] for r in reps])),
    }


def cmd_train(args) -> int:
    report = run_train(args)
    _write_report(report, args.report)
    print(f"mean rmse {report['mean_rmse']:.6f}, mean mae {report['mean_mae']:.6f} "
          f"over {args.reps} repetition(s) -> {args.report}")
    return 0


def cmd_evaluate(args) -> int:
    factors = load_checkpoint(args.checkpoint)
    dims = "infer" if args.dims is None else _parse_ints(args.dims, 3, "--dims")
    tensor = ingest(args.input, dims=dims)
    declared = read_dims_header(args.input) if dims == "infer" else dims
    if declared is not None and declared != factors.dims:
        raise ParameterError(f"data declares dims {declared}, "
                             f"but the checkpoint has dims {factors.dims}")
    if args.normalize:
        tensor = normalize(tensor)
    scores = evaluate(factors, tensor, raw_domain=args.raw_domain_metrics)
    print(f"rmse {scores.rmse:.6f}, mae {scores.mae:.6f} over {scores.count} entries")
    return 0


def run_ablate(args) -> dict:
    """Controlled PID-vs-plain experiment on identical data and seeds.

    Both arms of a repetition share the split and the initial factors
    (verified by checkpoint hash); the plain arm runs with the PID state
    removed, which equals gains (1, 0, 0).
    """
    if args.reps < 1:
        raise ParameterError(f"--reps must be >= 1, got {args.reps}")
    tensor = _load_input(args)
    ranks = _resolve_ranks(args)
    ratios = _parse_split(args.split)

    reps = []
    for rep in range(args.reps):
        seed = args.seed + rep
        train_t, valid_t, test_t = split(tensor, SplitSpec(ratios=ratios, seed=seed))
        if len(test_t) == 0:
            raise ParameterError("test split is empty; adjust --split ratios")
        hp = _resolve_hp(args, seed)
        init_hash = hashlib.sha256(
            checkpoint_text(init_factors(tensor.dims, ranks, seed, hp.init_scale)).encode()
        ).hexdigest()

        arms = {}
        for arm_name, use_pid in (("pid", True), ("plain", False)):
            factors, report = train(train_t, valid_t, tensor.dims, ranks, hp,
                                    pid=use_pid, early_stop=not args.no_early_stop)
            scores = evaluate(factors, test_t, raw_domain=args.raw_domain_metrics)
            arms[arm_name] = {
                "rmse": scores.rmse,
                "mae": scores.mae,
                "epochs_run": report.epochs_run,
                "converged_at": report.converged_at,
            }
        reps.append({"seed": seed, "init_checkpoint_sha256": init_hash, **arms})

    hp0 = _resolve_hp(args, args.seed)
    return {
        "command": "ablate",
        "config": {
            "input": args.input,
            "dims": list(tensor.dims),
            "ranks": _ranks_dict(ranks),
            "hyperparams": _hp_dict(hp0),
            "split": list(ratios),
            "base_seed": args.seed,
            "repetitions": args.reps,
            "normalize": not args.no_normalize,
            "early_stop": not args.no_early_stop,
            "raw_domain_metrics": args.raw_domain_metrics,
        },
        "repetitions": reps,
        "mean_converged_at_pid": float(np.mean([r["pid"]["converged_at"] for r in reps])),
        "mean_converged_at_plain": float(np.mean([r["plain"]["converged_at"] for r in reps])),
        "mean_rmse_pid": float(np.mean([r["pid"]["rmse"] for r in reps])),
        "mean_rmse_plain": float(np.mean([r["plain"]["rmse"] for r in reps])),
    }


def cmd_ablate(args) -> int:
    report = run_ablate(args)
    _write_report(report, args.report)
    print(f"mean epochs-to-convergence: pid {report['mean_converged_at_pid']:.1f}, "
          f"plain {report['mean_converged_at_plain']:.1f} -> {args.report}")
    return 0


def run_grid(args) -> dict:
    """Train every (eta, lambda) cell and pick the best validation RMSE.

    Divergent cells are recorded, not fatal.  Ties go to the smaller
    lambda, then the smaller eta.
    """
    etas = _parse_floats(args.etas, "--etas")
    lambdas = _parse_floats(args.lambdas, "--lambdas")
    if not etas or not lambdas:
        raise ParameterError("grid needs at least one eta and one lambda")

    tensor = _load_input(args)
    ranks = _resolve_ranks(args)
    ratios = _parse_split(args.split)
    train_t, valid_t, _ = split(tensor, SplitSpec(ratios=ratios, seed=args.seed))
    if len(valid_t) == 0:
        raise ParameterError("validation split is empty; adjust --split ratios")
    epochs = args.grid_epochs if args.grid_epochs is not None else args.epochs

    cells = []
    for eta in etas:
        for lam in lambdas:
            hp = HyperParams(eta=eta, lam=lam, cp=args.cp, ci=args.ci, cd=args.cd,
                             max_epochs=epochs, patience=args.patience,
                             seed=args.seed, init_scale=args.init_scale)
            cell = {"eta": eta, "lambda": lam}
            try:
                factors, report = train(train_t, valid_t, tensor.dims, ranks, hp,
                                        early_stop=not args.no_early_stop)
                cell["valid_rmse"] = report.valid_rmse_history[report.converged_at]
                cell["converged_at"] = report.converged_at
                cell["epochs_run"] = report.epochs_run
                cell["diverged"] = False
            except DivergenceError as err:
                cell["diverged"] = True
                cell["error"] = str(err)
            cells.append(cell)

    viable = [c for c in cells if not c["diverged"]]
    if not viable:
        raise ParameterError("every grid cell diverged; shrink the eta range")
    winner = min(viable, key=lambda c: (c["valid_rmse"], c["lambda"], c["eta"]))

    return {
        "command": "grid",
        "config": {
            "input": args.input,
            "dims": list(tensor.dims),
            "ranks": _ranks_dict(ranks),
            "etas": list(etas),
            "lambdas": list(lambdas),
            "pid": {"cp": args.cp, "ci": args.ci, "cd": args.cd},
            "split": list(ratios),
            "seed": args.seed,
            "grid_epochs": epochs,
            "patience": args.patience,
            "init_scale": args.init_scale,
            "normalize": not args.no_normalize,
            "early_stop": not args.no_early_stop,
        },
        "cells": cells,
        "winner": {"eta": winner["eta"], "lambda": winner["lambda"],
                   "valid_rmse": winner["valid_rmse"]},
    }


def cmd_grid(args) -> int:
    report = run_grid(args)
    _write_report(report, args.report)
    w = report["winner"]
    print(f"winner: eta {w['eta']:g}, lambda {w['lambda']:g} "
          f"(valid rmse {w['valid_rmse']:.6f}) -> {args.report}")
    return 0


def _add_data_flags(p, with_normalize=True):
    p.add_argument("--input", required=True, help="COO text file to load")
    p.add_argument("--dims", default=None, help="I,J,K (default: infer from file)")
    if with_normalize:
        p.add_argument("--no-normalize", action="store_true",
                       help="skip the log transform (data already in model domain)")


def _add_model_flags(p):
    p.add_argument("--ranks", default=None,
                   help="R1,R2,R3,H1,H2,H3 (overrides --dim)")
    p.add_argument("--dim", type=int, default=5,
                   help="single latent dimension; ring ranks take it, core links stay 2")


def _add_hp_flags(p):
    p.add_argument("--eta", type=float, default=0.01, help="learning rate")
    p.add_argument("--lambda", dest="lam", type=float, default=0.01,
                   help="L2 regularization coefficient")
    p.add_argument("--cp", type=float, default=1.0, help="proportional gain")
    p.add_argument("--ci", type=float, default=0.0, help="integral gain")
    p.add_argument("--cd", type=float, default=0.001, help="derivative gain")
    p.add_argument("--epochs", type=int, default=1000, help="max training epochs")
    p.add_argument("--patience", type=int, default=10,
                   help="validation epochs without improvement before stopping")
    p.add_argument("--init-scale", type=float, default=0.1,
                   help="factor initialization scale")
    p.add_argument("--no-early-stop", action="store_true",
                   help="always run the full epoch budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorwheel",
        description="Sparse dynamic-network tensor completion by "
                    "PID-controlled tensor wheel decomposition.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-check", help="parse and validate a COO file")
    _add_data_flags(p, with_normalize=False)
    p.add_argument("--keep-last", action="store_true",
                   help="keep the last record on duplicate positions")
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("split", help="write train/valid/test COO files")
    _add_data_flags(p, with_normalize=False)
    p.add_argument("--split", default="1:2:7", help="train:valid:test ratio")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-prefix", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("synth", help="generate a planted synthetic dataset")
    p.add_argument("--dims", required=True, help="I,J,K")
    _add_model_flags(p)
    p.add_argument("--density", type=float, default=0.3,
                   help="fraction of positions observed")
    p.add_argument("--noise", type=float, default=0.0, help="Gaussian noise sigma")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--value-scale", type=float, default=0.5,
                   help="scale of planted factor values")
    p.add_argument("--output", required=True, help="COO file to write")
    p.add_argument("--truth", default=None, help="also write the planted checkpoint here")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="normalize, split, train, evaluate")
    _add_data_flags(p)
    _add_model_flags(p)
    _add_hp_flags(p)
    p.add_argument("--split", default="1:2:7", help="train:valid:test ratio")
    p.add_argument("--seed", type=int, default=0, help="base seed; repetition r adds r")
    p.add_argument("--reps", type=int, default=10,
                   help="independent repetitions averaged in the report")
    p.add_argument("--report", required=True, help="JSON report path")
    p.add_argument("--checkpoint", default=None,
                   help="prefix for per-repetition factor checkpoints")
    p.add_argument("--raw-domain-metrics", action="store_true",
                   help="report RMSE/MAE in the raw weight domain")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint against a COO file")
    p.add_argument("--input", required=True, help="COO test file")
    p.add_argument("--dims", default=None, help="I,J,K (default: infer)")
    p.add_argument("--checkpoint", required=True, help="factor checkpoint to score")
    p.add_argument("--normalize", action="store_true",
                   help="log-transform the test file before scoring")
    p.add_argument("--raw-domain-metrics", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="train PID and PID-removed arms on identical data")
    _add_data_flags(p)
    _add_model_flags(p)
    _add_hp_flags(p)
    p.add_argument("--split", default="1:2:7", help="train:valid:test ratio")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--report", required=True)
    p.add_argument("--raw-domain-metrics", action="store_true")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("grid", help="grid-search eta and lambda")
    _add_data_flags(p)
    _add_model_flags(p)
    p.add_argument("--etas", default=",".join(str(x) for x in DEFAULT_GRID_ETAS))
    p.add_argument("--lambdas", default=",".join(str(x) for x in DEFAULT_GRID_LAMBDAS))
    p.add_argument("--cp", type=float, default=1.0)
    p.add_argument("--ci", type=float, default=0.0)
    p.add_argument("--cd", type=float, default=0.001)
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--grid-epochs", type=int, default=None,
                   help="per-cell epoch cap (default: --epochs)")
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--init-scale", type=float, default=0.1)
    p.add_argument("--no-early-stop", action="store_true")
    p.add_argument("--split", default="1:2:7", help="train:valid:test ratio")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TensorWheelError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
