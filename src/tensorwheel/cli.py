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
import os
import sys
from dataclasses import asdict, replace
from typing import NamedTuple

from .errors import ParameterError, StateError, TensorWheelError
from .metrics import evaluate, mean
from .pid_sgd import DivergenceError, HyperParams, train
from .synthgen import SynthSpec, generate
from .tensor_store import (SparseTensor, SplitSpec, ingest, normalize, open_replacing,
                           read_coo, split, write_coo)
from .twd_core import (Ranks, check_finite, checkpoint_text, init_factors, kernel_name,
                       load_checkpoint, save_checkpoint)

DEFAULT_SPLIT = ":".join(map(str, SplitSpec.ratios))  # --split as _parse_split reads it


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


def _parse_dims(args):
    return "infer" if args.dims is None else _parse_ints(args.dims, 3, "--dims")


def _resolve_ranks(args) -> Ranks:
    if getattr(args, "ranks", None):
        r1, r2, r3, h1, h2, h3 = _parse_ints(args.ranks, 6, "--ranks")
        return Ranks(r=(r1, r2, r3), h=(h1, h2, h3))
    return Ranks.from_dim(args.dim)


def _resolve_hp(args, **fields) -> HyperParams:
    """HyperParams from the shared flags; fields adds eta, lam, seed and overrides."""
    return HyperParams(**{"cp": args.cp, "ci": args.ci, "cd": args.cd,
                          "max_epochs": args.epochs, "patience": args.patience,
                          "init_scale": args.init_scale, **fields})


def _prepare(args):
    """Set-up of every training command: load, normalize, parse ranks and split."""
    tensor = ingest(args.input, dims=_parse_dims(args))
    if not args.no_normalize:
        tensor = normalize(tensor)
    return tensor, _resolve_ranks(args), _parse_split(args.split)


def _config(args, tensor, ranks: Ranks, ratios, **fields) -> dict:
    """The report's config: the keys every training command shares, plus fields.
    ``kernel`` names the single-entry kernel the training ran on, as
    results are byte-identical only between runs on the same kernel."""
    return {"input": args.input, "dims": list(tensor.dims),
            "ranks": {"r": list(ranks.r), "h": list(ranks.h)}, "split": list(ratios),
            "normalize": not args.no_normalize, "early_stop": not args.no_early_stop,
            "kernel": kernel_name(), **fields}


def _decimal(x: float) -> str:
    """x as the stdout summaries print it: with six decimals, or, past
    the 16 integer digits a float64 holds, with six in exponent form."""
    return f"{x:.6f}" if abs(x) < 1e16 else f"{x:.6e}"


def _check_report(value, path: str = "report") -> None:
    """Pass every float in value through ``check_finite``, named by its key
    path, such as ``report.repetitions[0].rmse``, in the order the report
    is written, so the first non-finite one raises DomainError."""
    if isinstance(value, float):
        check_finite(value, path)
    elif isinstance(value, dict):
        for key, item in sorted(value.items()):
            _check_report(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _check_report(item, f"{path}[{index}]")


def _write_report(args, run, summary) -> int:
    """Write the report of ``run(args)`` to --report, then print
    ``summary(report)``.  The report's file is opened before the run, so
    a path that cannot be written fails before any training, and a run
    that fails leaves no file, as does a report holding a non-finite
    number, which raises DomainError naming its key."""
    with open_replacing(args.report) as fh:
        report = run(args)
        _check_report(report)  # strict JSON: a non-finite metric is a bug upstream
        fh.write(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
    print(f"{summary(report)} -> {args.report}")
    return 0


def cmd_ingest_check(args) -> int:
    tensor = ingest(args.input, dims=_parse_dims(args), keep_last=args.keep_last)
    values = tensor.values
    print(f"ok: {len(tensor)} entries, dims {tensor.dims}")
    if len(tensor):
        print(f"values: min {values.min():g} max {values.max():g} mean {mean(values):g}")
    return 0


def cmd_split(args) -> int:
    tensor = ingest(args.input, dims=_parse_dims(args))
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


class Repetition(NamedTuple):
    """One seed of a train or ablate run: its hyperparameters and its split."""

    index: int
    hp: HyperParams
    dims: tuple
    ranks: Ranks
    train_set: SparseTensor
    valid_set: SparseTensor
    test_set: SparseTensor


def _repeat(args, command: str, body) -> dict:
    """Repetition driver of train and ablate: body(rep) runs one seed.

    Repetition r uses seed base_seed + r for both the split shuffle and
    the trainer, so repetitions are independent but reproducible.  An
    empty test split fails before any training.
    """
    if args.reps < 1:
        raise ParameterError(f"--reps must be >= 1, got {args.reps}")
    tensor, ranks, ratios = _prepare(args)
    hp = _resolve_hp(args, eta=args.eta, lam=args.lam, seed=args.seed)
    if args.raw_domain_metrics and not tensor.normalized:
        raise StateError("raw-domain metrics need a normalized test set")
    reps = []
    for index in range(args.reps):
        seed = args.seed + index
        train_t, valid_t, test_t = split(tensor, SplitSpec(ratios=ratios, seed=seed))
        if len(test_t) == 0:
            raise ParameterError("test split is empty; adjust --split ratios")
        rep = Repetition(index, replace(hp, seed=seed), tensor.dims, ranks,
                         train_t, valid_t, test_t)
        reps.append({"seed": seed, **body(rep)})
    hyperparams = {"lambda" if name == "lam" else name: value
                   for name, value in asdict(hp).items() if name != "seed"}
    config = _config(args, tensor, ranks, ratios, hyperparams=hyperparams, base_seed=args.seed,
                     repetitions=args.reps, raw_domain_metrics=args.raw_domain_metrics)
    return {"command": command, "config": config, "repetitions": reps}


def _fit(args, rep: Repetition, pid: bool = True):
    """Train one arm of a repetition; return its factors, training report and test summary."""
    factors, report = train(rep.train_set, rep.valid_set, rep.dims, rep.ranks, rep.hp,
                            pid=pid, early_stop=not args.no_early_stop)
    scores = evaluate(factors, rep.test_set, raw_domain=args.raw_domain_metrics)
    return factors, report, {"rmse": scores.rmse, "mae": scores.mae,
                             "epochs_run": report.epochs_run, "converged_at": report.converged_at}


def run_train(args) -> dict:
    """Full pipeline for one config: repeated split/train/evaluate."""
    def one(rep):
        factors, report, summary = _fit(args, rep)
        if args.checkpoint:
            save_checkpoint(factors, f"{args.checkpoint}.rep{rep.index}.txt")
        return {**summary, **asdict(report), "test_count": len(rep.test_set)}

    result = _repeat(args, "train", one)
    reps = result["repetitions"]
    return {**result, "mean_rmse": mean([r["rmse"] for r in reps]),
            "mean_mae": mean([r["mae"] for r in reps])}


def cmd_train(args) -> int:
    return _write_report(args, run_train,
                         lambda report: f"mean rmse {_decimal(report['mean_rmse'])}, mean mae "
                         f"{_decimal(report['mean_mae'])} over {args.reps} repetition(s)")


def cmd_evaluate(args) -> int:
    factors = load_checkpoint(args.checkpoint)
    dims = _parse_dims(args)
    tensor, header_dims = read_coo(args.input, dims=dims)
    declared = header_dims if dims == "infer" else dims
    if declared is not None and declared != factors.dims:
        raise ParameterError(f"data declares dims {declared}, "
                             f"but the checkpoint has dims {factors.dims}")
    if args.normalize:
        tensor = normalize(tensor)
    scores = evaluate(factors, tensor, raw_domain=args.raw_domain_metrics)
    print(f"rmse {_decimal(scores.rmse)}, mae {_decimal(scores.mae)} "
          f"over {scores.count} entries")
    return 0


def run_ablate(args) -> dict:
    """Controlled PID-vs-plain experiment on identical data and seeds.

    Both arms of a repetition share the split and the initial factors
    (verified by checkpoint hash); the plain arm runs with the PID state
    removed, which equals gains (1, 0, 0).
    """
    def one(rep):
        init = init_factors(rep.dims, rep.ranks, rep.hp.seed, rep.hp.init_scale)
        fields = {"init_checkpoint_sha256":
                  hashlib.sha256(checkpoint_text(init).encode()).hexdigest()}
        for arm, use_pid in (("pid", True), ("plain", False)):
            fields[arm] = _fit(args, rep, pid=use_pid)[2]
        return fields

    result = _repeat(args, "ablate", one)
    reps = result["repetitions"]
    return {**result,
            "mean_converged_at_pid": mean([r["pid"]["converged_at"] for r in reps]),
            "mean_converged_at_plain": mean([r["plain"]["converged_at"] for r in reps]),
            "mean_rmse_pid": mean([r["pid"]["rmse"] for r in reps]),
            "mean_rmse_plain": mean([r["plain"]["rmse"] for r in reps])}


def cmd_ablate(args) -> int:
    return _write_report(args, run_ablate,
                         lambda report: "mean epochs-to-convergence: pid "
                         f"{report['mean_converged_at_pid']:.1f}, "
                         f"plain {report['mean_converged_at_plain']:.1f}")


def run_grid(args) -> dict:
    """Train every (eta, lambda) cell and pick the best validation RMSE.

    Divergent cells are recorded, not fatal.  Ties go to the smaller
    lambda, then the smaller eta.
    """
    etas = _parse_floats(args.etas, "--etas")
    lambdas = _parse_floats(args.lambdas, "--lambdas")
    if not etas or not lambdas:
        raise ParameterError("grid needs at least one eta and one lambda")

    tensor, ranks, ratios = _prepare(args)
    train_t, valid_t, _ = split(tensor, SplitSpec(ratios=ratios, seed=args.seed))
    if len(valid_t) == 0:
        raise ParameterError("validation split is empty; adjust --split ratios")
    epochs = args.grid_epochs if args.grid_epochs is not None else args.epochs

    # every cell's hyperparameters are checked before any cell trains
    hps = [_resolve_hp(args, eta=eta, lam=lam, seed=args.seed, max_epochs=epochs)
           for eta in etas for lam in lambdas]
    cells = []
    for hp in hps:
        try:
            _, report = train(train_t, valid_t, tensor.dims, ranks, hp,
                              early_stop=not args.no_early_stop)
            cell = {"valid_rmse": report.valid_rmse_history[report.converged_at],
                    "converged_at": report.converged_at,
                    "epochs_run": report.epochs_run, "diverged": False}
        except DivergenceError as err:
            cell = {"diverged": True, "error": str(err)}
        cells.append({"eta": hp.eta, "lambda": hp.lam, **cell})

    viable = [c for c in cells if not c["diverged"]]
    if not viable:
        raise ParameterError("every grid cell diverged; shrink the eta range")
    winner = min(viable, key=lambda c: (c["valid_rmse"], c["lambda"], c["eta"]))

    config = _config(args, tensor, ranks, ratios, etas=list(etas), lambdas=list(lambdas),
                     pid={"cp": args.cp, "ci": args.ci, "cd": args.cd}, seed=args.seed,
                     grid_epochs=epochs, patience=args.patience,
                     init_scale=args.init_scale)
    return {
        "command": "grid",
        "config": config,
        "cells": cells,
        "winner": {"eta": winner["eta"], "lambda": winner["lambda"],
                   "valid_rmse": winner["valid_rmse"]},
    }


def cmd_grid(args) -> int:
    def summary(report):
        w = report["winner"]
        return (f"winner: eta {w['eta']:g}, lambda {w['lambda']:g} "
                f"(valid rmse {_decimal(w['valid_rmse'])})")
    return _write_report(args, run_grid, summary)


def _add_data_flags(p):
    p.add_argument("--input", required=True, help="COO text file to load")
    p.add_argument("--dims", default=None, help="I,J,K (default: infer from file)")


def _add_model_flags(p):
    p.add_argument("--ranks", default=None,
                   help="R1,R2,R3,H1,H2,H3 (overrides --dim)")
    p.add_argument("--dim", type=int, default=5,
                   help="single latent dimension; ring ranks take it, core links stay 2")


def _add_training_flags(p):
    """Flags of every command that trains: train, ablate and grid."""
    _add_data_flags(p)
    p.add_argument("--no-normalize", action="store_true",
                   help="skip the log transform (data already in model domain)")
    _add_model_flags(p)
    p.add_argument("--cp", type=float, default=HyperParams.cp, help="proportional gain")
    p.add_argument("--ci", type=float, default=HyperParams.ci, help="integral gain")
    p.add_argument("--cd", type=float, default=HyperParams.cd, help="derivative gain")
    p.add_argument("--epochs", type=int, default=HyperParams.max_epochs,
                   help="max training epochs")
    p.add_argument("--patience", type=int, default=HyperParams.patience,
                   help="validation epochs without improvement before stopping")
    p.add_argument("--init-scale", type=float, default=HyperParams.init_scale,
                   help="factor initialization scale")
    p.add_argument("--no-early-stop", action="store_true",
                   help="always run the full epoch budget")
    p.add_argument("--split", default=DEFAULT_SPLIT, help="train:valid:test ratio")
    p.add_argument("--seed", type=int, default=HyperParams.seed,
                   help="split and trainer seed; repetition r adds r")
    p.add_argument("--report", required=True, help="JSON report path")


def _add_repetition_flags(p, reps: int):
    """Flags of the commands that repeat over seeds: train and ablate."""
    p.add_argument("--eta", type=float, default=HyperParams.eta, help="learning rate")
    p.add_argument("--lambda", dest="lam", type=float, default=HyperParams.lam,
                   help="L2 regularization coefficient")
    p.add_argument("--reps", type=int, default=reps,
                   help="independent repetitions averaged in the report")
    p.add_argument("--raw-domain-metrics", action="store_true",
                   help="report RMSE/MAE in the raw weight domain")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorwheel",
        description="Sparse dynamic-network tensor completion by "
                    "PID-controlled tensor wheel decomposition.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-check", help="parse and validate a COO file")
    _add_data_flags(p)
    p.add_argument("--keep-last", action="store_true",
                   help="keep the last record on duplicate positions")
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("split", help="write train/valid/test COO files")
    _add_data_flags(p)
    p.add_argument("--split", default=DEFAULT_SPLIT, help="train:valid:test ratio")
    p.add_argument("--seed", type=int, default=SplitSpec.seed)
    p.add_argument("--output-prefix", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("synth", help="generate a planted synthetic dataset")
    p.add_argument("--dims", required=True, help="I,J,K")
    _add_model_flags(p)
    p.add_argument("--density", type=float, default=0.3,
                   help="fraction of positions observed")
    p.add_argument("--noise", type=float, default=SynthSpec.noise_sigma,
                   help="Gaussian noise sigma")
    p.add_argument("--seed", type=int, default=SynthSpec.seed)
    p.add_argument("--value-scale", type=float, default=SynthSpec.value_scale,
                   help="scale of planted factor values")
    p.add_argument("--output", required=True, help="COO file to write")
    p.add_argument("--truth", default=None, help="also write the planted checkpoint here")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="normalize, split, train, evaluate")
    _add_training_flags(p)
    _add_repetition_flags(p, reps=10)
    p.add_argument("--checkpoint", default=None,
                   help="prefix for per-repetition factor checkpoints")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint against a COO file")
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True, help="factor checkpoint to score")
    p.add_argument("--normalize", action="store_true",
                   help="log-transform the test file before scoring")
    p.add_argument("--raw-domain-metrics", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="train PID and PID-removed arms on identical data")
    _add_training_flags(p)
    _add_repetition_flags(p, reps=1)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("grid", help="grid-search eta and lambda")
    _add_training_flags(p)
    p.add_argument("--etas", default="0.1,0.03,0.01")
    p.add_argument("--lambdas", default="0.0,0.001,0.01")
    p.add_argument("--grid-epochs", type=int, default=None,
                   help="per-cell epoch cap (default: --epochs)")
    p.set_defaults(func=cmd_grid)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # here, not at exit, where a failed write cannot be caught
        return status
    except BrokenPipeError as exc:  # the reader of stdout, or of an output file, went away
        print(f"error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except BrokenPipeError:  # stdout's: to devnull, so that the flush at exit is quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (TensorWheelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the array: size, shape and dtype
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
