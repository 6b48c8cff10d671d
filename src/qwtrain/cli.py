"""Command-line harness.

Subcommands: walk1d, walknd, walkc, train, backprop, reproduce. Each is one
entry of `SUBCOMMANDS`: a defaults table, a body and a manifest name. Every
flag is generated from a defaults key (`--key-with-dashes`, typed like its
default, choices from `CHOICES`); no flag is written by hand.

One harness in `main` runs every subcommand, in this order:

1. resolve the config: CLI flags > JSON config file (--config) > defaults;
2. validate every value, from a flag or from the file, against the type of
   its default (an int is accepted for a float key and stored as a float;
   a bool is never an int) and against `CHOICES`;
3. create the output directory (--out-dir, else $QWTRAIN_OUT, else .);
4. call the body, which returns its output paths and a summary line;
5. write the manifest JSON next to the outputs, recording the subcommand,
   the fully resolved config, the seed, the tool version and the output
   paths, so any output can be regenerated bit-identically; then print the
   summary.

Exit codes: 0 success; 1 usage error (bad flag, unreadable or invalid config
file, or a value the body rejects with ValueError); 2 runtime failure (no
solvable window within the shift budget, a window too large to enumerate,
or an I/O error).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import sys
from dataclasses import asdict, dataclass, replace
from typing import Callable

from . import __version__, coined_walk, criteria, mlp, oracle, trainer
from .lackadaisical_walk import (WalkParams, export_trace,
                                 iter_probability_trace, steps_to_max)

USAGE_ERROR = 1
RUNTIME_ERROR = 2

OUT_DIR_ENV = "QWTRAIN_OUT"

CHOICES = {"init": tuple(coined_walk.INITS)}


@dataclass
class RunManifest:
    subcommand: str
    config: dict
    seed: int | None
    version: str
    outputs: list[str]


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 (argparse's default of 2 is reserved for runtime failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _resolve(ns, defaults: dict) -> dict:
    """flags > config file > defaults, each value checked against its default."""
    cfg = dict(defaults)
    if ns.config:
        try:
            with open(ns.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read config file: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object, "
                             f"got {type(file_cfg).__name__}")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key, default in defaults.items():
        flag = getattr(ns, key)
        value = cfg[key] if flag is None else flag
        kind = type(default)
        if kind is float and type(value) is int:
            try:
                value = float(value)
            except OverflowError:
                raise ValueError(f"{key} must be finite, got an integer too "
                                 "large for a float") from None
        if type(value) is not kind:
            raise ValueError(f"{key} must be of type {kind.__name__}, got {value!r}")
        if kind is float and not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")
        if key in CHOICES and value not in CHOICES[key]:
            raise ValueError(f"{key} must be one of {CHOICES[key]}, got {value!r}")
        cfg[key] = value
    return cfg


# ---------------------------------------------------------------- walks

def cmd_walk1d(cfg, out_dir):
    dist = coined_walk.distribution_1d(coined_walk.walk_1d(cfg["steps"], cfg["init"]))
    out = os.path.join(out_dir, cfg["out"])
    coined_walk.export_distribution_1d(dist, out)
    return [out], (f"walk1d: {cfg['steps']} steps ({cfg['init']}), "
                   f"{len(dist)} positions -> {out}")


def cmd_walknd(cfg, out_dir):
    dist = coined_walk.distribution_nd(coined_walk.walk_nd(cfg["dims"], cfg["steps"]))
    out = os.path.join(out_dir, cfg["out"])
    coined_walk.export_distribution_nd(dist, cfg["dims"], out)
    return [out], (f"walknd: d={cfg['dims']}, {cfg['steps']} steps, "
                   f"{len(dist)} positions -> {out}")


def cmd_walkc(cfg, out_dir):
    params = WalkParams(N=cfg["n_vertices"], k=cfg["solutions"], l=cfg["self_loops"])
    t_real, t_int = steps_to_max(params)
    out = os.path.join(out_dir, cfg["out"])
    final = export_trace(iter_probability_trace(params, t_int), out)
    return [out], (f"walkc: N={params.N} k={params.k} l={params.l}, "
                   f"t_real={t_real:.2f} t_int={t_int}, "
                   f"p_AA({t_int})={final[1]:.4f} p_AB={final[2]:.4f} -> {out}")


# ---------------------------------------------------------------- train

def cmd_train(cfg, out_dir):
    result = trainer.train(trainer.TrainerConfig(
        delta_p=cfg["delta_p"], z=cfg["z"], l=cfg["self_loops"], seed=cfg["seed"],
        max_window_shifts=cfg["max_shifts"]))
    out = os.path.join(out_dir, cfg["out"])
    with open(out, "w") as fh:
        fh.write(trainer.result_to_json(result))
        fh.write("\n")
    stem = os.path.splitext(cfg["out"])[0]
    steps_csv = os.path.join(out_dir, stem + "_steps.csv")
    probs_csv = os.path.join(out_dir, stem + "_probabilities.csv")
    trainer.export_steps_csv([result], steps_csv)
    trainer.export_probabilities_csv([result], probs_csv)
    return [out, steps_csv, probs_csv], (
        f"train: seed {cfg['seed']}, k={result.k}, N={result.N}, "
        f"t={result.t_int}, outcome {result.outcome}, "
        f"classification error {result.classification_error}, "
        f"{result.shifts_performed} shifts -> {out}")


# ---------------------------------------------------------------- backprop

def epochs_summary(results) -> dict:
    """min/mean/max/sample-std of the epoch counts."""
    epochs = [r.epochs_used for r in results]
    return {
        "min": min(epochs),
        "mean": statistics.fmean(epochs),
        "max": max(epochs),
        "std": statistics.stdev(epochs) if len(epochs) > 1 else 0.0,
    }


def backprop_summary(results) -> str:
    """One line: successes, the count of each outcome and the epoch statistics."""
    counts = {o: sum(1 for r in results if r.outcome == o)
              for o in ("success", "epoch_limit", "stagnation")}
    s = epochs_summary(results)
    return (f"{counts['success']}/{len(results)} successful, outcomes "
            + " ".join(f"{o}={n}" for o, n in counts.items())
            + f", epochs min={s['min']} mean={s['mean']:.2f} max={s['max']} "
            f"std={s['std']:.2f}")


def cmd_backprop(cfg, out_dir):
    if cfg["runs"] < 0:
        raise ValueError("runs must be non-negative")
    first = mlp.BackpropConfig(learning_rate=cfg["lr"], seed=cfg["seed"])
    results = [mlp.backprop_train(replace(first, seed=first.seed + i))
               for i in range(cfg["runs"])]
    out = os.path.join(out_dir, cfg["out"])
    mlp.export_train_results([(first.learning_rate, first.seed + i, r)
                              for i, r in enumerate(results)], out)
    if not results:
        return [out], f"backprop: 0 runs -> {out}"
    s = epochs_summary(results)
    with open(out, "a", newline="") as fh:
        csv.writer(fh).writerow(["summary", f"min={s['min']}", f"mean={s['mean']:.2f}",
                                 f"max={s['max']}", f"std={s['std']:.2f}"])
    return [out], f"backprop: lr={cfg['lr']}, {backprop_summary(results)} -> {out}"


# ---------------------------------------------------------------- reproduce

def cmd_reproduce(cfg, out_dir):
    outputs: list[str] = []
    lines = ["# Reproduction report", "",
             "Computed values versus reference values; each check states its tolerance.", ""]
    records, failing = [], 0
    for run in criteria.CRITERIA:
        c = run()
        lines.append(f"## Criterion {c.number}: {c.title} ({c.wall_s:.3g} s)\n")
        lines.extend(f"- {ch.name}: {ch.detail} -> {'pass' if ch.ok else 'FAIL'}"
                     for ch in c.checks)
        lines.append("")
        failing += sum(not ch.ok for ch in c.checks)
        for name, write in c.files.items():
            outputs.append(os.path.join(out_dir, name))
            write(outputs[-1])
        records.append(c.to_json())
    for name, text in (("criteria.json", json.dumps(records, indent=2) + "\n"),
                       ("report.md", "\n".join(lines) + "\n")):
        outputs.append(os.path.join(out_dir, name))
        with open(outputs[-1], "w") as fh:
            fh.write(text)
    return outputs, f"reproduce: report at {outputs[-1]}; {failing} failing checks"


# ---------------------------------------------------------------- harness

@dataclass(frozen=True)
class Subcommand:
    name: str
    help: str
    defaults: dict
    body: Callable[[dict, str], tuple[list[str], str]]
    manifest: Callable[[dict], str] = lambda cfg: cfg["out"] + ".manifest.json"


SUBCOMMANDS = (
    Subcommand("walk1d", "1D Hadamard walk distribution CSV",
               {"steps": 100, "init": "asymmetric", "out": "walk1d.csv"}, cmd_walk1d),
    Subcommand("walknd", "n-dimensional Hadamard walk distribution CSV",
               {"steps": 20, "dims": 2, "out": "walknd.csv"}, cmd_walknd),
    Subcommand("walkc", "complete-graph walk probability trace CSV",
               {"n_vertices": 512, "solutions": 12, "self_loops": 1,
                "out": "walkc.csv"}, cmd_walkc),
    Subcommand("train", "run the quantum-walk weight search",
               {"delta_p": 0.5, "z": 2, "self_loops": 1, "seed": 0,
                "max_shifts": 10000, "out": "train_result.json"}, cmd_train,
               manifest=lambda cfg: os.path.splitext(cfg["out"])[0] + ".manifest.json"),
    Subcommand("backprop", "backpropagation baseline runs CSV",
               {"lr": 0.5, "runs": 100, "seed": 0, "out": "backprop.csv"},
               cmd_backprop),
    Subcommand("reproduce", "compute and judge acceptance criteria 1-9",
               {}, cmd_reproduce,
               manifest=lambda cfg: "reproduce.manifest.json"),
)


def build_parser() -> _Parser:
    parser = _Parser(prog="qwtrain",
                     description="Quantum-walk weight search and its baselines")
    parser.add_argument("--version", action="version", version=f"qwtrain {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (flags still win)")
    common.add_argument("--out-dir", help=f"output directory "
                        f"(default: ${OUT_DIR_ENV} or current directory)")

    for command in SUBCOMMANDS:
        p = sub.add_parser(command.name, parents=[common], help=command.help)
        for key, default in command.defaults.items():
            p.add_argument("--" + key.replace("_", "-"), type=type(default),
                           choices=CHOICES.get(key))
        p.set_defaults(command=command)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    command = ns.command
    try:
        cfg = _resolve(ns, command.defaults)
        out_dir = ns.out_dir or os.environ.get(OUT_DIR_ENV, ".")
        os.makedirs(out_dir, exist_ok=True)
        outputs, summary = command.body(cfg, out_dir)
        manifest = RunManifest(command.name, cfg, cfg.get("seed"), __version__, outputs)
        with open(os.path.join(out_dir, command.manifest(cfg)), "w") as fh:
            json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except (oracle.WindowTooLarge, trainer.NoSolutionError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return RUNTIME_ERROR
    except ValueError as exc:
        parser.error(str(exc))
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
