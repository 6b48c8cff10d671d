"""Command-line harness.

Subcommands: walk1d, walknd, walkc, train, backprop, reproduce. Each is one
entry of `SUBCOMMANDS`: a defaults table, a body and a manifest name. Every
flag is generated from a defaults key (`--key-with-dashes`, typed like its
default, choices from `CHOICES`); only `train --dry-run` is written by hand.

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
   summary. A body that writes no outputs (a dry run) writes no manifest.

Exit codes: 0 success; 1 usage error (bad flag, unreadable or invalid config
file, or a value the body rejects with ValueError); 2 runtime failure (no
solvable window within the shift budget, a window too large to enumerate,
or an I/O error).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Callable

from . import __version__, coined_walk, mlp, oracle, reference, trainer
from .lackadaisical_walk import (ROUNDING_MODES, WalkParams, angles,
                                 build_operator, evolve, export_trace,
                                 initial_state, outcome_probabilities,
                                 probability_trace, steps_to_max)
from .weight_space import WeightWindow, window_size

USAGE_ERROR = 1
RUNTIME_ERROR = 2

OUT_DIR_ENV = "QWTRAIN_OUT"

CHOICES = {"init": ("asymmetric", "symmetric"), "rounding": ROUNDING_MODES}


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
            value = float(value)
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
    t_real, t_int = steps_to_max(params, cfg["rounding"])
    rows = probability_trace(params, t_int)
    out = os.path.join(out_dir, cfg["out"])
    export_trace(rows, out)
    final = rows[-1]
    return [out], (f"walkc: N={params.N} k={params.k} l={params.l}, "
                   f"t_real={t_real:.2f} t_int={t_int}, "
                   f"p_AA({t_int})={final[1]:.4f} p_AB={final[2]:.4f} -> {out}")


# ---------------------------------------------------------------- train

def _trainer_config(cfg) -> trainer.TrainerConfig:
    return trainer.TrainerConfig(
        delta_p=cfg["delta_p"], z=cfg["z"], l=cfg["self_loops"], seed=cfg["seed"],
        rounding=cfg["rounding"], max_window_shifts=cfg["max_shifts"],
        count_noise=cfg["count_noise"])


def cmd_train(cfg, out_dir):
    result = trainer.train(_trainer_config(cfg))
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


def cmd_train_dry_run(cfg, out_dir):
    config = _trainer_config(cfg)
    start = trainer.random_window(mlp.N_WEIGHTS, config.z, config.delta_p, config.seed)
    window, sols, shifts = trainer.find_solvable_window(start, config)
    params = WalkParams(N=window_size(window), k=sols.k, l=config.l)
    t_real, t_int = steps_to_max(params, config.rounding)
    return [], (f"train (dry run): window origin {window.origin} after {shifts} shifts, "
                f"k={sols.k}, N={params.N}, t_real={t_real:.2f}, t_int={t_int}")


# ---------------------------------------------------------------- backprop

def _one_backprop(args) -> tuple[float, int, mlp.TrainResult]:
    lr, seed = args
    return lr, seed, mlp.backprop_train(mlp.BackpropConfig(learning_rate=lr, seed=seed))


def epochs_summary(results) -> dict:
    """min/mean/max/sample-std of the epoch counts."""
    epochs = [r.epochs_used for r in results]
    return {
        "min": min(epochs),
        "mean": statistics.fmean(epochs),
        "max": max(epochs),
        "std": statistics.stdev(epochs) if len(epochs) > 1 else 0.0,
    }


def cmd_backprop(cfg, out_dir):
    if cfg["runs"] < 0:
        raise ValueError("runs must be non-negative")
    if cfg["lr"] <= 0:
        raise ValueError("lr must be positive")
    if cfg["jobs"] < 1:
        raise ValueError("jobs must be at least 1")
    tasks = [(cfg["lr"], cfg["seed"] + i) for i in range(cfg["runs"])]
    if cfg["jobs"] > 1 and tasks:
        with ProcessPoolExecutor(max_workers=cfg["jobs"]) as pool:
            rows = list(pool.map(_one_backprop, tasks))
    else:
        rows = [_one_backprop(t) for t in tasks]
    out = os.path.join(out_dir, cfg["out"])
    mlp.export_train_results(rows, out)
    if not rows:
        return [out], f"backprop: 0 runs -> {out}"
    s = epochs_summary([r for _, _, r in rows])
    with open(out, "a", newline="") as fh:
        fh.write(f"summary,min={s['min']},mean={s['mean']:.2f},"
                 f"max={s['max']},std={s['std']:.2f}\n")
    n_success = sum(1 for _, _, r in rows if r.outcome == "success")
    return [out], (f"backprop: lr={cfg['lr']}, {n_success}/{len(rows)} successful, "
                   f"epochs min={s['min']} mean={s['mean']:.2f} max={s['max']} "
                   f"std={s['std']:.2f} -> {out}")


# ---------------------------------------------------------------- reproduce

def _status(ok: bool) -> str:
    return "pass" if ok else "FAIL"


def _report_steps_section(lines, outputs, out_dir):
    lines.append("## Optimal step counts\n")
    lines.append("| N | k | computed t | reference t | simulated t (ceiling) | status |")
    lines.append("|---|---|-----------|-------------|------------------------|--------|")
    rows = []
    for ref in reference.STEPS:
        t_real, t_int = steps_to_max(WalkParams(N=ref.N, k=ref.k, l=1), "ceiling")
        status = _status(abs(t_real - ref.t_real) <= ref.tol and t_int == ref.t_int)
        if ref.note and status == "pass":
            status = "pass (known discrepancy, see note)"
        lines.append(f"| {ref.N} | {ref.k} | {t_real:.2f} | {ref.t_real} | {t_int} | {status} |")
        rows.append((ref.N, ref.k, t_real, t_int, ref.t_real, ref.t_int, status))
    lines.append("")
    lines.extend(f"Note: {ref.note}\n" for ref in reference.STEPS if ref.note)
    path = os.path.join(out_dir, "steps_table.csv")
    with open(path, "w") as fh:
        fh.write("N,k,t_computed,t_int,t_reference,t_simulated_reference,status\n")
        for r in rows:
            fh.write(f"{r[0]},{r[1]},{r[2]:.4f},{r[3]},{r[4]},{r[5]},{r[6]}\n")
    outputs.append(path)


def _report_probability_section(lines, outputs, out_dir):
    lines.append("## Final-state probabilities\n")
    lines.append("| N | k | t | p_AA % | reference p_AA % | status |")
    lines.append("|---|---|---|--------|------------------|--------|")
    csv_rows = []
    for ref in reference.PROBABILITIES:
        params = WalkParams(N=ref.N, k=ref.k, l=1)
        state = evolve(initial_state(params), build_operator(angles(params)), ref.steps)
        p = outcome_probabilities(state)
        status = _status(ref.passes(p))
        lines.append(f"| {ref.N} | {ref.k} | {ref.steps} | {100 * p[0]:.2f} | "
                     f"{100 * ref.p_aa:.2f} | {status} |")
        csv_rows.append((ref.N, ref.k, ref.steps) + tuple(float(x) for x in p) + (status,))
    lines.append("")
    path = os.path.join(out_dir, "probabilities_table.csv")
    with open(path, "w") as fh:
        fh.write("N,k,t,p_AA,p_AB,p_BA,p_BB,status\n")
        for r in csv_rows:
            fh.write(f"{r[0]},{r[1]},{r[2]},{r[3]!r},{r[4]!r},{r[5]!r},{r[6]!r},{r[7]}\n")
    outputs.append(path)


def _report_toy_section(lines, outputs, out_dir):
    lines.append("## Toy walk (N=8, k=2, l=1)\n")
    params = WalkParams(N=8, k=2, l=1)
    t_real, t_int = steps_to_max(params, "floor")  # pi -> 3 steps for the toy
    rows = probability_trace(params, t_int)
    p_aa = rows[-1][1]
    lines.append(f"t_real = {t_real:.4f}, floor rounding, t = {t_int}; "
                 f"p_AA({t_int}) = {p_aa:.12f} "
                 f"(reference: 1.0) -> {_status(abs(p_aa - 1.0) < 1e-9)}\n")
    path = os.path.join(out_dir, "toy_trace.csv")
    export_trace(rows, path)
    outputs.append(path)


def _report_walk1d_section(lines, outputs, out_dir):
    lines.append("## One-dimensional walk after 100 steps\n")
    asym = coined_walk.distribution_1d(coined_walk.walk_1d(100, "asymmetric"))
    sym = coined_walk.distribution_1d(coined_walk.walk_1d(100, "symmetric"))
    p_asym = os.path.join(out_dir, "walk1d_asymmetric.csv")
    p_sym = os.path.join(out_dir, "walk1d_symmetric.csv")
    coined_walk.export_distribution_1d(asym, p_asym)
    coined_walk.export_distribution_1d(sym, p_sym)
    outputs.extend([p_asym, p_sym])

    mirror = max(abs(sym[n] - sym[-n]) for n in sym)
    peak = max(sym, key=sym.get)
    quantum_origin = asym.get(0, 0.0)
    classical_origin = coined_walk.classical_walk_probability(100, 0)
    checks = [
        ("symmetric init gives a mirror-symmetric distribution",
         mirror == 0.0, f"max asymmetry {mirror}"),
        ("symmetric peaks lie in |n| in [60, 80]",
         60 <= abs(peak) <= 80, f"peak at n={peak}"),
        ("quantum origin probability below the classical envelope",
         quantum_origin < classical_origin,
         f"{quantum_origin:.6f} < {classical_origin:.6f}"),
    ]
    for name, ok, detail in checks:
        lines.append(f"- {name}: {detail} -> {_status(ok)}")
    lines.append("")


def _report_backprop_section(lines, outputs, out_dir, seed):
    lines.append("## Backprop baseline\n")
    runs = []
    for lr, n_runs in ((reference.BACKPROP_FAST_LR, reference.BACKPROP_FAST_RUNS),
                       (reference.BACKPROP_SLOW_LR, reference.BACKPROP_SLOW_RUNS)):
        rows = [_one_backprop((lr, seed + i)) for i in range(n_runs)]
        path = os.path.join(out_dir, f"backprop_lr_{lr}.csv")
        mlp.export_train_results(rows, path)
        outputs.append(path)
        results = [r for _, _, r in rows]
        s = epochs_summary(results)
        n_success = sum(1 for r in results if r.outcome == "success")
        lines.append(f"- lr={lr}: {n_success}/{len(results)} successful, epochs "
                     f"min={s['min']} mean={s['mean']:.2f} max={s['max']} "
                     f"std={s['std']:.2f}")
        runs.append(results)
    fast, slow = runs
    successes = [r.epochs_used for r in fast if r.outcome == "success"]
    mean_success = statistics.fmean(successes)
    mean_all = statistics.fmean(r.epochs_used for r in fast)
    limit_hits = sum(1 for r in slow if r.outcome == "epoch_limit")
    mean_slow = statistics.fmean(r.epochs_used for r in slow)
    max_mean = reference.BACKPROP_MAX_MEAN_EPOCHS
    checks = [
        (f"lr={reference.BACKPROP_FAST_LR} succeeds in at least "
         f"{reference.BACKPROP_MIN_SUCCESSES} runs",
         len(successes) >= reference.BACKPROP_MIN_SUCCESSES,
         f"{len(successes)} successful"),
        (f"lr={reference.BACKPROP_FAST_LR} mean epochs below {max_mean}",
         mean_success < max_mean and mean_all < max_mean,
         f"{mean_success:.2f} over successes, {mean_all:.2f} over all runs"),
        (f"lr={reference.BACKPROP_SLOW_LR} is orders of magnitude slower",
         limit_hits > 0 or mean_slow >= reference.BACKPROP_SLOWDOWN * mean_all,
         f"{limit_hits} epoch-limit hits, mean {mean_slow:.2f} epochs"),
    ]
    for name, ok, detail in checks:
        lines.append(f"- {name}: {detail} -> {_status(ok)}")
    lines.append("")


def _report_train_section(lines, outputs, out_dir, config, runs):
    lines.append("## End-to-end weight search (z=2)\n")
    results = []
    failures = 0
    for i in range(runs):
        try:
            results.append(trainer.train(replace(config, seed=config.seed + i)))
        except trainer.NoSolutionError:
            failures += 1
    steps_csv = os.path.join(out_dir, "train_steps.csv")
    probs_csv = os.path.join(out_dir, "train_probabilities.csv")
    trainer.export_steps_csv(results, steps_csv)
    trainer.export_probabilities_csv(results, probs_csv)
    outputs.extend([steps_csv, probs_csv])
    solved = [r for r in results if r.outcome in ("AA", "AB")]
    zero_err = all(r.classification_error == 0 for r in solved)
    lines.append(f"- {len(results)} runs, {failures} without a solvable window, "
                 f"{len(solved)} measured a marked outcome")
    lines.append(f"- every marked outcome extracted zero-error weights: "
                 f"-> {_status(zero_err)}")
    ks = sorted(set(r.k for r in results))
    lines.append(f"- window solution counts seen: {ks}")
    lines.append("")


def _report_large_window_section(lines, outputs, out_dir):
    lines.append("## Large window (z=8, N=134217728)\n")
    window = WeightWindow(w=9, z=8, origin=(0,) * 9, delta_p=0.5)
    sols = oracle.enumerate_solutions(window)
    k, n = sols.k, window_size(window)
    path = os.path.join(out_dir, "solutions_z8.bin")
    oracle.write_binary(sols, path)
    outputs.append(path)
    lines.append(f"- enumerated {n} vertices, k = {k} solutions "
                 f"(reference {reference.Z8_ORIGIN_K} for this window; the reference "
                 f"run reported 80295 for its own) -> {_status(k == reference.Z8_ORIGIN_K)}")
    if k >= 1:
        params = WalkParams(N=n, k=k, l=1)
        t_real, t_int = steps_to_max(params, "ceiling")
        state = evolve(initial_state(params), build_operator(angles(params)), t_int)
        p = outcome_probabilities(state)
        lines.append(f"- walk with t = {t_int}: p_AA + p_AB = {p[0] + p[1]:.6f} "
                     f"-> {_status(p[0] + p[1] >= reference.Z8_MARKED_MIN)}")
    lines.append("")


def cmd_reproduce(cfg, out_dir):
    if cfg["train_runs"] < 0:
        raise ValueError("train_runs must be non-negative")
    train_config = trainer.TrainerConfig(seed=cfg["seed"],
                                         max_window_shifts=cfg["max_shifts"])
    outputs: list[str] = []
    lines = ["# Reproduction report",
             "",
             "Computed values versus reference values; tolerances per row.",
             ""]
    _report_toy_section(lines, outputs, out_dir)
    _report_steps_section(lines, outputs, out_dir)
    _report_probability_section(lines, outputs, out_dir)
    _report_walk1d_section(lines, outputs, out_dir)
    _report_backprop_section(lines, outputs, out_dir, cfg["seed"])
    _report_train_section(lines, outputs, out_dir, train_config, cfg["train_runs"])
    _report_large_window_section(lines, outputs, out_dir)

    report = os.path.join(out_dir, "report.md")
    with open(report, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    outputs.append(report)
    n_fail = sum("FAIL" in line for line in lines)
    return outputs, f"reproduce: report at {report}; {n_fail} failing rows"


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
                "rounding": "ceiling", "out": "walkc.csv"}, cmd_walkc),
    Subcommand("train", "run the quantum-walk weight search",
               {"delta_p": 0.5, "z": 2, "self_loops": 1, "seed": 0,
                "rounding": "ceiling", "max_shifts": 10000, "count_noise": 0.0,
                "out": "train_result.json"}, cmd_train,
               manifest=lambda cfg: os.path.splitext(cfg["out"])[0] + ".manifest.json"),
    Subcommand("backprop", "backpropagation baseline runs CSV",
               {"lr": 0.5, "runs": 100, "seed": 0, "out": "backprop.csv", "jobs": 1},
               cmd_backprop),
    Subcommand("reproduce", "regenerate the reference tables and figures",
               {"seed": 500, "max_shifts": 100000, "train_runs": 10}, cmd_reproduce,
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

    subparsers = {}
    for command in SUBCOMMANDS:
        p = sub.add_parser(command.name, parents=[common], help=command.help)
        for key, default in command.defaults.items():
            p.add_argument("--" + key.replace("_", "-"), type=type(default),
                           choices=CHOICES.get(key))
        p.set_defaults(command=command, body=command.body)
        subparsers[command.name] = p
    subparsers["train"].add_argument(
        "--dry-run", dest="body", action="store_const", const=cmd_train_dry_run,
        default=cmd_train, help="find the window and print the step count; write no outputs")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    command = ns.command
    try:
        cfg = _resolve(ns, command.defaults)
        out_dir = ns.out_dir or os.environ.get(OUT_DIR_ENV, ".")
        os.makedirs(out_dir, exist_ok=True)
        outputs, summary = ns.body(cfg, out_dir)
        if outputs:
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
