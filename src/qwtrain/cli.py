"""Command-line harness.

Subcommands: walk1d, walknd, walkc, train, backprop, reproduce. Config values
resolve as CLI flags > JSON config file (--config) > built-in defaults. Every
run writes a manifest JSON next to its outputs recording the subcommand, the
fully resolved config, the seed, the tool version, and the output paths, so
any output can be regenerated bit-identically.

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, coined_walk, mlp, oracle, trainer
from .lackadaisical_walk import (WalkParams, angles, build_operator, evolve,
                                 initial_state, outcome_probabilities,
                                 probability_trace, export_trace, steps_to_max)
from .weight_space import WeightWindow, window_size

USAGE_ERROR = 1
RUNTIME_ERROR = 2

OUT_DIR_ENV = "QWTRAIN_OUT"


@dataclass
class RunManifest:
    subcommand: str
    config: dict
    seed: int | None
    version: str
    outputs: list[str]


def _write_manifest(out_dir: str, name: str, manifest: RunManifest) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 (argparse's default of 2 is reserved for runtime failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _out_dir(ns) -> str:
    d = ns.out_dir if getattr(ns, "out_dir", None) else os.environ.get(OUT_DIR_ENV, ".")
    os.makedirs(d, exist_ok=True)
    return d


def _resolve(ns, parser: _Parser, defaults: dict) -> dict:
    """flags > config file > defaults, keyed by option dest names."""
    resolved = dict(defaults)
    if getattr(ns, "config", None):
        try:
            with open(ns.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file: {exc}")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
        resolved.update(file_cfg)
    for key in defaults:
        val = getattr(ns, key, None)
        if val is not None:
            resolved[key] = val
    return resolved


# ---------------------------------------------------------------- walk1d

WALK1D_DEFAULTS = {"steps": 100, "init": "asymmetric", "out": "walk1d.csv", "seed": None}


def cmd_walk1d(ns, parser) -> int:
    cfg = _resolve(ns, parser, WALK1D_DEFAULTS)
    if cfg["steps"] < 0:
        parser.error("steps must be non-negative")
    if cfg["init"] not in ("asymmetric", "symmetric"):
        parser.error("init must be asymmetric or symmetric")
    out_dir = _out_dir(ns)
    state = coined_walk.walk_1d(cfg["steps"], cfg["init"])
    dist = coined_walk.distribution_1d(state)
    out = os.path.join(out_dir, cfg["out"])
    coined_walk.export_distribution_1d(dist, out)
    manifest = RunManifest("walk1d", cfg, None, __version__, [out])
    _write_manifest(out_dir, cfg["out"] + ".manifest.json", manifest)
    print(f"walk1d: {cfg['steps']} steps ({cfg['init']}), "
          f"{len(dist)} positions -> {out}")
    return 0


# ---------------------------------------------------------------- walknd

WALKND_DEFAULTS = {"steps": 20, "dims": 2, "out": "walknd.csv", "seed": None}


def cmd_walknd(ns, parser) -> int:
    cfg = _resolve(ns, parser, WALKND_DEFAULTS)
    if cfg["steps"] < 0:
        parser.error("steps must be non-negative")
    if cfg["dims"] < 1:
        parser.error("dims must be at least 1")
    out_dir = _out_dir(ns)
    state = coined_walk.walk_nd(cfg["dims"], cfg["steps"])
    dist = coined_walk.distribution_nd(state)
    out = os.path.join(out_dir, cfg["out"])
    coined_walk.export_distribution_nd(dist, cfg["dims"], out)
    manifest = RunManifest("walknd", cfg, None, __version__, [out])
    _write_manifest(out_dir, cfg["out"] + ".manifest.json", manifest)
    print(f"walknd: d={cfg['dims']}, {cfg['steps']} steps, "
          f"{len(dist)} positions -> {out}")
    return 0


# ---------------------------------------------------------------- walkc

WALKC_DEFAULTS = {"n_vertices": 512, "solutions": 12, "self_loops": 1,
                  "rounding": "ceiling", "out": "walkc.csv", "seed": None}


def cmd_walkc(ns, parser) -> int:
    cfg = _resolve(ns, parser, WALKC_DEFAULTS)
    try:
        params = WalkParams(N=cfg["n_vertices"], k=cfg["solutions"], l=cfg["self_loops"])
        t_real, t_int = steps_to_max(params, cfg["rounding"])
    except ValueError as exc:
        parser.error(str(exc))
    out_dir = _out_dir(ns)
    rows = probability_trace(params, t_int)
    out = os.path.join(out_dir, cfg["out"])
    export_trace(rows, out)
    manifest = RunManifest("walkc", cfg, None, __version__, [out])
    _write_manifest(out_dir, cfg["out"] + ".manifest.json", manifest)
    final = rows[-1]
    print(f"walkc: N={params.N} k={params.k} l={params.l}, "
          f"t_real={t_real:.2f} t_int={t_int}, "
          f"p_AA({t_int})={final[1]:.4f} p_AB={final[2]:.4f} -> {out}")
    return 0


# ---------------------------------------------------------------- train

TRAIN_DEFAULTS = {"delta_p": 0.5, "z": 2, "w": 9, "self_loops": 1, "seed": 0,
                  "rounding": "ceiling", "max_shifts": 10000, "count_noise": 0.0,
                  "out": "train_result.json"}


def cmd_train(ns, parser) -> int:
    cfg = _resolve(ns, parser, TRAIN_DEFAULTS)
    try:
        config = trainer.TrainerConfig(
            delta_p=cfg["delta_p"], z=cfg["z"], w=cfg["w"], l=cfg["self_loops"],
            seed=cfg["seed"], rounding=cfg["rounding"],
            max_window_shifts=cfg["max_shifts"], count_noise=cfg["count_noise"])
    except ValueError as exc:
        parser.error(str(exc))
    out_dir = _out_dir(ns)

    if ns.dry_run:
        start = trainer.random_window(config.w, config.z, config.delta_p, config.seed)
        try:
            window, sols, shifts = trainer.find_solvable_window(start, config)
        except trainer.NoSolutionError as exc:
            print(str(exc), file=sys.stderr)
            return RUNTIME_ERROR
        params = WalkParams(N=window_size(window), k=sols.k, l=config.l)
        t_real, t_int = steps_to_max(params, config.rounding)
        print(f"train (dry run): window origin {window.origin} after {shifts} shifts, "
              f"k={sols.k}, N={params.N}, t_real={t_real:.2f}, t_int={t_int}")
        return 0

    try:
        result = trainer.train(config)
    except trainer.NoSolutionError as exc:
        print(str(exc), file=sys.stderr)
        return RUNTIME_ERROR

    out = os.path.join(out_dir, cfg["out"])
    with open(out, "w") as fh:
        fh.write(trainer.result_to_json(result))
        fh.write("\n")
    stem = os.path.splitext(cfg["out"])[0]
    steps_csv = os.path.join(out_dir, stem + "_steps.csv")
    probs_csv = os.path.join(out_dir, stem + "_probabilities.csv")
    trainer.export_steps_csv([result], steps_csv)
    trainer.export_probabilities_csv([result], probs_csv)
    manifest = RunManifest("train", cfg, cfg["seed"], __version__,
                           [out, steps_csv, probs_csv])
    _write_manifest(out_dir, stem + ".manifest.json", manifest)
    print(f"train: seed {config.seed}, k={result.k}, N={result.N}, "
          f"t={result.t_int}, outcome {result.outcome}, "
          f"classification error {result.classification_error}, "
          f"{result.shifts_performed} shifts -> {out}")
    return 0


# ---------------------------------------------------------------- backprop

BACKPROP_DEFAULTS = {"lr": 0.5, "runs": 100, "seed": 0, "out": "backprop.csv",
                     "jobs": 1}


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


def cmd_backprop(ns, parser) -> int:
    cfg = _resolve(ns, parser, BACKPROP_DEFAULTS)
    if cfg["runs"] < 0:
        parser.error("runs must be non-negative")
    if cfg["lr"] <= 0:
        parser.error("lr must be positive")
    out_dir = _out_dir(ns)
    tasks = [(cfg["lr"], cfg["seed"] + i) for i in range(cfg["runs"])]
    if cfg["jobs"] > 1 and tasks:
        with ProcessPoolExecutor(max_workers=cfg["jobs"]) as pool:
            rows = list(pool.map(_one_backprop, tasks))
    else:
        rows = [_one_backprop(t) for t in tasks]
    out = os.path.join(out_dir, cfg["out"])
    mlp.export_train_results(rows, out)
    if rows:
        s = epochs_summary([r for _, _, r in rows])
        with open(out, "a", newline="") as fh:
            fh.write(f"summary,min={s['min']},mean={s['mean']:.2f},"
                     f"max={s['max']},std={s['std']:.2f}\n")
        n_success = sum(1 for _, _, r in rows if r.outcome == "success")
        print(f"backprop: lr={cfg['lr']}, {n_success}/{len(rows)} successful, "
              f"epochs min={s['min']} mean={s['mean']:.2f} max={s['max']} "
              f"std={s['std']:.2f} -> {out}")
    else:
        print(f"backprop: 0 runs -> {out}")
    manifest = RunManifest("backprop", cfg, cfg["seed"], __version__, [out])
    _write_manifest(out_dir, cfg["out"] + ".manifest.json", manifest)
    return 0


# ---------------------------------------------------------------- reproduce

REPRODUCE_DEFAULTS = {"seed": 500, "max_shifts": 100000, "train_runs": 10}

# step-count table: (N, k, reference t_real, reference simulated t)
STEPS_TABLE = (
    (512, 12, 10.26, 11),
    (262144, 17, 195.83, 196),
    (262144, 20, 179.83, 180),
    (134217728, 80295, 64.22, 65),
)

# probability table: (N, k, steps, reference percentages for AA, AB, BA, BB)
PROB_TABLE = (
    (512, 12, 11, (95.48, 3.07, 1.40, 0.05)),
    (262144, 20, 180, (99.99, None, None, None)),
    (134217728, 80295, 65, (99.88, None, None, None)),
)

KNOWN_DISCREPANCY_ROW = 1  # index into STEPS_TABLE: (262144, 17)


def _report_steps_section(lines, outputs, out_dir):
    lines.append("## Optimal step counts\n")
    lines.append("| N | k | computed t | reference t | simulated t (ceiling) | status |")
    lines.append("|---|---|-----------|-------------|------------------------|--------|")
    rows = []
    for i, (N, k, t_ref, t_sim_ref) in enumerate(STEPS_TABLE):
        params = WalkParams(N=N, k=k, l=1)
        t_real, t_int = steps_to_max(params, "ceiling")
        if i == KNOWN_DISCREPANCY_ROW:
            ok = abs(t_real - t_ref) <= 1.0 and t_int == t_sim_ref
            status = "pass (known discrepancy, see note)" if ok else "FAIL"
        else:
            ok = abs(t_real - t_ref) <= 0.01 and t_int == t_sim_ref
            status = "pass" if ok else "FAIL"
        lines.append(f"| {N} | {k} | {t_real:.2f} | {t_ref} | {t_int} | {status} |")
        rows.append((N, k, t_real, t_int, t_ref, t_sim_ref, status))
    lines.append("")
    lines.append(
        "Note: for (N=262144, k=17) the step formula gives 195.06 while the "
        "reference table lists 195.83; the computed value is reported and the "
        "reference treated as a documented discrepancy. Ceiling rounding still "
        "reproduces the simulated step count 196.\n")
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
    for N, k, steps, refs in PROB_TABLE:
        params = WalkParams(N=N, k=k, l=1)
        state = evolve(initial_state(params), build_operator(angles(params)), steps)
        p = outcome_probabilities(state)
        ok = abs(100.0 * p[0] - refs[0]) <= 2.0
        status = "pass" if ok else "FAIL"
        lines.append(f"| {N} | {k} | {steps} | {100 * p[0]:.2f} | {refs[0]} | {status} |")
        csv_rows.append((N, k, steps) + tuple(float(x) for x in p) + (status,))
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
    ok = abs(p_aa - 1.0) < 1e-9
    lines.append(f"t_real = {t_real:.4f}, floor rounding, t = {t_int}; "
                 f"p_AA({t_int}) = {p_aa:.12f} "
                 f"(reference: 1.0) -> {'pass' if ok else 'FAIL'}\n")
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
        lines.append(f"- {name}: {detail} -> {'pass' if ok else 'FAIL'}")
    lines.append("")


def _report_backprop_section(lines, outputs, out_dir, seed):
    lines.append("## Backprop baseline\n")
    rows_fast = [_one_backprop((0.5, seed + i)) for i in range(100)]
    rows_slow = [_one_backprop((0.0001, seed + i)) for i in range(20)]
    for lr, rows, path_name in ((0.5, rows_fast, "backprop_lr_0.5.csv"),
                                (0.0001, rows_slow, "backprop_lr_0.0001.csv")):
        path = os.path.join(out_dir, path_name)
        mlp.export_train_results(rows, path)
        outputs.append(path)
        results = [r for _, _, r in rows]
        s = epochs_summary(results)
        n_success = sum(1 for r in results if r.outcome == "success")
        lines.append(f"- lr={lr}: {n_success}/{len(results)} successful, epochs "
                     f"min={s['min']} mean={s['mean']:.2f} max={s['max']} "
                     f"std={s['std']:.2f}")
    succ_fast = [r for _, _, r in rows_fast if r.outcome == "success"]
    mean_fast = statistics.fmean([r.epochs_used for r in succ_fast])
    limit_hits = sum(1 for _, _, r in rows_slow if r.outcome == "epoch_limit")
    ok_fast = len(succ_fast) >= 95
    mean_slow = statistics.fmean([r.epochs_used for _, _, r in rows_slow])
    ok_slow = limit_hits > 0 or mean_slow >= 50 * mean_fast
    lines.append(f"- lr=0.5 success rate >= 95%: -> {'pass' if ok_fast else 'FAIL'}")
    lines.append(f"- lr=0.0001 is orders of magnitude slower "
                 f"({limit_hits} epoch-limit hits): -> {'pass' if ok_slow else 'FAIL'}")
    lines.append("")


def _report_train_section(lines, outputs, out_dir, seed, max_shifts, runs):
    lines.append("## End-to-end weight search (z=2)\n")
    results = []
    failures = 0
    for i in range(runs):
        config = trainer.TrainerConfig(seed=seed + i, max_window_shifts=max_shifts)
        try:
            results.append(trainer.train(config))
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
                 f"-> {'pass' if zero_err else 'FAIL'}")
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
                 f"(window-dependent; reference run reported 80295 for its window)")
    if k >= 1:
        params = WalkParams(N=n, k=k, l=1)
        t_real, t_int = steps_to_max(params, "ceiling")
        state = evolve(initial_state(params), build_operator(angles(params)), t_int)
        p = outcome_probabilities(state)
        ok = p[0] + p[1] >= 0.99
        lines.append(f"- walk with t = {t_int}: p_AA + p_AB = {p[0] + p[1]:.6f} "
                     f"-> {'pass' if ok else 'FAIL'}")
    else:
        lines.append("- FAIL: the centered z=8 window contains no solutions")
    lines.append("")


def cmd_reproduce(ns, parser) -> int:
    cfg = _resolve(ns, parser, REPRODUCE_DEFAULTS)
    out_dir = _out_dir(ns)
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
    _report_train_section(lines, outputs, out_dir, cfg["seed"],
                          cfg["max_shifts"], cfg["train_runs"])
    _report_large_window_section(lines, outputs, out_dir)

    report = os.path.join(out_dir, "report.md")
    with open(report, "w") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    outputs.append(report)
    manifest = RunManifest("reproduce", cfg, cfg["seed"], __version__, outputs)
    _write_manifest(out_dir, "reproduce.manifest.json", manifest)
    n_fail = sum("FAIL" in line for line in lines)
    print(f"reproduce: report at {report}; {n_fail} failing rows")
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> _Parser:
    parser = _Parser(prog="qwtrain",
                     description="Quantum-walk weight search and its baselines")
    parser.add_argument("--version", action="version", version=f"qwtrain {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (flags still win)")
    common.add_argument("--out-dir", help=f"output directory "
                        f"(default: ${OUT_DIR_ENV} or current directory)")

    p = sub.add_parser("walk1d", parents=[common],
                       help="1D Hadamard walk distribution CSV")
    p.add_argument("--steps", type=int)
    p.add_argument("--init", choices=["asymmetric", "symmetric"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_walk1d)

    p = sub.add_parser("walknd", parents=[common],
                       help="n-dimensional Hadamard walk distribution CSV")
    p.add_argument("--steps", type=int)
    p.add_argument("--dims", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_walknd)

    p = sub.add_parser("walkc", parents=[common],
                       help="complete-graph walk probability trace CSV")
    p.add_argument("--n-vertices", type=int, dest="n_vertices")
    p.add_argument("--solutions", type=int)
    p.add_argument("--self-loops", type=int, dest="self_loops")
    p.add_argument("--rounding", choices=["floor", "ceiling", "nearest"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_walkc)

    p = sub.add_parser("train", parents=[common],
                       help="run the quantum-walk weight search")
    p.add_argument("--delta-p", type=float, dest="delta_p")
    p.add_argument("--z", type=int)
    p.add_argument("--w", type=int)
    p.add_argument("--self-loops", type=int, dest="self_loops")
    p.add_argument("--seed", type=int)
    p.add_argument("--rounding", choices=["floor", "ceiling", "nearest"])
    p.add_argument("--max-shifts", type=int, dest="max_shifts")
    p.add_argument("--count-noise", type=float, dest="count_noise")
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("backprop", parents=[common],
                       help="backpropagation baseline runs CSV")
    p.add_argument("--lr", type=float)
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_backprop)

    p = sub.add_parser("reproduce", parents=[common],
                       help="regenerate the reference tables and figures")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-shifts", type=int, dest="max_shifts")
    p.add_argument("--train-runs", type=int, dest="train_runs")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns, parser)
    except oracle.WindowTooLarge as exc:
        print(str(exc), file=sys.stderr)
        return RUNTIME_ERROR
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
