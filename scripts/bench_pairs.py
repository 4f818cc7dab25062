#!/usr/bin/env python3
"""Compare a parent and a changed checkout on the benchmark and on criteria 2 and 6.

    python3 scripts/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload teacher_eval --seed 913 --out BENCH.json

Each checkout is a directory holding `src/`, `perfbench/` and `BENCHMARK.json`,
such as the output of `git archive`. Run each side from a fresh copy, so that
both build their C kernels the same way. The script writes one JSON file:

- `pairs`: alternating pairs of `perfbench/run.py --trace 0` runs, the parent
  first in even pairs and the change first in odd ones, at the run length
  `BENCHMARK.json` sets: `PAIRS` pairs on the workload named by `--workload`,
  the one whose gain is claimed, and `GUARD_PAIRS` on each other workload.
  Per end-to-end metric: every run, each side's median and quartiles, and the
  pairs the change wins (lower reads better; ties count for neither side).
- `traced`: `TRACED_PAIRS` pairs of `--trace 1` runs on the claimed workload,
  with every per-layer metric `BENCHMARK.json` lists, per side.
- `criterion_2`: for each seed of `CRITERION_SEEDS`, criterion 2's desk
  distillation, `dagger_run(training_suite(), validation_suite(),
  TrainConfig(seed=seed))`, in each checkout with one BLAS thread, one run at
  a time, the parent first for even seed indices and the change first for odd
  ones. Per side: teacher, student and baseline success, the best round, the
  validation curve, `wall_s`, and the SHA-256 of the report JSON (as
  `sidewalksim distill --report` writes it), of the best weights and of the
  transition rows. Per seed: whether the two sides' three digests agree.
- `criterion_6`: `CRITERION_6_RUNS` runs per side, alternating sides, of
  criterion 6's own call, `evaluate.bench(suites.bench_config(),
  n_steps=4000, seed=0)`, each in a process of its own with one BLAS thread.
  Per run and per side (median and minimum): the `full_privileged` and
  `lidar_only` steps/s, their ratio, and both margins, the `full_privileged`
  rate over its floor and the ratio over its gate (above 1 passes).
- `digests`: for each workload and kernel mode of `DIGEST_RUNS`, the digest
  of one perfbench pass at the perfbench seed, in each checkout with one BLAS
  thread, and whether the two sides agree. With the kernels `off`,
  `_ckernel.build` raises OSError before the first load, as it does without
  a C compiler, so each pass runs the pure-Python paths; each side also
  reports how many kernel-unavailable warnings its pass gave. With them
  `loaded`, a kernel that fails to load is an error.
- `sources`: per side, the SHA-256 of its Python and C sources under `src/`
  and `src_lines`, the line count of `wc -l src/sidewalksim/*.py
  src/sidewalksim/*.c`, which simplicity changes are judged by.
- `environment`: interpreter, numpy and its BLAS build, core count, whether
  numba and scipy are importable, and `two_process_speedup`: a fixed
  pure-Python loop timed alone and as a forked pair of processes running it
  at once, as 2 * alone / pair. It reads about 2 when a second core runs
  alongside the first, and about 1 when the two processes share one.

The benchmark itself is never edited: the script only runs each checkout's
own `perfbench/run.py`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
GUARD_PAIRS = 5
TRACED_PAIRS = 3
CRITERION_6_RUNS = 5
FULL_FLOOR = 500.0  # criterion 6: full_privileged steps/s at least this
RATIO_GATE = 10.0   # criterion 6: lidar_only at least this many times full_privileged
CRITERION_SEEDS = (7, 1, 2)
DIGESTS = ("report_sha256", "weights_sha256", "transitions_sha256")  # of criterion 2's outputs
WORKLOADS = ("distill", "teacher_eval", "sensor_stream")
DIGEST_RUNS = (("teacher_eval", "loaded"), ("teacher_eval", "off"),
               ("sensor_stream", "loaded"), ("sensor_stream", "off"),
               ("distill", "loaded"), ("distill", "off"))
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
ONE_BLAS_THREAD = {var: "1" for var in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SPIN_LOOPS = 3_000_000  # iterations of two_process_speedup's loop, about 0.2 s


def perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `perfbench/run.py` run: its result object plus its `info` lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout.name} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["info"] = {}
    for line in lines:
        if line.startswith("info "):
            _, _, key, value = line.split(maxsplit=3)
            result["info"][key] = float(value)
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def run_pairs(checkouts: dict, workload: str, seed: int, seconds: float, n_pairs: int,
              trace: int) -> list[dict]:
    pairs = []
    for k in range(n_pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"first": order[0]}
        for side in order:
            pair[side] = perfbench(checkouts[side], workload, seed, seconds, trace)
        pairs.append(pair)
        print(f"{workload} trace {trace} pair {k}: " + ", ".join(
            f"{side} wall_s {pair[side]['metrics'].get('wall_s', {}).get('value', '-')}"
            for side in SIDES), file=sys.stderr)
    return pairs


def compare(pairs: list[dict], metrics) -> dict:
    """Per metric: each side's runs, median and quartiles; pairs the change wins."""
    out = {}
    for name in metrics:
        runs = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        wins = sum(c < p for p, c in zip(runs["parent"], runs["change"]))
        losses = sum(c > p for p, c in zip(runs["parent"], runs["change"]))
        out[name] = {"unit": pairs[0]["parent"]["metrics"][name]["unit"],
                     **{side: {"runs": runs[side], **summary(runs[side])} for side in SIDES},
                     "change_wins": wins, "change_loses": losses, "pairs": len(pairs)}
    return out


def failures(pairs: list[dict]) -> dict:
    return {side: {"attempted": sum(p[side]["attempted"] for p in pairs),
                   "failed": sum(p[side]["failed"] for p in pairs),
                   "all_correct": all(p[side]["correct"] for p in pairs)} for side in SIDES}


def criterion_2_once(seed: int) -> dict:
    """The desk distillation of criterion 2 in this interpreter (the checkout's
    `src/` on PYTHONPATH), reduced to the figures the criterion reads and the
    digests of its three outputs."""
    from sidewalksim import suites
    from sidewalksim.distill import TrainConfig, dagger_run

    train = suites.training_suite(obs_mode="both", render_bev=False)
    val = suites.validation_suite(obs_mode="realistic")
    t0 = time.perf_counter()
    result = dagger_run(train, val, TrainConfig(seed=seed))
    wall = time.perf_counter() - t0
    report = result.report
    report_json = json.dumps(report.to_dict(), separators=(",", ":"), indent=None) + "\n"
    outputs = (report_json.encode(), result.net.get_flat().tobytes(),
               result.dataset.rows.tobytes())
    return {"seed": seed,
            "teacher": report.teacher_final["success_rate"],
            "student": report.best_final["success_rate"],
            "baseline": report.baseline_final["success_rate"],
            "best_round": report.best_round,
            "validation_curve": [r.val_success_rate for r in report.rounds],
            "wall_s": wall,
            **{name: hashlib.sha256(data).hexdigest()
               for name, data in zip(DIGESTS, outputs)}}


def run_in_checkout(checkout: Path, what: str, *args: str) -> dict:
    """The JSON object this script prints last when run with `args` in a
    subprocess in the checkout, with one BLAS thread and the checkout's `src/`
    and `perfbench/` on the path. `what` names the run in messages."""
    env = {**os.environ, **ONE_BLAS_THREAD,
           "PYTHONPATH": os.pathsep.join(str(checkout / d) for d in ("src", "perfbench"))}
    proc = subprocess.run([sys.executable, __file__, *args], cwd=checkout, env=env,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{what} in {checkout.name} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    print(f"{what} {checkout.name}: {result}", file=sys.stderr)
    return result


def criterion_6_once() -> dict:
    """Criterion 6's throughput call in this interpreter (the checkout's `src/`
    on PYTHONPATH), with its rates, their ratio and both margins."""
    from sidewalksim import suites
    from sidewalksim.evaluate import bench

    rates = bench(suites.bench_config(), n_steps=4000, seed=0).steps_per_second
    full, lidar = rates["full_privileged"], rates["lidar_only"]
    return {"full_privileged": full, "lidar_only": lidar, "ratio": lidar / full,
            "full_over_floor": full / FULL_FLOOR, "ratio_over_gate": lidar / full / RATIO_GATE}


def criterion_6_summary(runs: list[dict]) -> dict:
    return {key: {"median": statistics.median(r[key] for r in runs),
                  "min": min(r[key] for r in runs)}
            for key in ("full_privileged", "lidar_only", "ratio", "full_over_floor",
                        "ratio_over_gate")}


def pass_digest_once(workload: str, seed: int, kernels: str) -> dict:
    """One pass of a perfbench workload in this interpreter (the checkout's
    `src/` and `perfbench/` on the path) with the package's C kernels loaded
    or off, the digest of its outputs and the count of kernel-unavailable
    warnings it gave.

    Off, `_ckernel.build` raises OSError before the first load, as it does
    without a C compiler, so every kernel takes its pure-Python path. Loaded,
    a kernel-unavailable warning is an error.
    """
    import re
    import warnings

    from sidewalksim import _ckernel

    import workloads

    unavailable = "compiled .* unavailable"  # the start of the loader's warning
    with warnings.catch_warnings(record=True) as caught:
        if kernels == "off":
            def no_compiler(*args, **kwargs):  # stubs any checkout's build signature
                raise OSError("no C compiler for this pass")

            _ckernel.build = no_compiler
            warnings.filterwarnings("always", message=unavailable, category=RuntimeWarning)
        else:
            warnings.filterwarnings("error", message=unavailable, category=RuntimeWarning)
        run = workloads.WORKLOADS[workload](seed)
        run.build()
        result = run.run()
    return {"workload": workload, "kernels": kernels, "digest": result.digest,
            "unavailable_warnings": sum(re.match(unavailable, str(w.message)) is not None
                                        for w in caught)}


def src_digest(checkout: Path) -> str:
    """SHA-256 over the checkout's Python and C sources, in path order."""
    h = hashlib.sha256()
    src = checkout / "src"
    for path in sorted(p for p in src.rglob("*") if p.suffix in (".py", ".c")
                       and "__pycache__" not in p.parts):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def src_lines(checkout: Path) -> int:
    """Newlines in src/sidewalksim/*.py and *.c, the total `wc -l` prints."""
    package = checkout / "src" / "sidewalksim"
    return sum(p.read_bytes().count(b"\n") for pattern in ("*.py", "*.c")
               for p in package.glob(pattern))


def spin() -> int:
    total = 0
    for i in range(SPIN_LOOPS):
        total += i & 7
    return total


def two_process_speedup() -> dict:
    """`spin` timed alone in this process, then in two forked children at once."""
    t0 = time.perf_counter()
    spin()
    alone = time.perf_counter() - t0
    t0 = time.perf_counter()
    children = []
    for _ in range(2):
        pid = os.fork()
        if pid == 0:
            spin()
            os._exit(0)
        children.append(pid)
    for pid in children:
        os.waitpid(pid, 0)
    pair = time.perf_counter() - t0
    return {"two_process_speedup": 2.0 * alone / pair, "spin_alone_s": alone, "spin_pair_s": pair}


def environment() -> dict:
    speedup = two_process_speedup()  # forks before numpy starts any BLAS thread
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "numpy": np.__version__,
            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
            # every run measured has one BLAS thread: criterion 2's runs through
            # ONE_BLAS_THREAD, and perfbench's runs because perfbench/run.py sets
            # one before numpy loads
            "blas_threads_in_runs": 1,
            "numba_present": importlib.util.find_spec("numba") is not None,
            "scipy_present": importlib.util.find_spec("scipy") is not None,
            **speedup}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="the workload whose gain is claimed: PAIRS pairs and the traced runs")
    parser.add_argument("--seed", type=int, help="the perfbench workload seed")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--criterion-2-run", type=int, metavar="SEED",
                        help="run criterion 2 once in this interpreter and print its JSON")
    parser.add_argument("--digest-run", nargs=3, metavar=("WORKLOAD", "SEED", "KERNELS"),
                        help="run one perfbench pass in this interpreter and print its digest")
    parser.add_argument("--criterion-6-run", action="store_true",
                        help="run criterion 6 once in this interpreter and print its JSON")
    args = parser.parse_args(argv)

    if args.criterion_2_run is not None:
        print(json.dumps(criterion_2_once(args.criterion_2_run)))
        return 0
    if args.criterion_6_run:
        print(json.dumps(criterion_6_once()))
        return 0
    if args.digest_run is not None:
        workload, seed, kernels = args.digest_run
        if kernels not in ("loaded", "off"):
            parser.error("KERNELS is loaded or off")
        print(json.dumps(pass_digest_once(workload, int(seed), kernels)))
        return 0
    if None in (args.parent, args.change, args.workload, args.seed, args.out):
        parser.error("--parent, --change, --workload, --seed and --out are required")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    doc = {"environment": environment(),
           "sources": {side: {"src_sha256": src_digest(checkouts[side]),
                              "src_lines": src_lines(checkouts[side])} for side in SIDES},
           "perfbench": {"seed": args.seed, "run_seconds": seconds,
                         "claimed_workload": args.workload}}

    doc["digests"] = []
    for workload, kernels in DIGEST_RUNS:
        runs = {side: run_in_checkout(checkouts[side], f"{workload} pass, kernels {kernels}",
                                      "--digest-run", workload, str(args.seed), kernels)
                for side in SIDES}
        doc["digests"].append({
            "workload": workload, "kernels": kernels, **runs,
            "bytes_identical": runs["parent"]["digest"] == runs["change"]["digest"]})

    doc["criterion_2"] = []
    for k, seed in enumerate(CRITERION_SEEDS):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        runs = {side: run_in_checkout(checkouts[side], f"criterion 2 seed {seed}",
                                      "--criterion-2-run", str(seed))
                for side in order}
        doc["criterion_2"].append({
            "seed": seed, "first": order[0], **runs,
            "bytes_identical": all(runs["parent"][d] == runs["change"][d] for d in DIGESTS)})

    doc["criterion_6"] = {"runs": {side: [] for side in SIDES}}
    for k in range(CRITERION_6_RUNS):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            doc["criterion_6"]["runs"][side].append(
                run_in_checkout(checkouts[side], f"criterion 6 run {k}", "--criterion-6-run"))
    for side in SIDES:
        doc["criterion_6"][side] = criterion_6_summary(doc["criterion_6"]["runs"][side])

    doc["pairs"] = {}
    for workload in WORKLOADS:
        n = PAIRS if workload == args.workload else GUARD_PAIRS
        pairs = run_pairs(checkouts, workload, args.seed, seconds, n, trace=0)
        doc["pairs"][workload] = {"metrics": compare(pairs, END_TO_END),
                                  "operations": failures(pairs),
                                  "info": {side: [p[side]["info"] for p in pairs]
                                           for side in SIDES}}
    traced = run_pairs(checkouts, args.workload, args.seed, seconds, TRACED_PAIRS, trace=1)
    doc["traced"] = {args.workload: compare(traced, [m["name"] for m in benchmark["per_layer"]])}

    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
