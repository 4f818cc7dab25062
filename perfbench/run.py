#!/usr/bin/env python3
"""sidewalksim benchmark: run one workload with one seed and print its metrics.

    python3 perfbench/run.py --workload teacher_eval --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the simulator is imported from `src/`.
`--trace 0` repeats untraced passes of the workload for `--seconds` and
prints the end-to-end metrics. `--trace 1` alternates untraced and traced
passes and prints the per-layer metrics and the tracing overhead. Every pass
checks the program's outputs, and all passes of a run must produce identical
outputs. The last line of standard output is one JSON object; the exit code
is non-zero when a check fails. See perfbench/README.md for every metric.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
# set before numpy loads, so the BLAS pool has this size for the whole run
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9  # fresh interpreters timed for setup_s
WORKLOAD_NAMES = ("teacher_eval", "sensor_stream", "distill")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this fresh process and print it")
    args = parser.parse_args(argv)

    if not (SRC / "sidewalksim" / "__init__.py").is_file():
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        print(setup_once(args.workload, args.seed))
        return 0
    setup_s = None
    if not args.trace:
        cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-only"]
        setup_s = statistics.median(
            float(subprocess.run(cmd, check=True, capture_output=True, text=True,
                                 timeout=120).stdout)
            for _ in range(SETUP_REPEATS))

    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.build()

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    untraced, traced, tracers = [], [], []
    errors: list[str] = []
    start = time.perf_counter()
    while True:
        if tracer.installed_wrappers():
            errors.append(f"wrappers installed in an untraced pass: {tracer.installed_wrappers()}")
        untraced.append(workload.run())
        if args.trace:
            with tracer.Tracer() as t:
                traced.append(workload.run())
            tracers.append(t)
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(untraced)
        if elapsed + per_round > args.seconds:
            break

    passes = untraced + traced
    for r in passes:
        errors.extend(r.errors)
    digests = {r.digest for r in passes}
    if len(digests) != 1:
        errors.append(f"outputs differ between passes of one seed: {len(digests)} digests")
    if any(t.counts() != tracers[0].counts() for t in tracers):
        errors.append("span or counter counts differ between traced passes")

    if args.trace:
        metrics = layer_metrics(tracers, traced, untraced)
        OUT.mkdir(exist_ok=True)
        for k, t in enumerate(tracers):
            t.dump(OUT / f"spans_{args.workload}_seed{args.seed}_pass{k}.npz")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(r.wall_s for r in untraced), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    attempted = sum(r.attempted for r in passes)
    failed = sum(r.failed for r in passes)
    no_path = sum(r.no_path for r in passes)
    info = {"passes": len(untraced), "traced_passes": len(traced),
            "failed_frac": (failed + no_path) / attempted, "no_path_aborts": no_path}
    for key in untraced[0].info:
        info[key] = statistics.median(r.info[key] for r in untraced)
    for key, value in sorted(info.items()):
        print(f"info {args.workload} {key} {value}")
    for name, (value, unit) in metrics.items():
        print(f"metric {args.workload} {name} {value:.6g} {unit}")
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def setup_once(workload_name: str, seed: int) -> float:
    """Seconds to import the simulator (numpy included) and build the workload's
    suites and maps, measured from a fresh interpreter."""
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[workload_name](seed).build()
    return time.perf_counter() - t0


def layer_metrics(tracers, traced, untraced) -> dict:
    """Per-layer metrics of the traced passes (counts are per pass)."""
    import numpy as np

    n = len(tracers)
    groups = [t.by_name() for t in tracers]
    counters = tracers[0].counters
    raised = tracers[0].raised
    empty = np.zeros(0)

    def dur(name, field="dur"):
        return np.concatenate([g[name][field] if name in g else empty for g in groups])

    def calls(name) -> int:
        return len(groups[0][name]["dur"]) if name in groups[0] else 0

    def pct(name, q, scale):
        d = dur(name)
        return float(np.percentile(d, q)) * scale if len(d) else 0.0

    def busy(name, field="dur"):
        return float(dur(name, field).sum()) / n

    def ratio(num, den):
        return num / den if den else 0.0

    episodes = calls("episode.reset")
    m = {}
    for rays in (64, 272):
        name = f"sensors.raycast{rays}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.us_p50"] = (pct(name, 50, 1e6), "us")
        m[f"{name}.busy_s"] = (busy(name), "s")
    m["sensors.render_bev.calls"] = (calls("sensors.render_bev"), "count")
    m["sensors.render_bev.us_p50"] = (pct("sensors.render_bev", 50, 1e6), "us")
    m["sensors.render_bev.busy_s"] = (busy("sensors.render_bev"), "s")
    m["world.step_dynamics.us_p50"] = (pct("world.step_dynamics", 50, 1e6), "us")
    m["world.step_dynamics.busy_s"] = (busy("world.step_dynamics"), "s")
    m["world.collision_check.us_p50"] = (pct("world.collision_check", 50, 1e6), "us")
    m["world.on_sidewalk.us_p50"] = (pct("world.on_sidewalk", 50, 1e6), "us")
    m["world.populate_obstacles.calls"] = (calls("world.populate_obstacles"), "count")
    m["world.populate_obstacles.busy_s"] = (busy("world.populate_obstacles"), "s")
    m["world.obstacle_cache_hit_ratio"] = (
        ratio(counters["obstacle_cache_hits"], calls("world.obstacle_arrays")), "ratio")
    m["walkmap.is_walkable.calls"] = (calls("walkmap.is_walkable"), "count")
    m["walkmap.is_walkable.busy_s"] = (busy("walkmap.is_walkable"), "s")
    m["walkmap.contains_points.busy_s"] = (busy("walkmap.contains_points"), "s")
    for fn in ("free_space_grid", "dijkstra_distances", "bfs_connected"):
        name = f"gridnav.{fn}"
        m[f"{name}.calls_per_episode"] = (ratio(calls(name), episodes), "1/episode")
        m[f"{name}.ms_p50"] = (pct(name, 50, 1e3), "ms")
        m[f"{name}.busy_s"] = (busy(name), "s")
    m["gridnav.line_of_sight.busy_s"] = (busy("gridnav.line_of_sight"), "s")
    m["episode.reset.ms_p50"] = (pct("episode.reset", 50, 1e3), "ms")
    m["episode.reset.ms_p90"] = (pct("episode.reset", 90, 1e3), "ms")
    m["episode.reset.self_s"] = (busy("episode.reset", "self"), "s")
    m["episode.step.us_p50"] = (pct("episode.step", 50, 1e6), "us")
    m["episode.step.us_p99"] = (pct("episode.step", 99, 1e6), "us")
    m["episode.step.self_s"] = (busy("episode.step", "self"), "s")
    m["episode.layout_accept_ratio"] = (ratio(episodes, counters["reset_layouts"]), "ratio")
    m["episode.start_goal_accept_ratio"] = (ratio(episodes, counters["reset_bfs"]), "ratio")
    m["planner.teacher_reset.ms_p50"] = (pct("planner.teacher_reset", 50, 1e3), "ms")
    m["planner.teacher_reset.busy_s"] = (busy("planner.teacher_reset"), "s")
    m["planner.teacher_act.us_p50"] = (pct("planner.teacher_act", 50, 1e6), "us")
    m["planner.teacher_act.busy_s"] = (busy("planner.teacher_act"), "s")
    m["planner.no_path_aborts"] = (
        raised[("planner.teacher_reset", "NoPathError")]
        + raised[("planner.teacher_act", "NoPathError")], "count")
    m["nets.forward.calls"] = (calls("nets.forward"), "count")
    m["nets.forward.us_p50"] = (pct("nets.forward", 50, 1e6), "us")
    m["nets.forward.busy_s"] = (busy("nets.forward"), "s")
    m["nets.loss_and_grads.calls"] = (calls("nets.loss_and_grads"), "count")
    m["nets.loss_and_grads.ms_p50"] = (pct("nets.loss_and_grads", 50, 1e3), "ms")
    m["nets.loss_and_grads.busy_s"] = (busy("nets.loss_and_grads"), "s")
    m["nets.adam_step.busy_s"] = (busy("nets.adam_step"), "s")
    m["nets.train_rows_per_s"] = (ratio(counters["train_rows"], busy("distill.train")), "1/s")
    for phase in ("prefill", "collect", "train", "eval"):
        m[f"distill.{phase}_s"] = (busy(f"distill.{phase}"), "s")
    m["distill.prefill_keep_ratio"] = (
        ratio(counters["prefill_successes"], counters["prefill_episodes"]), "ratio")
    m["distill.student_success_rate"] = (
        float(traced[0].info.get("student_success_rate", 0.0)), "ratio")
    traced_wall = statistics.median(r.pass_s for r in traced)
    untraced_wall = statistics.median(r.pass_s for r in untraced)
    m["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    return m


def environment() -> dict:
    """The packages, BLAS and machine a result was measured with."""
    import importlib.util

    import numpy as np
    import scipy

    from sidewalksim import sensors

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "sensors_have_numba": bool(sensors._HAVE_NUMBA),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, else the count requested."""
    import ctypes

    libs = set()
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        pass
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return int(BLAS_THREADS)


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
