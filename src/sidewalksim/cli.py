"""Command-line surface: map tooling, rollouts, distillation, evaluation."""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import distill as distill_mod
from . import suites
from .episode import EpisodeConfig
from .errors import ReplayIntegrityError, SidewalkSimError, TrainingDivergedError
from .evaluate import BENCH_MODES, bench, evaluate, replay
from .nets import load_model, save_model
from .osm import extract_sidewalks, parse_osm
from .planner import ConstantPolicy, OracleTeacher
from .walkmap import build_walkable_map, generate_synthetic_map, load_map, save_map

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRITY = 3


def _parse_policy(spec: str):
    if spec == "oracle":
        return OracleTeacher(), "privileged"
    if spec.startswith("constant:"):
        v, w = (float(t) for t in spec.split(":", 1)[1].split(","))
        return ConstantPolicy(v, w), "none"
    net, norm = load_model(spec)
    expected = distill_mod.normalization()
    if norm != expected:
        # features scaled under other constants would reach the net unchecked
        raise ValueError(f"{spec}: normalization {norm!r} is not this build's {expected!r}")
    return distill_mod.StudentPolicy(net), "realistic"


def _load_map_dir(map_dir: str) -> list:
    paths = sorted(glob.glob(os.path.join(map_dir, "*.json")))
    if not paths:
        raise SidewalkSimError(f"no map files in {map_dir}")
    return [load_map(p) for p in paths]


def _load_maps(args) -> list:
    if args.map:
        return [load_map(args.map)]
    if args.map_dir:
        return _load_map_dir(args.map_dir)
    raise SidewalkSimError("one of --map or --map-dir is required")


def _episode_configs(maps: list, density: float, obs_mode: str) -> list[EpisodeConfig]:
    return [EpisodeConfig(map=m, obstacle_density=density, obs_mode=obs_mode, render_bev=False)
            for m in maps]


def cmd_ingest(args) -> int:
    with open(args.osm) as f:
        doc = parse_osm(f.read())
    lat, lon = (float(t) for t in args.origin.split(","))
    rng = np.random.default_rng(args.seed)
    net = extract_sidewalks(doc, (lat, lon), rng)
    wmap = build_walkable_map(net, origin=(lat, lon))
    save_map(wmap, args.out)
    print(f"wrote {args.out}: {len(wmap.polygons)} polygons, bounds {wmap.bounds}")
    return EXIT_OK


def cmd_gen_map(args) -> int:
    wmap = generate_synthetic_map(args.kind, args.length, args.width, seed=args.seed)
    save_map(wmap, args.out)
    print(f"wrote {args.out}: {len(wmap.polygons)} polygons, bounds {wmap.bounds}")
    return EXIT_OK


def cmd_collect(args) -> int:
    policy, _ = _parse_policy(args.policy)
    configs = _episode_configs(_load_maps(args), args.density, "both")
    teacher = OracleTeacher()
    dataset = distill_mod.AggregatedDataset()
    distill_mod.collect_round(dataset, policy, teacher, configs, args.episodes,
                              seed=args.seed)
    distill_mod.save_transitions(args.out, dataset)
    print(f"wrote {args.out}: {len(dataset)} transitions from {args.episodes} episodes")
    return EXIT_OK


def cmd_distill(args) -> int:
    overrides = {}
    if args.config:
        with open(args.config) as f:
            overrides = json.load(f)
        if not isinstance(overrides, dict):
            raise ValueError(f"{args.config} holds no JSON object of TrainConfig fields")
        unknown = sorted(set(overrides) - {f.name for f in fields(distill_mod.TrainConfig)})
        if unknown:
            raise ValueError(f"{args.config}: not TrainConfig fields: {', '.join(unknown)}")
    overrides.setdefault("seed", args.seed)
    config = distill_mod.TrainConfig(**overrides)

    if args.map_dir:
        train_configs = _episode_configs(_load_map_dir(args.map_dir), args.density, "both")
    else:
        train_configs = suites.training_suite(args.density, obs_mode="both",
                                              render_bev=False)
    if args.val_map_dir:
        val_configs = _episode_configs(_load_map_dir(args.val_map_dir), args.density,
                                       "realistic")
    else:
        val_configs = suites.validation_suite(args.density, obs_mode="realistic")

    result = distill_mod.dagger_run(train_configs, val_configs, config,
                                    log=lambda m: print(m, flush=True))
    save_model(result.net, distill_mod.normalization(), args.out)
    if args.report:
        with open(args.report, "w") as f:
            json.dump(result.report.to_dict(), f, separators=(",", ":"), indent=None)
            f.write("\n")
    rep = result.report
    print(f"{'agent':<18} {'valid success':>13}")
    for label, final in (("teacher", rep.teacher_final),
                         ("cloning baseline", rep.baseline_final),
                         ("student", rep.best_final)):
        print(f"{label:<18} {final['success_rate']:>13.2%}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    policy, obs_mode = _parse_policy(args.policy)
    configs = _episode_configs(_load_maps(args), args.density, obs_mode)
    report = evaluate(policy, configs, args.episodes, seed=args.seed,
                      workers=args.workers, log_dir=args.log_dir)
    print(report.table(args.policy))
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report.to_dict(include_episodes=True), f, separators=(",", ":"))
            f.write("\n")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.map:
        config = EpisodeConfig(map=load_map(args.map), obstacle_density=args.density)
    else:
        config = suites.bench_config(args.density)
    report = bench(config, modes=args.modes, n_steps=args.steps, seed=args.seed)
    for mode, rate in report.steps_per_second.items():
        print(f"{mode:16s} {rate:10.1f} steps/s")
    if args.report:
        with open(args.report, "w") as f:
            json.dump(report.to_dict(), f, separators=(",", ":"))
            f.write("\n")
    return EXIT_OK


def cmd_replay(args) -> int:
    summary = replay(args.log, dump_bev_dir=args.dump_bev, svg_path=args.svg)
    print(f"replay ok: {summary['steps']} steps, terminal={summary['terminal']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sidewalksim",
        description="Sidewalk navigation simulator and distillation pipeline",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="root RNG seed")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="compile OSM XML into a map")
    p.add_argument("--osm", required=True)
    p.add_argument("--origin", required=True, help="lat,lon projection origin")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("gen-map", parents=[common], help="generate a synthetic map")
    p.add_argument("--kind", required=True, choices=["corridor", "grid", "L-shape"])
    p.add_argument("--length", type=float, required=True)
    p.add_argument("--width", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_map)

    p = sub.add_parser("collect", parents=[common],
                       help="student rollouts with teacher labels")
    p.add_argument("--policy", required=True)
    p.add_argument("--map", default=None)
    p.add_argument("--map-dir", default=None)
    p.add_argument("--episodes", type=int, default=10)
    p.add_argument("--density", type=float, default=suites.DEFAULT_OBSTACLE_DENSITY)
    p.add_argument("--out", required=True, help="output transitions .npy")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("distill", parents=[common], help="run the full DAGGER loop")
    p.add_argument("--map-dir", default=None, help="training maps (default: built-in suite)")
    p.add_argument("--val-map-dir", default=None)
    p.add_argument("--config", default=None, help="JSON with TrainConfig overrides")
    p.add_argument("--density", type=float, default=suites.DEFAULT_OBSTACLE_DENSITY)
    p.add_argument("--out", required=True, help="output model.json")
    p.add_argument("--report", default=None, help="write the run report JSON here")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("eval", aliases=["rollout"], parents=[common],
                       help="run and score episodes of a policy on a map set")
    p.add_argument("--policy", required=True,
                   help="'oracle', 'constant:v,w', or a model.json path")
    p.add_argument("--map", default=None)
    p.add_argument("--map-dir", default=None)
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--density", type=float, default=suites.DEFAULT_OBSTACLE_DENSITY)
    p.add_argument("--report", default=None)
    p.add_argument("--log-dir", "--log", default=None, help="directory for episode logs")
    p.add_argument("--workers", type=int, default=1, help="parallel episode workers")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", parents=[common], help="steps/second by observation mode")
    p.add_argument("--map", default=None)
    p.add_argument("--modes", nargs="+", default=list(BENCH_MODES), choices=BENCH_MODES)
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--density", type=float, default=suites.BENCH_OBSTACLE_DENSITY)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("replay", help="verify and export a log")
    p.add_argument("--log", required=True, help="episode JSONL log")
    p.add_argument("--dump-bev", default=None, help="directory for PGM frames")
    p.add_argument("--svg", default=None, help="overhead trajectory SVG path")
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReplayIntegrityError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except (SidewalkSimError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
