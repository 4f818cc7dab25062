"""Evaluation harness: seeded episode suites, throughput benchmark, log replay."""

from __future__ import annotations

import gc
import json
import os
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

import numpy as np

from .episode import Episode, EpisodeConfig, episode_seed, run_episode
from .errors import MapFormatError, ReplayIntegrityError
from .geometry import oriented_rect_corners
from .world import Action

OUTCOMES = ("success", "collision", "sidewalk_violation", "timeout")

BENCH_MODES = ("none", "lidar_only", "full_privileged")


@dataclass
class EvalReport:
    n_episodes: int
    success_rate: float
    collision_rate: float
    sidewalk_violation_rate: float
    timeout_rate: float
    mean_episode_length: float
    mean_reward: float
    episodes: list[dict]

    def to_dict(self, include_episodes: bool = False) -> dict:
        """Every field in declaration order; `episodes` only on request."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if include_episodes or f.name != "episodes"}

    def table(self, label: str = "policy") -> str:
        rows = [
            ("agent", label),
            ("episodes", str(self.n_episodes)),
            ("success", f"{self.success_rate:7.2%}"),
            ("collision", f"{self.collision_rate:7.2%}"),
            ("sidewalk violation", f"{self.sidewalk_violation_rate:7.2%}"),
            ("timeout", f"{self.timeout_rate:7.2%}"),
            ("mean steps", f"{self.mean_episode_length:7.1f}"),
            ("mean reward", f"{self.mean_reward:7.2f}"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def _run_indexed_episode(args):
    config, policy, index, root_seed, log_path = args
    cfg = replace(config, seed=episode_seed(root_seed, index))
    episode = Episode(cfg)
    result = run_episode(episode, policy)
    if log_path is not None:
        write_episode_log(log_path, episode)
    return {
        "index": index,
        "outcome": result.outcome,
        "reward": result.reward_total,
        "steps": result.steps,
    }


def evaluate(policy, configs: list[EpisodeConfig], n_episodes: int, seed: int = 0,
             workers: int = 1, log_dir: Optional[str] = None) -> EvalReport:
    """Run seeded episodes round-robin over the config set and aggregate.

    Results aggregate in episode-index order, so the report is identical for
    any worker count.
    """
    if n_episodes < 1:
        raise ValueError("n_episodes must be >= 1")
    if log_dir is not None:
        os.makedirs(log_dir, exist_ok=True)
    jobs = []
    for i in range(n_episodes):
        log_path = os.path.join(log_dir, f"episode_{i:05d}.jsonl") if log_dir else None
        jobs.append((configs[i % len(configs)], policy, i, seed, log_path))

    if workers > 1:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(workers) as pool:
            records = pool.map(_run_indexed_episode, jobs)
    else:
        records = [_run_indexed_episode(j) for j in jobs]

    counts = {k: 0 for k in OUTCOMES}
    for r in records:
        counts[r["outcome"]] += 1
    n = len(records)
    return EvalReport(
        n_episodes=n,
        success_rate=counts["success"] / n,
        collision_rate=counts["collision"] / n,
        sidewalk_violation_rate=counts["sidewalk_violation"] / n,
        timeout_rate=counts["timeout"] / n,
        mean_episode_length=sum(r["steps"] for r in records) / n,
        mean_reward=sum(r["reward"] for r in records) / n,
        episodes=records,
    )


# -- episode logs ------------------------------------------------------------


def write_episode_log(path, episode: Episode) -> None:
    """JSONL: one header record with config + seed, then one record per step.

    The header also carries the start pose, goal, and initial obstacle list
    for inspection without re-simulation.
    """
    config = episode.config
    header = {"config": config.to_dict(), "seed": config.seed,
              "start": list(episode.start_pose), "goal": list(episode.goal),
              "obstacles": episode.initial_obstacles}
    with open(path, "w") as f:
        f.write(json.dumps(header, separators=(",", ":")) + "\n")
        for row in episode.log_rows:
            f.write(json.dumps(row, separators=(",", ":")) + "\n")


def read_episode_log(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line]
    if not lines:
        raise ReplayIntegrityError("empty log file")
    header = json.loads(lines[0])
    rows = [json.loads(line) for line in lines[1:]]
    return header, rows


# -- throughput benchmark -----------------------------------------------------


@dataclass
class BenchReport:
    steps_per_second: dict
    n_steps: int
    wall_time: float
    config: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _bench_mode_config(config: EpisodeConfig, mode: str) -> EpisodeConfig:
    if mode == "none":
        return replace(config, obs_mode="none")
    if mode == "lidar_only":
        return replace(config, obs_mode="privileged", render_bev=False)
    if mode == "full_privileged":
        return replace(config, obs_mode="privileged", render_bev=True)
    raise ValueError(f"unknown bench mode {mode!r}")


def bench(config: EpisodeConfig, modes=BENCH_MODES, n_steps: int = 5000,
          seed: int = 0) -> BenchReport:
    """Time env steps under each observation mode with a fixed action script.

    Episode resets are excluded from the timing; only step() calls count.
    Each mode starts after a full garbage collection, so that no full pass,
    which lasts as long as ~1 000 steps without sensing, runs within its steps.
    """
    if n_steps < 1000:
        raise ValueError("n_steps must be >= 1000")
    rng = np.random.default_rng(seed)
    script = [Action(float(rng.uniform(0.0, 0.15)), float(rng.uniform(-0.3, 0.3)))
              for _ in range(257)]

    rates = {}
    t_start = time.perf_counter()
    for mode in modes:
        cfg = _bench_mode_config(config, mode)
        episode = Episode(replace(cfg, seed=episode_seed(seed, 0)))
        episode.reset()
        gc.collect()
        elapsed = 0.0
        done = 0
        ep_index = 0
        while done < n_steps:
            action = script[done % len(script)]
            t0 = time.perf_counter()
            out = episode.step(action)
            elapsed += time.perf_counter() - t0
            done += 1
            if out.terminal is not None:
                ep_index += 1
                episode = Episode(replace(cfg, seed=episode_seed(seed, ep_index)))
                episode.reset()
        rates[mode] = done / elapsed
    wall = time.perf_counter() - t_start
    summary = {
        "map_bounds": list(config.map.bounds),
        "obstacle_density": config.obstacle_density,
        "seed": seed,
    }
    return BenchReport(steps_per_second=rates, n_steps=n_steps, wall_time=wall,
                       config=summary)


# -- replay and exports --------------------------------------------------------


# what replay reads of a log: the keys of its header, of the header's config
# (every field EpisodeConfig.from_dict requires) and of each step row
_CONFIG_KEYS = tuple(f.name for f in fields(EpisodeConfig) if not f.type.startswith("Optional["))
_ROW_KEYS = ("action", "pose", "reward", "terminal")


def _require_keys(record, keys, where: str) -> None:
    if not isinstance(record, dict):
        raise ReplayIntegrityError(f"{where} is not a JSON object")
    for key in keys:
        if key not in record:
            raise ReplayIntegrityError(f"{where} has no {key!r}")


def replay(log_path, dump_bev_dir: Optional[str] = None,
           svg_path: Optional[str] = None) -> dict:
    """Re-simulate a log from its header and verify bit-identical trajectory.

    Raises ReplayIntegrityError at the first differing step. Optionally dumps
    one PGM per step (current BEV frame) and an overhead SVG of the run.
    """
    header, rows = read_episode_log(log_path)
    _require_keys(header, ("config", "seed"), "log line 1")
    _require_keys(header["config"], _CONFIG_KEYS, "the config on log line 1")
    for i, row in enumerate(rows):
        _require_keys(row, _ROW_KEYS, f"log line {i + 2}")
        action = row["action"]
        if not (isinstance(action, list) and len(action) == 2
                and all(isinstance(a, (int, float)) for a in action)):
            raise ReplayIntegrityError(f"log line {i + 2} has an action {action!r} "
                                       "that is no [speed, yaw rate] pair")
    try:
        config = EpisodeConfig.from_dict(header["config"])
    except (TypeError, ValueError, OverflowError, MapFormatError) as exc:
        raise ReplayIntegrityError(f"the config on log line 1 is malformed: {exc}") from exc
    if config.seed != header["seed"]:
        raise ReplayIntegrityError("header seed does not match config seed")
    if dump_bev_dir is not None:
        config = replace(config, obs_mode="privileged", render_bev=True)
        os.makedirs(dump_bev_dir, exist_ok=True)
    else:
        # observations never influence the trajectory; skip rendering entirely
        config = replace(config, obs_mode="none")

    episode = Episode(config)
    obs = episode.reset()
    if "obstacles" in header and episode.initial_obstacles != header["obstacles"]:
        raise ReplayIntegrityError("re-simulated obstacle layout diverges from the log")
    if "start" in header and list(episode.start_pose) != header["start"]:
        raise ReplayIntegrityError("re-simulated start pose diverges from the log")
    trajectory = [(episode.world.agent.x, episode.world.agent.y)]
    for i, row in enumerate(rows):
        out = episode.step(Action(row["action"][0], row["action"][1]))
        agent = episode.world.agent
        pose = [agent.x, agent.y, agent.heading]
        if pose != row["pose"]:
            raise ReplayIntegrityError(
                f"pose diverged at step {i}: {pose} != {row['pose']}", step=i)
        got = {"s": out.reward.success, "t": out.reward.termination,
               "a": out.reward.approach, "l": out.reward.life}
        if got != row["reward"]:
            raise ReplayIntegrityError(
                f"reward diverged at step {i}: {got} != {row['reward']}", step=i)
        if out.terminal != row["terminal"]:
            raise ReplayIntegrityError(
                f"terminal diverged at step {i}: {out.terminal} != {row['terminal']}",
                step=i)
        trajectory.append((agent.x, agent.y))
        if dump_bev_dir is not None:
            frame = out.observation.privileged.bev[0]
            write_pgm(os.path.join(dump_bev_dir, f"bev_{i:04d}.pgm"), frame)
    if svg_path is not None:
        # the target the last step logged, which the re-simulation has reached again
        goal = list(episode.current_target() if rows else episode.goal)
        write_trajectory_svg(svg_path, config.map, episode.world.obstacles,
                             trajectory, goal)
    return {"steps": len(rows), "ok": True, "terminal": rows[-1]["terminal"] if rows else None}


def write_pgm(path, frame: np.ndarray) -> None:
    """Binary PGM (P5) with walkable=255, blocked=0."""
    h, w = frame.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write((frame.astype(np.uint8) * 255).tobytes())


def write_trajectory_svg(path, wmap, obstacles, trajectory, goal) -> None:
    """Deterministic overhead plot: walkable polygons, obstacles, path, goal."""
    minx, miny, maxx, maxy = wmap.bounds
    pad = 2.0
    minx, miny, maxx, maxy = minx - pad, miny - pad, maxx + pad, maxy + pad
    scale = 20.0  # px per meter
    width = (maxx - minx) * scale
    height = (maxy - miny) * scale

    def px(x):
        return (x - minx) * scale

    def py(y):
        return (maxy - y) * scale  # flip y so north is up

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.1f} {height:.1f}">',
        f'<rect width="{width:.1f}" height="{height:.1f}" fill="#202020"/>',
    ]
    for poly in wmap.polygons:
        pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in poly)
        parts.append(f'<polygon points="{pts}" fill="#9a9a9a"/>')
    for ob in obstacles:
        if ob.kind == "cylinder":
            parts.append(
                f'<circle cx="{px(ob.x):.1f}" cy="{py(ob.y):.1f}" '
                f'r="{ob.radius * scale:.1f}" fill="#c0392b"/>')
        else:
            corners = oriented_rect_corners(ob.x, ob.y, ob.half_w, ob.half_h, ob.yaw)
            pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in corners)
            parts.append(f'<polygon points="{pts}" fill="#c0392b"/>')
    if trajectory:
        pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in trajectory)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#2980ff" '
                     f'stroke-width="2"/>')
        sx, sy = trajectory[0]
        parts.append(f'<circle cx="{px(sx):.1f}" cy="{py(sy):.1f}" r="4" fill="#2ecc71"/>')
    gx, gy = goal
    parts.append(f'<circle cx="{px(gx):.1f}" cy="{py(gy):.1f}" r="4" fill="#f1c40f"/>')
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")
