"""The benchmark's workloads, driven through the public API of `sidewalksim`.

Every workload is one closed-loop client in one process: each step waits for
its action and each episode for the previous one; evaluation runs with
`workers=1`. The workload seed only picks episode seeds and the action
script; the program receives generated `EpisodeConfig`s and seeds.

`build()` is the set-up (suite and map construction) and may run several
times; `run()` does one pass of the workload's fixed unit of work, checks its
outputs and returns a digest of them, which must be identical on every pass
of a seed, traced or not.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from sidewalksim import suites
from sidewalksim.distill import TrainConfig, dagger_run
from sidewalksim.episode import Episode
from sidewalksim.errors import MapTooSmallError, PrefillStallError
from sidewalksim.evaluate import OUTCOMES, episode_seed, evaluate
from sidewalksim.planner import OracleTeacher
from sidewalksim.sensors import PRIVILEGED_LIDAR_MAX_RANGE, REALISTIC_LIDAR_MAX_RANGE
from sidewalksim.world import Action

TEACHER_GATE = 0.85  # criterion-1 success gate on the density-5 validation suite


@dataclass
class PassResult:
    wall_s: float                 # timed work: the end-to-end `wall_s`
    pass_s: float                 # the whole pass, untimed parts included
    digest: str                   # checksum of the outputs
    attempted: int
    failed: int                   # operations that raised out of the program
    no_path: int = 0              # teacher NoPathError aborts the program scores as timeouts
    info: dict = field(default_factory=dict)   # deterministic or rate figures
    errors: list = field(default_factory=list)  # failed output checks


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


class TeacherEval:
    """`evaluate(OracleTeacher(), validation_suite)` at density 5, lidar only.

    Planning-heavy: resets and the teacher's Dijkstra fields dominate; no BEV
    and no `nets` code runs. `evaluate` is called once per episode, cycling
    over the suite, because a MapTooSmallError raised by one reset ends the
    whole call: per episode, the abort costs only that episode, which is
    counted as failed. A teacher NoPathError does not raise out of
    `evaluate`, which scores the episode as a timeout; such episodes are
    counted apart as `no_path` and are not failed operations. A pass of 120
    episodes takes 10-15 s, so a run of 40 s holds two or three untraced
    passes, or one untraced and one traced pass.
    """

    n_episodes = 120

    def __init__(self, seed: int):
        self.seed = seed

    def build(self):
        self.configs = suites.validation_suite(5.0, obs_mode="privileged", render_bev=False)

    def run(self) -> PassResult:
        teacher = OracleTeacher()
        reports = []
        map_aborts = 0
        t0 = time.perf_counter()
        for i in range(self.n_episodes):
            config = self.configs[i % len(self.configs)]
            try:
                reports.append(evaluate(teacher, [config], 1, seed=episode_seed(self.seed, i),
                                        workers=1))
            except MapTooSmallError:
                map_aborts += 1
        wall = time.perf_counter() - t0
        records = [r.episodes[0] for r in reports]
        errors = []
        counts = Counter(rec["outcome"] for rec in records)
        if set(counts) - set(OUTCOMES) or sum(counts.values()) + map_aborts != self.n_episodes:
            errors.append(f"outcome counts {dict(counts)} do not sum to {self.n_episodes}")
        success_rate = counts["success"] / self.n_episodes
        if success_rate < TEACHER_GATE:
            errors.append(f"teacher success {success_rate} < {TEACHER_GATE}")
        # a NoPathError abort is scored as a timeout that ends before max_steps
        max_steps = self.configs[0].max_steps
        no_path = sum(rec["outcome"] == "timeout" and rec["steps"] < max_steps
                      for rec in records)
        return PassResult(
            wall_s=wall, pass_s=wall,
            digest=_sha([r.to_dict(include_episodes=True) for r in reports]),
            attempted=self.n_episodes, failed=map_aborts, no_path=no_path,
            info={"success_rate": success_rate,
                  "env_steps": sum(rec["steps"] for rec in records)},
            errors=errors)


class SensorStream:
    """Step-only timing on `suites.bench_config()` in four observation segments.

    The loop mirrors `evaluate.bench`: a 257-action script drawn from the
    seed, episode seeds `episode_seed(seed, k)`, untimed resets. Each segment
    takes a fifth to two fifths of the step time at the seed commit;
    `crowd` gets the most time because its step cost varies with the number
    of pedestrians in each episode.
    """

    segments = {
        "lidar_only": ({"obs_mode": "privileged", "render_bev": False}, 2500),
        "full_privileged": ({"obs_mode": "privileged", "render_bev": True}, 450),
        "realistic": ({"obs_mode": "realistic"}, 800),
        "crowd": ({"obs_mode": "both", "render_bev": False, "pedestrian_fraction": 0.5}, 700),
    }

    def __init__(self, seed: int):
        self.seed = seed

    def build(self):
        base = suites.bench_config()
        self.configs = {name: replace(base, **overrides)
                        for name, (overrides, _) in self.segments.items()}
        rng = np.random.default_rng(self.seed)
        self.script = [Action(float(rng.uniform(0.0, 0.15)), float(rng.uniform(-0.3, 0.3)))
                       for _ in range(257)]

    def run(self) -> PassResult:
        t_pass = time.perf_counter()
        errors: list[str] = []
        poses = []
        terminals = []
        info = {}
        step_time = 0.0
        self.resets = self.map_aborts = 0
        for name, cfg in self.configs.items():
            n_steps = self.segments[name][1]
            episode, ep_index = self._start(cfg, 0, errors)
            elapsed = 0.0
            done = 0
            while done < n_steps:
                action = self.script[done % len(self.script)]
                t0 = time.perf_counter()
                out = episode.step(action)
                elapsed += time.perf_counter() - t0
                done += 1
                _check_observation(out.observation, errors)
                agent = episode.world.agent
                poses.append((agent.x, agent.y, agent.heading))
                if out.terminal is not None:
                    terminals.append(out.terminal)
                    episode, ep_index = self._start(cfg, ep_index + 1, errors)
            info[f"steps_per_s.{name}"] = done / elapsed
            step_time += elapsed
        n_steps = sum(n for _, n in self.segments.values())
        return PassResult(
            wall_s=step_time, pass_s=time.perf_counter() - t_pass,
            digest=_sha(np.array(poses).tobytes(), terminals),
            attempted=n_steps + self.resets, failed=self.map_aborts, info=info,
            errors=errors[:5])

    def _start(self, cfg, ep_index: int, errors: list):
        """Reset the next episode; a reset that raises MapTooSmallError counts
        as failed and the stream moves on to the next episode seed."""
        while True:
            episode = Episode(replace(cfg, seed=episode_seed(self.seed, ep_index)))
            self.resets += 1
            try:
                _check_observation(episode.reset(), errors)
                return episode, ep_index
            except MapTooSmallError:
                self.map_aborts += 1
                ep_index += 1


def _check_observation(obs, errors: list) -> None:
    for part, max_range in ((obs.privileged, PRIVILEGED_LIDAR_MAX_RANGE),
                            (obs.realistic, REALISTIC_LIDAR_MAX_RANGE)):
        if part is None:
            continue
        lidar = part.lidar
        if not (np.isfinite(lidar).all() and lidar.min() >= 0.0 and lidar.max() <= max_range):
            errors.append(f"lidar ranges outside [0, {max_range}]")
    if obs.privileged is not None and obs.privileged.bev is not None:
        if obs.privileged.bev.max() > 1:
            errors.append("BEV frame is not binary")


class Distill:
    """A reduced `dagger_run`: prefill, two DAGGER rounds, small evaluations.

    The only workload that runs `nets` (a forward pass per student step,
    `loss_and_grads` and `Adam.step` in training) and the 272-ray raycast on
    every labelled step.
    """

    max_attempts = 3

    def __init__(self, seed: int):
        self.seed = seed
        self.train_config = TrainConfig(
            prefill_count=2400, rounds=2, collect_episodes_per_round=8,
            round_eval_episodes=6, final_eval_episodes=6, seed=seed)

    def build(self):
        self.train_configs = suites.training_suite(obs_mode="both", render_bev=False)
        self.val_configs = suites.validation_suite(obs_mode="realistic")

    def run(self) -> PassResult:
        """One `dagger_run`. A run that aborts (MapTooSmallError, PrefillStallError)
        counts as failed and is repeated with the next derived seed; its time
        stays in `wall_s`."""
        aborts = 0
        t0 = time.perf_counter()
        for attempt in range(self.max_attempts):
            seed = self.seed if attempt == 0 else episode_seed(self.seed, attempt)
            cfg = replace(self.train_config, seed=seed)
            try:
                result = dagger_run(self.train_configs, self.val_configs, cfg)
                break
            except (MapTooSmallError, PrefillStallError):
                aborts += 1
        else:
            raise RuntimeError(f"dagger_run aborted {aborts} times in a row")
        wall = time.perf_counter() - t0
        report = result.report
        errors = []
        losses = [loss for r in report.rounds for loss in r.train_loss]
        if not all(math.isfinite(loss) for loss in losses):
            errors.append("non-finite training loss")
        counts = result.dataset.round_counts
        if (len(result.dataset) != sum(counts) or counts[0] != cfg.prefill_count
                or len(counts) != cfg.rounds + 1
                or report.rounds[-1].dataset_size != len(result.dataset)):
            errors.append(f"dataset rows {len(result.dataset)} != prefill + collected {counts}")
        return PassResult(
            wall_s=wall, pass_s=wall,
            digest=_sha(report.to_dict(), result.net.get_flat().tobytes()),
            attempted=aborts + 1, failed=aborts,
            info={"student_success_rate": report.best_final["success_rate"],
                  "dataset_rows": len(result.dataset)},
            errors=errors)


WORKLOADS = {"teacher_eval": TeacherEval, "sensor_stream": SensorStream, "distill": Distill}
