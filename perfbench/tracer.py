"""In-memory span tracer that wraps the simulator's layer functions from outside.

Each target is replaced at every module or class attribute of the
`sidewalksim` package that holds it, because callers resolve names at call
time: `episode.py` imports `dijkstra_distances` by name, so the wrapper must
sit on `sidewalksim.episode.dijkstra_distances` as well as on the `gridnav`
one. The program code is never edited; leaving the `with` block restores
every attribute.

A span is `(name, start, end, parent, episode)`: perf_counter seconds, the
index of the enclosing span (-1 at top level) and the id of the episode that
was current when it began (the count of `Episode.reset` calls so far).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

from sidewalksim import distill, evaluate, gridnav, nets, planner, sensors, walkmap, world
from sidewalksim.episode import Episode

MARK = "_perfbench_span"

# (span name, owner, attribute). Methods are wrapped on their class.
TARGETS = [
    ("sensors.raycast", sensors, "raycast"),
    ("sensors.render_bev", sensors, "render_bev"),
    ("world.step_dynamics", world, "step_dynamics"),
    ("world.collision_check", world, "collision_check"),
    ("world.on_sidewalk", world, "on_sidewalk"),
    ("world.populate_obstacles", world, "populate_obstacles"),
    ("world.obstacle_arrays", world.WorldState, "obstacle_arrays"),
    ("walkmap.is_walkable", walkmap.WalkableMap, "is_walkable"),
    ("walkmap.contains_points", walkmap.WalkableMap, "contains_points"),
    ("gridnav.free_space_grid", gridnav, "free_space_grid"),
    ("gridnav.dijkstra_distances", gridnav, "dijkstra_distances"),
    ("gridnav.bfs_connected", gridnav, "bfs_connected"),
    ("gridnav.line_of_sight", gridnav, "line_of_sight"),
    ("episode.reset", Episode, "reset"),
    ("episode.step", Episode, "step"),
    ("planner.teacher_reset", planner.OracleTeacher, "reset"),
    ("planner.teacher_act", planner.OracleTeacher, "act"),
    ("nets.forward", nets.StudentNet, "forward"),
    ("nets.loss_and_grads", nets.StudentNet, "loss_and_grads"),
    ("nets.adam_step", nets.Adam, "step"),
    ("distill.prefill", distill, "prefill"),
    ("distill.collect", distill, "collect_round"),
    ("distill.train", distill, "train_epochs"),
    ("distill.eval", evaluate, "evaluate"),
]


def _package_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "sidewalksim" or name.startswith("sidewalksim."))]


def installed_wrappers() -> list[str]:
    """`owner.attribute` of every tracer wrapper bound in the package right now."""
    holders = {id(owner): owner for _, owner, _ in TARGETS}
    holders.update((id(mod), mod) for mod in _package_modules())
    return [f"{holder.__name__}.{attr}"
            for holder in holders.values()
            for attr, value in list(vars(holder).items()) if hasattr(value, MARK)]


class Tracer:
    """Records spans and counters while installed; use as a context manager."""

    def __init__(self):
        self.spans: list = []
        self.raised: Counter = Counter()
        self.counters: Counter = Counter()
        self.episode = -1
        self._stack: list[tuple[int, str]] = []
        self._patches: list = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        try:
            for name, owner, attr in TARGETS:
                if isinstance(owner, type):
                    original = owner.__dict__[attr]
                    holders = [(owner, attr)]
                else:
                    original = getattr(owner, attr)
                    holders = [(mod, name_) for mod in _package_modules()
                               for name_, value in list(vars(mod).items()) if value is original]
                wrapper = self._wrap(name, original)
                for holder, hattr in holders:
                    self._patches.append((holder, hattr, getattr(holder, hattr)))
                    setattr(holder, hattr, wrapper)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        for holder, hattr, original in reversed(self._patches):
            setattr(holder, hattr, original)
        self._patches.clear()
        return False

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = (before(args, kwargs) or name) if before else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((idx, label))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.episode)
            if after:
                after(result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    # -- per-target hooks ---------------------------------------------------

    def _before_sensors_raycast(self, args, kwargs):
        n_rays = kwargs["n_rays"] if "n_rays" in kwargs else args[1]
        return f"sensors.raycast{n_rays}"

    def _before_world_populate_obstacles(self, args, kwargs):
        if self._inside("episode.reset"):
            self.counters["reset_layouts"] += 1
        return None

    def _before_gridnav_bfs_connected(self, args, kwargs):
        if self._inside("episode.reset"):
            self.counters["reset_bfs"] += 1
        return None

    def _before_world_obstacle_arrays(self, args, kwargs):
        # no public API reports cache hits: read the key `obstacle_arrays` tests
        if args[0]._obstacle_cache.get("arrays") is not None:
            self.counters["obstacle_cache_hits"] += 1
        return None

    def _before_episode_reset(self, args, kwargs):
        self.episode += 1
        if self._inside("distill.prefill"):
            self.counters["prefill_episodes"] += 1
        return None

    def _after_episode_step(self, outcome):
        if outcome.terminal == "success" and self._inside("distill.prefill"):
            self.counters["prefill_successes"] += 1

    def _before_nets_loss_and_grads(self, args, kwargs):
        self.counters["train_rows"] += len(args[1])
        return None

    def _inside(self, label: str) -> bool:
        return any(open_label == label for _, open_label in self._stack)

    # -- reduction ----------------------------------------------------------

    def counts(self) -> dict:
        """Spans per name plus every counter; identical for identical passes."""
        out = Counter(span[0] for span in self.spans)
        out.update({f"counter.{k}": v for k, v in self.counters.items()})
        out.update({f"raised.{k[0]}.{k[1]}": v for k, v in self.raised.items()})
        return dict(out)

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the time covered by its direct children.

        Spans on one thread nest without overlap, so the children of a span
        cover exactly the sum of their durations.
        """
        dur = np.array([end - start for _, start, end, _, _ in self.spans])
        parents = np.array([parent for _, _, _, parent, _ in self.spans], dtype=np.int64)
        child_time = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child_time, parents[has_parent], dur[has_parent])
        return dur - child_time

    def by_name(self) -> dict[str, dict]:
        """name -> {"dur": durations (s), "self": self times (s)}."""
        selfs = self.self_times()
        groups: dict[str, list[int]] = {}
        for i, span in enumerate(self.spans):
            groups.setdefault(span[0], []).append(i)
        out = {}
        for name, idx in groups.items():
            ix = np.array(idx)
            out[name] = {
                "dur": np.array([self.spans[i][2] - self.spans[i][1] for i in idx]),
                "self": selfs[ix],
            }
        return out

    def dump(self, path) -> None:
        """Write all spans to one .npz: a name table plus one array per field."""
        names = sorted({span[0] for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.array(names),
            name=np.array([code[s[0]] for s in self.spans], dtype=np.int16),
            start=np.array([s[1] for s in self.spans]),
            end=np.array([s[2] for s in self.spans]),
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
            episode=np.array([s[4] for s in self.spans], dtype=np.int64),
        )
