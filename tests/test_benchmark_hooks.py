"""The benchmark in perfbench/ reads and wraps names of the package from
outside; these tests fail when a change removes one of them."""

from perfbench import tracer

from sidewalksim import sensors, suites
from sidewalksim.evaluate import evaluate
from sidewalksim.planner import OracleTeacher


def test_tracer_wraps_every_target_and_restores_them():
    assert tracer.installed_wrappers() == []
    config = suites.validation_suite(5.0, obs_mode="privileged", render_bev=False)[0]
    with tracer.Tracer() as t:  # raises when a target name is gone
        assert len(tracer.installed_wrappers()) >= len(tracer.TARGETS)
        evaluate(OracleTeacher(), [config], 1, seed=3)
    assert tracer.installed_wrappers() == []
    assert t.counts()["planner.teacher_act"] > 0


def test_benchmark_environment_names_exist():
    # perfbench/run.py reports this flag in its environment block
    assert sensors._HAVE_NUMBA is False
