"""A finished sweep point's world is freed by refcounting, not by the GC.

Nodes, links, stacks, taps and pending events point back at one another,
so without ``Network.teardown`` a finished point stays in memory until a
full cyclic-GC pass happens to run, and a sweep's peak RSS depends on GC
timing.  With the collector disabled, the point's ``Simulator`` must be
gone as soon as ``run_point`` returns.
"""

import gc
import weakref

import pytest

from repro.netsim import engine as engine_module
from repro.runner import SweepSpec
from repro.runner.worker import run_point


@pytest.fixture
def simulators(monkeypatch):
    """Weak references to every Simulator built while the test runs."""
    built = []
    original = engine_module.Simulator.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(engine_module.Simulator, "__init__", init)
    return built


@pytest.mark.parametrize(
    "spec",
    [
        dict(topologies=("censored-as",), populations=(300,), duration=5),
        dict(topologies=("three-node",), loss_rates=(0.05,), port_count=50, duration=30),
    ],
    ids=["population", "three-node"],
)
def test_finished_point_is_freed_without_gc(simulators, spec):
    point = SweepSpec(name="teardown", seeds=(0,), techniques=("scan",), **spec).points()[0]
    gc.collect()
    gc.disable()
    try:
        record = run_point(point.as_dict(), in_process=True)
        assert record["status"] == "ok"
        assert simulators, "the point built no simulator"
        assert all(ref() is None for ref in simulators)
    finally:
        gc.enable()


def test_finished_censored_as_points_are_freed_without_gc(simulators):
    """DNS lookups, HTTP and SMTP exchanges, and server connections still
    open when the point ends, under two censor families and from both
    vantages: none may keep the point's world in a reference cycle."""
    spec = SweepSpec(
        name="teardown", seeds=(0,), topologies=("censored-as",),
        techniques=("overt-http", "spam", "ddos", "stateful"),
        censors=("gfc", "throttler"), vantages=("censored", "clean"), duration=20,
    )
    for point in spec.points():
        simulators.clear()
        gc.collect()
        gc.disable()
        try:
            record = run_point(point.as_dict(), in_process=True)
            assert record["status"] == "ok"
            assert simulators, "the point built no simulator"
            assert all(ref() is None for ref in simulators), point.as_dict()
        finally:
            gc.enable()
