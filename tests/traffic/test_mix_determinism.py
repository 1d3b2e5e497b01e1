"""Seed determinism of the population schedule, in and across processes.

The sweep's byte-identity guarantees extend to background traffic only
if the flow schedule is a pure function of ``(seed, users, profile)`` —
the same digest whether the population runs in the parent process
(serial mode) or inside pool workers, and regardless of fidelity mode.
These tests pin that contract, including the supporting invariant that
building a population never draws from ``sim.rng`` (which existing
workloads own).
"""

import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

from hypothesis import given, settings, strategies as st

import repro
from repro.netsim import FIDELITY_MODES, build_censored_as
from repro.traffic import PopulationTraffic

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def schedule_digest(seed=11, users=120, fidelity="aggregate", window=4.0):
    topo = build_censored_as(seed=seed)
    population = PopulationTraffic(
        topo, users=users, fidelity=fidelity, log_schedule=True
    )
    population.start(window)
    topo.sim.run(until=topo.sim.now + window + 5.0)
    return population.schedule_digest()


_SUBPROCESS_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from tests.traffic.test_mix_determinism import schedule_digest
print(schedule_digest(seed={seed}, users={users}))
"""


class TestSameSeedSameSchedule:
    def test_two_builds_byte_identical(self):
        assert schedule_digest(seed=11) == schedule_digest(seed=11)

    def test_different_seeds_differ(self):
        assert schedule_digest(seed=11) != schedule_digest(seed=12)

    def test_fidelity_mode_never_perturbs_the_schedule(self):
        digests = {schedule_digest(seed=11, fidelity=mode)
                   for mode in FIDELITY_MODES}
        assert len(digests) == 1

    def test_construction_does_not_draw_from_sim_rng(self):
        """The generator owns private ``mix_seed`` substreams; the shared
        simulator RNG must be exactly where existing workloads left it."""
        with_population = build_censored_as(seed=3)
        PopulationTraffic(with_population, users=100)
        without = build_censored_as(seed=3)
        assert (
            with_population.sim.rng.getstate() == without.sim.rng.getstate()
        )


class TestCrossProcessDeterminism:
    def test_digest_identical_in_fresh_interpreter(self):
        """Serial mode runs in the parent; pool workers are fresh
        processes.  The schedule must not depend on interpreter state
        (hash randomization, import order, interning history)."""
        local = schedule_digest(seed=23, users=80)
        script = _SUBPROCESS_SCRIPT.format(src=SRC_ROOT, seed=23, users=80)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "random"
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(SRC_ROOT),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == local

    def test_digest_identical_across_pool_workers(self):
        """The exact execution shape of a ``--workers N`` sweep."""
        local = schedule_digest(seed=29, users=60)
        with ProcessPoolExecutor(max_workers=2) as pool:
            remote = list(pool.map(schedule_digest, [29, 29], [60, 60]))
        assert remote == [local, local]


class TestDeterminismProperties:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31), users=st.integers(1, 60))
    def test_schedule_is_a_pure_function_of_seed_and_users(self, seed, users):
        first = schedule_digest(seed=seed, users=users, window=2.0)
        second = schedule_digest(seed=seed, users=users, window=2.0)
        assert first == second

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31),
           fidelity=st.sampled_from(FIDELITY_MODES))
    def test_mode_invariance_holds_for_any_seed(self, seed, fidelity):
        assert schedule_digest(seed=seed, users=40, window=2.0) == \
            schedule_digest(seed=seed, users=40, fidelity=fidelity, window=2.0)

