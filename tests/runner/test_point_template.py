"""A sweep point's record does not depend on the process caches.

Sweep workers build every point's world from shared, immutable
structure that process-wide caches fill on first use: compiled rulesets
(``repro.rules.engine``), literal automatons (``repro.rules.multipattern``)
and next-hop tables (``repro.netsim.network``).  Impairment pipelines are
cloned from one profile per point.  Whatever ran before a point — and
whether the caches were warm — must not change its record.
"""

import inspect
import json
import random

import pytest

from repro.netsim import Host, Network, Router, Simulator
from repro.netsim import impairment as impairment_module
from repro.netsim import network as network_module
from repro.netsim.impairment import ImpairmentModel
from repro.netsim.network import clear_route_cache
from repro.rules.engine import clear_ruleset_cache
from repro.rules.multipattern import clear_automaton_cache
from repro.runner import SweepSpec
from repro.runner.worker import run_point


def clear_process_caches():
    clear_ruleset_cache()
    clear_automaton_cache()
    clear_route_cache()


def canonical(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class TestRecordsIgnoreCacheState:
    @pytest.fixture(scope="class")
    def points(self):
        spec = SweepSpec(
            name="template", base_seed=3, seeds=(0,),
            techniques=("overt-http",), topologies=("censored-as",),
            loss_rates=(0.0, 0.02), retry_policies=("retry-3",),
            vantages=("censored", "clean"), censors=("gfc", "throttler"),
            duration=30,
        )
        return [point.as_dict() for point in spec.points()]

    @staticmethod
    def run(points, before_each=None):
        records = {}
        for point in points:
            if before_each is not None:
                before_each()
            record = run_point(point, in_process=True)
            assert record["status"] == "ok"
            records[record["index"]] = canonical(record)
        return records

    def test_forward_reversed_and_cold_runs_agree(self, points):
        assert len(points) == 8
        forward = self.run(points)
        reversed_order = self.run(list(reversed(points)))
        cold = self.run(points, before_each=clear_process_caches)
        assert reversed_order == forward
        assert cold == forward
        rows = [json.loads(record)["records"] for record in forward.values()]
        assert all(rows), "a point produced no record rows"


def line_network(names=("a", "r1", "r2", "b")):
    net = Network(Simulator(seed=1))
    nodes = [
        net.add(Host(name, f"10.0.0.{i + 1}") if i in (0, len(names) - 1) else Router(name))
        for i, name in enumerate(names)
    ]
    for left, right in zip(nodes, nodes[1:]):
        net.connect(left, right)
    return net


class TestSharedRouteTables:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_route_cache()
        yield
        clear_route_cache()

    def test_same_shape_shares_one_table(self):
        first, second = line_network(), line_network()
        assert first.path_nodes("a", "b") == second.path_nodes("a", "b")
        assert first._next_hop is second._next_hop

    def test_different_shape_does_not_share(self):
        first = line_network()
        second = line_network(("a", "r1", "r3", "b"))
        assert first.path_nodes("a", "b") == ["a", "r1", "r2", "b"]
        assert second.path_nodes("a", "b") == ["a", "r1", "r3", "b"]
        assert first._next_hop is not second._next_hop

    def test_table_survives_sibling_teardown(self):
        first, second = line_network(), line_network()
        first.path_nodes("a", "b")
        second.path_nodes("a", "b")
        first.teardown()
        assert first._next_hop == {}
        assert second.path_nodes("a", "b") == ["a", "r1", "r2", "b"]
        assert line_network().path_nodes("b", "a") == ["b", "r2", "r1", "a"]

    def test_cache_is_bounded_in_cells(self, monkeypatch):
        monkeypatch.setattr(network_module, "ROUTE_CACHE_CELLS", 40)
        wide = ("a", "r1", "r2", "r3", "r4", "r5", "r6", "b")  # 64 cells
        first, second = line_network(wide), line_network(wide)
        first.path_nodes("a", "b")
        second.path_nodes("a", "b")
        assert first._next_hop is not second._next_hop, "over budget, yet cached"
        small = line_network()  # 16 cells
        small.path_nodes("a", "b")
        for names in (("a", "x1", "b"), ("a", "x2", "b"), ("a", "x3", "b")):
            line_network(names).path_nodes("a", "b")  # 9 cells each
        # 16 + 3 * 9 > 40: the least recently used entry went first.
        again = line_network()
        again.path_nodes("a", "b")
        assert again._next_hop is not small._next_hop
        assert clear_route_cache() == 3


def _model_factories():
    """One configured instance of every model ``impairment.py`` defines."""
    return {
        "IndependentLoss": lambda: impairment_module.IndependentLoss(0.3),
        "GilbertElliottLoss": lambda: impairment_module.GilbertElliottLoss(
            0.3, 0.4, loss_good=0.1, loss_bad=0.9
        ),
        "LatencyJitter": lambda: impairment_module.LatencyJitter(0.01),
        "Reordering": lambda: impairment_module.Reordering(0.5, (0.01, 0.02)),
        "Duplication": lambda: impairment_module.Duplication(0.5, copy_delay=0.001),
        "BandwidthLimit": lambda: impairment_module.BandwidthLimit(1000.0, 4000),
    }


def _defined_models():
    return sorted(
        name
        for name, cls in vars(impairment_module).items()
        if inspect.isclass(cls)
        and issubclass(cls, ImpairmentModel)
        and cls is not ImpairmentModel
        and cls.__module__ == impairment_module.__name__
    )


def _drive(model, seed):
    rng = random.Random(seed)
    return [model.decide(300, step * 0.05, rng) for step in range(40)]


_IMMUTABLE = (int, float, str, bool, type(None), tuple, frozenset)


class TestImpairmentClones:
    def test_every_model_has_a_factory(self):
        assert _defined_models() == sorted(_model_factories())

    @pytest.mark.parametrize("name", sorted(_model_factories()))
    def test_clone_shares_no_mutable_state(self, name):
        factory = _model_factories()[name]
        original = factory()
        _drive(original, seed=1)  # move any per-path state off its start
        clone = original.clone()
        pristine = factory()

        assert type(clone) is type(original)
        assert vars(clone) == vars(pristine)
        for attribute, value in vars(clone).items():
            assert isinstance(value, _IMMUTABLE) or \
                value is not vars(original)[attribute], attribute

        before = dict(vars(original))
        decisions = _drive(clone, seed=2)
        assert vars(original) == before, "driving the clone moved the original"
        assert decisions == _drive(pristine, seed=2)


class TestLazyImpairment:
    """``Link.impair`` installs a profile; each direction builds its own
    pipeline from it on first use, and the last install wins."""

    def link(self):
        net = Network(Simulator(seed=5))
        a = net.add(Host("a", "10.0.0.1"))
        b = net.add(Host("b", "10.0.0.2"))
        return net.connect(a, b)

    def test_directions_get_their_own_clones(self):
        link = self.link()
        profile = [impairment_module.GilbertElliottLoss.from_marginal(0.3)]
        link.impair(profile)
        ab, ba = link.impairment("ab"), link.impairment("ba")
        assert ab is not ba
        assert ab is link.impairment("ab"), "built once, then kept"
        models = [*ab.models, *ba.models]
        assert all(model is not profile[0] for model in models)
        assert models[0] is not models[1]

    def test_last_install_before_first_packet_wins(self):
        link = self.link()
        link.impair([impairment_module.IndependentLoss(0.99)])
        link.clear_impairment("ab")
        link.impair([impairment_module.Duplication(1.0)], direction="ba")
        assert link.impairment("ab") is None
        assert len(link.transmit(100, 0.0, "ab").delays) == 1
        assert len(link.transmit(100, 0.0, "ba").delays) == 2
        assert link.stats["ba"].packets_duplicated == 1
