"""Unit tests for sweep specs and shard planning."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.censor import censor_families
from repro.core.evaluation import TECHNIQUES
from repro.core.measurement import RetryPolicy
from repro.netsim.impairment import mix_seed
from repro.runner import TOPOLOGIES, SweepPoint, SweepSpec, parse_retry_policy
from repro.runner.spec import VANTAGES


class TestRetryPolicyParsing:
    def test_single_shot(self):
        policy = parse_retry_policy("single-shot")
        assert policy.max_attempts == 1

    def test_retry_n(self):
        policy = parse_retry_policy("retry-5")
        assert policy.max_attempts == 5
        assert policy.retries_enabled

    @pytest.mark.parametrize("bad", ["retry-x", "retry-1", "sometimes", "retry-"])
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_retry_policy(bad)


class TestSweepSpecGrid:
    def _spec(self, **overrides):
        params = dict(
            name="t", base_seed=3, seeds=(0, 1), loss_rates=(0.0, 0.05),
            retry_policies=("single-shot", "retry-3"),
        )
        params.update(overrides)
        return SweepSpec(**params)

    def test_grid_size_is_axis_product(self):
        spec = self._spec()
        assert len(spec) == 8
        assert len(spec.points()) == 8

    def test_indices_are_contiguous_grid_order(self):
        points = self._spec().points()
        assert [p.index for p in points] == list(range(8))
        # seeds is the slowest axis, retry_policies the fastest
        assert points[0].seed == 0 and points[0].retry == "single-shot"
        assert points[1].retry == "retry-3"
        assert points[4].seed == 1

    def test_sim_seed_derived_via_mix_seed(self):
        spec = self._spec()
        for point in spec.points():
            assert point.sim_seed == mix_seed(3, point.seed, point.index)

    def test_points_are_pure_function_of_spec(self):
        assert self._spec().points() == self._spec().points()

    def test_point_dict_round_trip(self):
        point = self._spec().points()[5]
        assert SweepPoint.from_dict(point.as_dict()) == point
        json.dumps(point.as_dict())  # JSON-ready

    def test_retry_policy_materializes(self):
        point = self._spec().points()[1]
        assert isinstance(point.retry_policy(), RetryPolicy)
        assert point.retry_policy().max_attempts == 3

    def test_unknown_technique_rejected(self):
        with pytest.raises(ValueError, match="unknown technique"):
            self._spec(techniques=("warp",))

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            self._spec(topologies=("star",))

    def test_three_node_rejects_non_scan_techniques(self):
        with pytest.raises(ValueError, match="three-node"):
            self._spec(techniques=("spam",), topologies=("three-node",))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            self._spec(seeds=())

    def test_bad_loss_rate_rejected(self):
        with pytest.raises(ValueError, match="loss rate"):
            self._spec(loss_rates=(1.5,))

    def test_bad_fail_mode_rejected(self):
        with pytest.raises(ValueError, match="fail mode"):
            self._spec(inject_failures={0: "shrug"})

    def test_inject_failures_land_on_points(self):
        spec = self._spec(inject_failures={2: "exception"})
        points = spec.points()
        assert points[2].fail == "exception"
        assert all(p.fail == "" for p in points if p.index != 2)

    def test_unknown_mapping_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep spec keys"):
            SweepSpec.from_mapping({"name": "x", "warp_factor": 9})


class TestVantageAxis:
    def _spec(self, **overrides):
        params = dict(
            name="v", base_seed=3, seeds=(0, 1),
            topologies=("censored-as",),
            retry_policies=("single-shot",),
        )
        params.update(overrides)
        return SweepSpec(**params)

    def test_empty_vantages_keeps_legacy_grid(self):
        legacy = self._spec()
        assert len(legacy) == 2
        assert all(p.vantage == "" for p in legacy.points())

    def test_vantages_multiply_the_grid_as_fastest_axis(self):
        spec = self._spec(vantages=("censored", "clean"))
        points = spec.points()
        assert len(points) == 4
        assert [p.vantage for p in points] == [
            "censored", "clean", "censored", "clean",
        ]

    def test_unknown_vantage_rejected(self):
        with pytest.raises(ValueError, match="unknown vantage"):
            self._spec(vantages=("sideways",))

    def test_censored_vantage_needs_censored_as_topology(self):
        with pytest.raises(ValueError, match="censored-as"):
            SweepSpec(topologies=("three-node",),
                      vantages=("censored", "clean"))

    def test_vantage_name_prefers_the_axis_value(self):
        spec = self._spec(vantages=("clean",), censored=True)
        (p1, p2) = spec.points()
        assert p1.vantage_name() == "clean"
        assert not p1.effective_censored()
        assert not p2.effective_censored()

    def test_legacy_vantage_name_follows_censored_flag(self):
        censored_pt = self._spec(censored=True).points()[0]
        open_pt = self._spec(censored=False).points()[0]
        assert censored_pt.vantage_name() == "censored"
        assert censored_pt.effective_censored()
        assert open_pt.vantage_name() == "clean"
        assert not open_pt.effective_censored()

    def test_three_node_is_always_the_clean_vantage(self):
        point = SweepSpec(seeds=(0,)).points()[0]
        assert point.topology == "three-node"
        assert point.vantage_name() == "clean"
        assert not point.effective_censored()

    def test_vantages_change_the_content_hash(self):
        assert (self._spec().content_hash()
                != self._spec(vantages=("censored", "clean")).content_hash())

    def test_vantage_round_trips_through_dicts(self):
        spec = self._spec(vantages=("censored", "clean"))
        clone = SweepSpec.from_mapping(spec.as_dict())
        assert clone.points() == spec.points()
        point = spec.points()[1]
        assert SweepPoint.from_dict(point.as_dict()) == point


class TestCensorAxis:
    def _spec(self, **overrides):
        params = dict(
            name="c", base_seed=3, seeds=(0,),
            topologies=("censored-as",),
            retry_policies=("single-shot",),
            vantages=("censored", "clean"),
        )
        params.update(overrides)
        return SweepSpec(**params)

    def test_empty_censors_keeps_legacy_grid(self):
        legacy = self._spec()
        assert len(legacy) == 2
        assert all(p.censor == "" for p in legacy.points())
        assert all(p.censor_name() == "gfc" for p in legacy.points())

    def test_censors_multiply_the_grid_as_fastest_axis(self):
        spec = self._spec(censors=("gfc", "throttler"))
        points = spec.points()
        assert len(spec) == 4
        assert [(p.vantage, p.censor) for p in points] == [
            ("censored", "gfc"), ("censored", "throttler"),
            ("clean", "gfc"), ("clean", "throttler"),
        ]

    def test_unknown_censor_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown censor"):
            self._spec(censors=("firewall-9000",))

    def test_unknown_censor_rejected_at_spec_load(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "bad", "topologies": ["censored-as"],
            "vantages": ["censored", "clean"],
            "censors": ["firewall-9000"],
        }))
        with pytest.raises(ValueError, match="unknown censor"):
            SweepSpec.load(str(path))

    def test_every_registered_family_is_a_valid_axis_value(self):
        spec = self._spec(censors=censor_families())
        assert len(spec) == 2 * len(censor_families())
        assert {p.censor for p in spec.points()} == set(censor_families())

    def test_censors_need_censored_as_topology(self):
        with pytest.raises(ValueError, match="censored-as"):
            SweepSpec(topologies=("three-node",), censors=("gfc",))

    def test_censors_change_the_content_hash(self):
        assert (self._spec().content_hash()
                != self._spec(censors=("gfc",)).content_hash())

    def test_censor_round_trips_through_dicts(self):
        spec = self._spec(censors=("gfc", "geoblocker"))
        clone = SweepSpec.from_mapping(spec.as_dict())
        assert clone.points() == spec.points()
        point = spec.points()[1]
        assert SweepPoint.from_dict(point.as_dict()) == point

    def test_sim_seed_ignores_the_censor_name_beyond_index(self):
        # Per-point seeds come from (base_seed, seed, index) alone, so a
        # point's simulation is a pure function of the spec.
        spec = self._spec(censors=("gfc", "throttler"))
        for point in spec.points():
            assert point.sim_seed == mix_seed(3, point.seed, point.index)


class TestSpecLoading:
    def test_load_json(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "name": "fromjson", "seeds": [0, 1], "loss_rates": [0.0, 0.05],
        }))
        spec = SweepSpec.load(str(path))
        assert spec.name == "fromjson"
        assert len(spec) == 4

    def test_load_toml(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")  # noqa: F841 (py3.11+)
        path = tmp_path / "grid.toml"
        path.write_text(
            'name = "fromtoml"\nseeds = [0, 1, 2]\n'
            'retry_policies = ["single-shot", "retry-3"]\n'
        )
        spec = SweepSpec.load(str(path))
        assert spec.name == "fromtoml"
        assert len(spec) == 6

    def test_as_dict_round_trips_through_mapping(self):
        spec = SweepSpec(name="rt", seeds=(0, 2), inject_failures={1: "exit"})
        clone = SweepSpec.from_mapping(spec.as_dict())
        assert clone.points() == spec.points()


class TestMalformedSpecs:
    """Every malformed key is a ``ValueError`` that names the key."""

    @pytest.mark.parametrize("key, value", [
        ("seeds", 5),
        ("seeds", [1.5]),
        ("seeds", [True]),
        ("loss_rates", [None]),
        ("loss_rates", [float("nan")]),
        ("duration", "x"),
        ("duration", float("inf")),
        ("port_count", "10"),
        ("retry_policies", [3]),
        ("retry_policies", ["sometimes"]),
        ("techniques", "scan"),
        ("cover", -3),
        ("burst", 0.5),
        ("censored", 1),
        ("name", None),
        ("inject_failures", {"x": "exit"}),
        ("inject_failures", {"0": 1}),
        ("inject_delays", {"0": "slow"}),
        ("populations", [1.0]),
    ])
    def test_rejected_naming_the_key(self, key, value):
        with pytest.raises(ValueError, match=key):
            SweepSpec.from_mapping({key: value})

    def test_cover_beyond_the_population_rejected(self):
        # censored-as draws cover from its 20 population hosts; a larger
        # cover used to be truncated silently
        with pytest.raises(ValueError, match="^cover must be <= 20"):
            SweepSpec.from_mapping({"topologies": ["censored-as"],
                                    "techniques": ["spoofed-dns"], "cover": 21})
        SweepSpec.from_mapping({"topologies": ["censored-as"],
                                "techniques": ["spoofed-dns"], "cover": 20})
        # three-node points run no cover-using technique
        SweepSpec.from_mapping({"cover": 30})

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            SweepSpec.from_mapping([["seeds", [0]]])

    def test_json_object_keys_index_injections(self):
        spec = SweepSpec.from_mapping(
            {"seeds": [0, 1], "inject_failures": {"1": "exception"},
             "inject_delays": {"0": 0.5}}
        )
        assert [p.fail for p in spec.points()] == ["", "exception"]
        assert [p.delay for p in spec.points()] == [0.5, 0.0]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)

#: plausible values per key, so a good share of drawn specs are valid
_GOOD = {
    "name": st.text(max_size=8),
    "base_seed": st.integers(),
    "seeds": st.lists(st.integers(0, 9), min_size=1, max_size=3),
    "techniques": st.lists(st.sampled_from(TECHNIQUES), min_size=1, max_size=2),
    "topologies": st.lists(st.sampled_from(TOPOLOGIES), min_size=1, max_size=2),
    "loss_rates": st.lists(st.floats(0.0, 0.99), min_size=1, max_size=2),
    "retry_policies": st.lists(
        st.sampled_from(["single-shot", "retry-3", "retry-1"]), min_size=1,
        max_size=2,
    ),
    "vantages": st.lists(st.sampled_from(VANTAGES), max_size=2),
    "censors": st.lists(st.sampled_from(censor_families()), max_size=2),
    "populations": st.lists(st.integers(-1, 5), max_size=2),
    "burst": st.floats(0.0, 10.0),
    "duration": st.floats(-1.0, 100.0),
    "port_count": st.integers(-1, 50),
    "censored": st.booleans(),
    "cover": st.integers(-2, 10),
    "inject_failures": st.dictionaries(
        st.sampled_from(["0", "1", "x"]),
        st.sampled_from(["exception", "exit", "unpicklable", "shrug"]),
        max_size=2,
    ),
    "inject_delays": st.dictionaries(
        st.sampled_from(["0", "1"]), st.floats(-1.0, 2.0), max_size=2
    ),
}


@st.composite
def _spec_mappings(draw):
    keys = draw(st.lists(
        st.sampled_from(sorted(_GOOD) + ["warp_factor"]), unique=True, max_size=8
    ))
    return {
        key: draw(_GOOD[key] | _JSON if key in _GOOD else _JSON) for key in keys
    }


class TestSpecFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_spec_mappings())
    def test_json_shaped_mapping_gives_a_spec_or_value_error(self, data):
        try:
            spec = SweepSpec.from_mapping(data)
        except ValueError:
            return
        # A spec that validates expands and hashes without surprises.
        assert len(spec) == len(spec.points())
        assert SweepSpec.from_mapping(spec.as_dict()).points() == spec.points()
