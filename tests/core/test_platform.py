"""Tests for the measurement platform's decks (the ``deck-*`` techniques).

Each posture runs as one sweep point per seed and vantage, through the
same worker as every other technique; the assertions read its record
rows and risk columns.
"""

import json
from functools import lru_cache

import pytest

from repro.core import Verdict, build_environment
from repro.core.evaluation import DECK_TECHNIQUES, technique_factory
from repro.core.platform import DECK_TARGETS, DeckMeasurement
from repro.rules.rulesets import BLOCKED_DOMAINS
from repro.runner import SweepSpec, run_point

POSTURES = ("overt", "stealthy", "paranoid")
SEEDS = [0, 1, 2, 3, 4]
BLOCKED = sorted(set(DECK_TARGETS) & set(BLOCKED_DOMAINS))


def deck_spec(posture, **overrides):
    return SweepSpec.from_mapping({
        "name": "deck",
        "seeds": SEEDS,
        "techniques": [f"deck-{posture}"],
        "topologies": ["censored-as"],
        "vantages": ["censored", "clean"],
        "censors": ["gfc"],
        "duration": 60.0,
        "cover": 11,
        **overrides,
    })


@lru_cache(maxsize=None)
def deck_records(posture):
    """vantage -> the posture's point records over SEEDS."""
    by_vantage = {"censored": [], "clean": []}
    for point in deck_spec(posture).points():
        record = run_point(point.as_dict(), in_process=True)
        assert record["status"] == "ok"
        by_vantage[point.vantage].append(record)
    return by_vantage


def blocked_targets(record):
    return sorted({row["target"] for row in record["records"]
                   if Verdict(row["verdict"]).indicates_blocking})


def risk(record):
    row = record["records"][0]
    return (row["attributed_alerts"], row["attribution_confidence"],
            row["investigated"], row["evaded"])


class TestPostures:
    def test_unknown_posture_rejected(self):
        with pytest.raises(ValueError, match="^techniques"):
            deck_spec("reckless")
        with pytest.raises(ValueError):
            technique_factory("deck-reckless")

    def test_decks_are_censored_as_only(self):
        with pytest.raises(ValueError, match="^techniques: three-node"):
            SweepSpec.from_mapping({"techniques": ["deck-stealthy"],
                                    "topologies": ["three-node"]})

    @pytest.mark.parametrize("posture", POSTURES)
    def test_every_posture_finds_the_blocking(self, posture):
        for record in deck_records(posture)["censored"]:
            assert blocked_targets(record) == BLOCKED

    @pytest.mark.parametrize("posture", POSTURES)
    def test_every_posture_clean_when_open(self, posture):
        for record in deck_records(posture)["clean"]:
            assert blocked_targets(record) == []

    def test_overt_posture_attributed(self):
        # At the clean vantage the overt burst trips a commodity flood rule
        # and bot suppression hides it: attribution is asserted here only.
        for record in deck_records("overt")["censored"]:
            assert risk(record) == (1, 1.0, True, False)

    def test_stealthy_posture_evades(self):
        for records in deck_records("stealthy").values():
            for record in records:
                assert risk(record) == (0, 0.0, False, True)

    def test_paranoid_posture_diluted(self):
        for records in deck_records("paranoid").values():
            for record in records:
                attributed, confidence, investigated, evaded = risk(record)
                assert confidence < 0.5
                assert (attributed, investigated, evaded) == (0, False, True)


class TestDeckMeasurement:
    def test_deck_runs_all_tests(self):
        for name in DECK_TECHNIQUES:
            env = build_environment(censored=True, seed=22)
            deck = technique_factory(name, cover=11)(env)
            assert isinstance(deck, DeckMeasurement)
            assert deck.name == name
            assert len(deck.parts) == 3
            deck.start()
            env.run(duration=60.0)
            assert deck.done
            assert all(part.results for part in deck.parts)
            # one result list, in emission order, holding every part's results
            assert len(deck.results) == sum(len(part.results) for part in deck.parts)
            times = [result.time for result in deck.results]
            assert times == sorted(times)

    def test_json_document(self):
        # What ``repro deck --json`` prints: the point's record rows, the
        # deck's risk stamped on each.
        rows = deck_records("stealthy")["censored"][0]["records"]
        parsed = [json.loads(json.dumps(row)) for row in rows]
        assert parsed == rows
        assert {row["technique"] for row in parsed} == {"deck-stealthy"}
        assert all(any(domain in row["target"] for domain in DECK_TARGETS)
                   for row in parsed)
        assert all(row["evaded"] is True for row in parsed)
