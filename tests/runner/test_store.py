"""CampaignStore: journal format, torn tails, spec-hash invalidation."""

import functools
import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import CampaignStore, SweepRunner, SweepSpec


HASH = "0123456789abcdef"


def record(index, status="ok"):
    return {"index": index, "status": status, "params": {"index": index}}


def read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


class TestJournalFormat:
    def test_fresh_store_writes_header(self, tmp_path):
        path = str(tmp_path / "c.journal.jsonl")
        with CampaignStore(path, HASH):
            pass
        (header,) = [json.loads(line) for line in read_lines(path)]
        assert header["kind"] == "header"
        assert header["spec_hash"] == HASH
        assert header["schema"] == 3

    def test_append_writes_canonical_point_lines(self, tmp_path):
        path = str(tmp_path / "c.journal.jsonl")
        with CampaignStore(path, HASH) as store:
            store.append(record(3))
            store.append(record(1, status="failed"))
        lines = read_lines(path)
        assert len(lines) == 3
        first = json.loads(lines[1])
        assert first == {"kind": "point", "index": 3, "executions": 1,
                         "record": record(3)}
        # canonical JSON: sorted keys, compact separators
        assert lines[1] == json.dumps(first, sort_keys=True,
                                      separators=(",", ":"))

    def test_done_excludes_failed_points(self, tmp_path):
        path = str(tmp_path / "c.journal.jsonl")
        with CampaignStore(path, HASH) as store:
            store.append(record(0))
            store.append(record(1, status="failed"))
        reloaded = CampaignStore(path, HASH, resume=True)
        assert reloaded.done() == {0}
        assert set(reloaded.records) == {0, 1}
        reloaded.close()

    def test_reexecution_supersedes_and_counts(self, tmp_path):
        path = str(tmp_path / "c.journal.jsonl")
        with CampaignStore(path, HASH) as store:
            store.append(record(4, status="failed"))
            store.append(record(4))  # the resume pass re-ran it
        reloaded = CampaignStore(path, HASH, resume=True)
        assert reloaded.records[4]["status"] == "ok"
        assert reloaded.executions[4] == 2
        reloaded.close()


class TestResumeLoading:
    def test_resume_restores_records(self, tmp_path):
        path = str(tmp_path / "c.journal.jsonl")
        with CampaignStore(path, HASH) as store:
            store.append(record(0))
            store.append(record(2))
        reloaded = CampaignStore(path, HASH, resume=True)
        assert reloaded.resumed
        assert reloaded.done() == {0, 2}
        assert reloaded.records[2] == record(2)
        reloaded.close()

    def test_resume_missing_file_starts_fresh(self, tmp_path):
        path = str(tmp_path / "nope.journal.jsonl")
        store = CampaignStore(path, HASH, resume=True)
        assert not store.resumed
        assert store.records == {}
        store.close()
        assert read_lines(path)  # fresh header written

    def test_resume_false_truncates_existing_journal(self, tmp_path):
        path = str(tmp_path / "c.journal.jsonl")
        with CampaignStore(path, HASH) as store:
            store.append(record(0))
        with CampaignStore(path, HASH, resume=False) as store:
            assert store.records == {}
        assert len(read_lines(path)) == 1  # header only

    def test_appends_continue_after_resume(self, tmp_path):
        path = str(tmp_path / "c.journal.jsonl")
        with CampaignStore(path, HASH) as store:
            store.append(record(0))
        with CampaignStore(path, HASH, resume=True) as store:
            store.append(record(1))
        reloaded = CampaignStore(path, HASH, resume=True)
        assert reloaded.done() == {0, 1}
        reloaded.close()


class TestTornTail:
    def test_truncated_last_line_is_dropped(self, tmp_path):
        path = str(tmp_path / "c.journal.jsonl")
        with CampaignStore(path, HASH) as store:
            store.append(record(0))
            store.append(record(1))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind":"point","index":2,"executions":1,"rec')
        store = CampaignStore(path, HASH, resume=True)
        assert store.done() == {0, 1}
        # the torn bytes were truncated away, so appending keeps the
        # journal parseable end to end
        store.append(record(2))
        store.close()
        assert all(json.loads(line) for line in read_lines(path))

    def test_unparseable_middle_line_drops_the_rest(self, tmp_path):
        path = str(tmp_path / "c.journal.jsonl")
        with CampaignStore(path, HASH) as store:
            store.append(record(0))
            store.append(record(1))
        lines = read_lines(path)
        corrupted = [lines[0], lines[1], "!garbage!", lines[2]]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(corrupted) + "\n")
        store = CampaignStore(path, HASH, resume=True)
        # everything from the first bad byte on is untrusted
        assert store.done() == {0}
        store.close()


class TestMalformedPointLines:
    """A point line with a mistyped field ends the valid prefix exactly
    like a torn line: loading never raises, and the lines before it
    still resume."""

    @pytest.mark.parametrize("entry", [
        {"kind": "point"},
        {"kind": "point", "index": "x", "executions": 1, "record": record(1)},
        {"kind": "point", "index": 1, "executions": 1},
        {"kind": "point", "index": 1, "executions": None, "record": record(1)},
        {"kind": "point", "index": 1, "executions": 1, "record": [1]},
        {"kind": "point", "index": 1, "executions": 1, "record": record(7)},
    ])
    def test_bad_point_line_ends_the_valid_prefix(self, tmp_path, entry):
        path = str(tmp_path / "c.journal.jsonl")
        with CampaignStore(path, HASH) as store:
            store.append(record(0))
        lines = read_lines(path)
        tail = [json.dumps(entry), lines[1].replace('"index":0', '"index":2')]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines + tail) + "\n")
        store = CampaignStore(path, HASH, resume=True)
        assert store.resumed
        assert store.done() == {0}
        assert store.executions == {0: 1}
        store.close()
        assert len(read_lines(path)) == 2  # the bad line and after: truncated


@functools.lru_cache(maxsize=None)
def real_journal_lines():
    """The lines of a journal written by a real two-point campaign."""
    spec = SweepSpec(name="fuzz", base_seed=3, seeds=(0, 1), loss_rates=(0.0,),
                     retry_policies=("single-shot",), port_count=5, duration=10.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/fuzz.journal.jsonl"
        with CampaignStore(path, HASH) as store:
            SweepRunner(spec, serial=True, store=store).run()
        return tuple(read_lines(path))


ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
    st.text(max_size=3), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)

MUTATIONS = st.tuples(
    st.sampled_from(["drop", "retype", "drop-in-record", "retype-in-record"]),
    st.sampled_from(["kind", "index", "executions", "record", "status"]),
    ODD_VALUES,
)


def mutate(entry, kind, key, value):
    target = entry
    if kind.endswith("-in-record"):
        if type(entry.get("record")) is not dict:
            return
        target = entry["record"]
    if kind.startswith("drop"):
        target.pop(key, None)
    else:
        target[key] = value


class TestJournalFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_real_journal_never_raises(self, tmp_path_factory, data):
        lines = list(real_journal_lines())
        assert len(lines) == 3  # header + one line per point
        entries = [json.loads(line) for line in lines]
        mutated = data.draw(st.dictionaries(
            st.integers(1, len(lines) - 1),
            st.lists(MUTATIONS, min_size=1, max_size=3), min_size=1,
        ))
        for number, mutations in mutated.items():
            for kind, key, value in mutations:
                mutate(entries[number], kind, key, value)
        path = str(tmp_path_factory.mktemp("journal") / "c.journal.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for entry in entries:
                fh.write(json.dumps(entry) + "\n")

        store = CampaignStore(path, HASH, resume=True)
        store.done()
        store.close()
        assert set(store.executions) == set(store.records)
        for index, loaded in store.records.items():
            assert type(loaded) is dict
            assert loaded["index"] == index
            assert type(store.executions[index]) is int
        # every untouched point line before the first mutation still loads
        for number in range(1, min(mutated)):
            assert entries[number]["index"] in store.records


class TestSpecHashInvalidation:
    def test_mismatched_hash_discards_checkpoint(self, tmp_path):
        path = str(tmp_path / "c.journal.jsonl")
        with CampaignStore(path, HASH) as store:
            store.append(record(0))
        store = CampaignStore(path, "feedfacefeedface", resume=True)
        assert not store.resumed
        assert store.records == {}
        store.close()
        header = json.loads(read_lines(path)[0])
        assert header["spec_hash"] == "feedfacefeedface"

    def test_schema_2_journal_discarded_on_resume(self, tmp_path):
        path = str(tmp_path / "c.journal.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "header", "schema": 2,
                                 "spec_hash": HASH}) + "\n")
            fh.write(json.dumps({"kind": "point", "index": 0, "executions": 1,
                                 "record": dict(record(0), results=[])}) + "\n")
        store = CampaignStore(path, HASH, resume=True)
        assert not store.resumed
        assert store.records == {}
        store.close()
        (header,) = [json.loads(line) for line in read_lines(path)]
        assert header["schema"] == 3

    def test_missing_header_discards_checkpoint(self, tmp_path):
        path = str(tmp_path / "c.journal.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "point", "index": 0,
                                 "record": record(0)}) + "\n")
        store = CampaignStore(path, HASH, resume=True)
        assert store.records == {}
        store.close()

    def test_spec_hash_tracks_grid_identity(self):
        base = dict(name="h", seeds=(0, 1), loss_rates=(0.0,),
                    retry_policies=("single-shot",))
        same = SweepSpec(**base).content_hash()
        assert SweepSpec(**base).content_hash() == same
        assert SweepSpec(**{**base, "seeds": (0, 2)}).content_hash() != same
        assert SweepSpec(**{**base, "port_count": 7}).content_hash() != same
