import gc
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperhop import entities
from hyperhop.corpus import Passage, load_corpus, passage_sha256
from hyperhop.embeddings import text_key
from hyperhop.entities import (
    EntitySets,
    ExtractionCache,
    OfflineEntityExtractor,
    dedup_normalized,
    distinct,
    extract_entities,
    normalize_entity,
)
from hyperhop.errors import ContractError, ExtractionError

from conftest import corpus_of, entity_sets_of, extract_through

CACHE_FILES = ("names.txt", "keys.bin", "ids.bin", "entries.bin")  # in the order of an append


class TestNormalizeEntity:
    def test_collapses_whitespace_and_case(self):
        assert normalize_entity("Albert  Einstein ") == "albert einstein"

    def test_lowercases(self):
        assert normalize_entity("GERMANY") == "germany"

    def test_blank_is_drop_signal(self):
        assert normalize_entity("  ") == ""

    def test_nfc_normalization(self):
        composed = "café"
        decomposed = "café"
        assert normalize_entity(decomposed) == composed

    @given(st.text(max_size=40))
    def test_idempotent(self, raw):
        once = normalize_entity(raw)
        assert normalize_entity(once) == once


@st.composite
def shuffled_entity_sets(draw):
    """EntitySets over a shuffled table of names, some of which no passage uses."""
    names = draw(st.permutations([f"e{i}" for i in range(draw(st.integers(1, 12)))]))
    name_ids = st.lists(st.integers(0, len(names) - 1), unique=True, max_size=5)
    spans = draw(st.lists(name_ids, max_size=6))
    ids = np.array([i for span in spans for i in span], dtype=np.intp)
    offsets = np.cumsum([0, *map(len, spans)])
    return EntitySets([f"p{j}" for j in range(len(spans))], names, ids, offsets)


class TestCatalog:
    def test_first_seen_order(self):
        assert entity_sets_of({"p1": ["a", "b"], "p2": ["b", "c"]}).catalog == ["a", "b", "c"]

    def test_first_seen_order_follows_the_passages_not_the_names_table(self):
        offsets = np.array([0, 2, 4])
        sets = EntitySets(["p1", "p2"], ["c", "b", "a"], np.array([2, 1, 1, 0]), offsets)
        assert sets.catalog == ["a", "b", "c"]
        assert sets.rows.tolist() == [0, 1, 1, 2]

    def test_all_empty(self):
        sets = entity_sets_of({"p1": [], "p2": []})
        assert sets.catalog == [] and sets.rows.size == 0

    def test_union_semantics(self):
        assert entity_sets_of({f"p{i}": ["x"] for i in range(3)}).catalog == ["x"]

    @given(shuffled_entity_sets())
    def test_catalog_and_rows_follow_one_definition(self, sets):
        names, ids = sets.names, sets.ids.tolist()
        assert sets.catalog == list(dict.fromkeys(names[i] for i in ids))
        assert [sets.catalog[row] for row in sets.rows.tolist()] == [names[i] for i in ids]


class TestEntitySet:
    """The checks EntitySets makes of each passage's entities."""

    def test_rejects_duplicates(self):
        with pytest.raises(ContractError):
            entity_sets_of({"p1": ["a", "a"]})

    def test_rejects_unnormalized(self):
        with pytest.raises(ContractError):
            entity_sets_of({"p1": ["Albert"]})

    @pytest.mark.parametrize(
        "entities, message",
        [
            (("a", ""), "empty entity in set for passage 'p1'"),
            (("a", "Bb", "a", ""), "entity 'Bb' is not normalized"),
            (("a", "b", "a", ""), "duplicate entity 'a' in passage 'p1'"),
        ],
    )
    def test_names_the_first_offending_entity(self, entities, message):
        with pytest.raises(ContractError) as excinfo:
            entity_sets_of({"p0": ["a", "b"], "p1": entities, "p2": ["", "c", "c"]})
        assert str(excinfo.value) == message

    def test_a_name_no_passage_uses_is_not_checked(self):
        sets = EntitySets(["p1"], ["Bad", "", "a", "a"], np.array([2]), np.array([0, 1]))
        assert sets.entities(0) == ("a",)

    @pytest.mark.parametrize(
        "n_passages, names, ids, offsets, message",
        [
            (1, ["a"], [1], [0, 1], "entity sets: id 1 is not one of 1 names"),
            (1, ["a"], [-1], [0, 1], "entity sets: id -1 is not one of 1 names"),
            (3, ["a", "b"], [0, 1], [0, 2, 1, 2], "offsets do not frame 2 ids into 3 passages"),
            (2, ["a"], [0], [0, 1], "offsets do not frame 1 ids into 2 passages"),
            (1, ["a"], [0], [1, 1], "offsets do not frame 1 ids into 1 passages"),
            (1, ["a", "b"], [0, 1], [0, 1], "offsets do not frame 2 ids into 1 passages"),
            (2, ["a", "a"], [0, 1], [0, 1, 2], "entity sets: the name 'a' has two ids"),
            (1, ["a", "a"], [0, 1], [0, 2], "duplicate entity 'a' in passage 'p0'"),
        ],
        ids=[
            "id-past-the-names",
            "negative-id",
            "decreasing-offsets",
            "fewer-spans-than-passages",
            "offsets-not-from-0",
            "offsets-short-of-the-ids",
            "a-name-with-two-ids",
            "a-name-twice-in-a-passage",
        ],
    )
    def test_framing_and_names_are_checked(self, n_passages, names, ids, offsets, message):
        pids = [f"p{j}" for j in range(n_passages)]
        with pytest.raises(ContractError) as excinfo:
            EntitySets(pids, names, np.array(ids, dtype=np.intp), np.array(offsets))
        assert message in str(excinfo.value)


def test_distinct_compares_the_values_that_share_a_hash():
    # In CPython hash(-1) == hash(-2): a clash of two values that differ.
    assert distinct([]) and distinct(["a", "b"]) and distinct([-1, -2, 5])
    assert not distinct(["a", "b", "a"]) and not distinct([-1, -2, -1])


def cached(cache, passage):
    """The entities the cache holds for the passage's content; None on a miss."""
    entries = cache.lookup([passage_sha256(passage.title, passage.text)])
    return None if entries[0] < 0 else cache.entity_sets([passage.id], entries).entities(0)


def listed(entity_sets):
    return [(pid, entity_sets.entities(j)) for j, pid in enumerate(entity_sets.passage_ids)]


def files(directory):
    return {name: (directory / name).read_bytes() for name in CACHE_FILES}


def test_dedup_keeps_the_first_position_of_each_normalized_name():
    assert dedup_normalized(["B", " b", "A", "", "a ", "B", "C"]) == ["b", "a", "c"]


class TestOfflineExtractor:
    def test_capitalized_spans(self):
        ex = OfflineEntityExtractor()
        raw = ex.extract("", "Albert Einstein moved from Ulm, Germany to Princeton.")
        assert raw == ["Albert Einstein", "Ulm", "Germany", "Princeton"]

    def test_no_proper_nouns(self):
        passage = Passage(id="p", title="", text="nothing but plain words here.")
        assert extract_entities(passage, OfflineEntityExtractor()) == []

    def test_stopword_initial_tokens_excluded(self):
        ex = OfflineEntityExtractor()
        assert ex.extract("", "The European Union met. He said so. What happened?") == [
            "European Union"
        ]

    def test_duplicate_mentions_dedup(self):
        passage = Passage(id="p", title="", text="Germany borders Austria. Germany is large.")
        assert extract_entities(passage, OfflineEntityExtractor()).count("germany") == 1


class FailingNTimesExtractor:
    def __init__(self, failures: int, result=("Berlin",)):
        self.failures = failures
        self.calls = 0
        self.result = list(result)

    def extract(self, title, text):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError("boom")
        return self.result


class TestExtractionRetryAndCache:
    def test_exhausted_retries_carry_passage_id(self):
        passage = Passage(id="p9", title="", text="x")
        extractor = FailingNTimesExtractor(failures=10)
        with pytest.raises(ExtractionError) as excinfo:
            extract_entities(passage, extractor)
        assert excinfo.value.passage_id == "p9"
        assert extractor.calls == 1  # retrying is the transport's job

    def test_cache_fidelity_zero_extractor_calls(self, tmp_path):
        passages = [
            Passage(id="p1", title="", text="Berlin is big."),
            Passage(id="p2", title="", text="Paris is old."),
        ]
        cache_dir = tmp_path / "extraction"

        class CountingExtractor(OfflineEntityExtractor):
            calls = 0

            def extract(self, title, text):
                CountingExtractor.calls += 1
                return super().extract(title, text)

        first = extract_through(ExtractionCache(cache_dir, "o"), passages, CountingExtractor())
        assert CountingExtractor.calls == 2

        second = extract_through(ExtractionCache(cache_dir, "o"), passages, CountingExtractor())
        assert CountingExtractor.calls == 2  # cache hits only
        assert listed(first) == listed(second) == [("p1", ("berlin",)), ("p2", ("paris",))]

    def toy_cache(self, directory, data_dir):
        passages = load_corpus(data_dir / "toy_corpus.jsonl")
        extract_through(ExtractionCache(directory, OfflineEntityExtractor.extractor_id), passages)
        return {p.id: p for p in passages}

    def test_cache_file_round_trips(self, tmp_path, data_dir):
        by_id = self.toy_cache(tmp_path, data_dir)
        before = files(tmp_path)
        cache = ExtractionCache(tmp_path, OfflineEntityExtractor.extractor_id)
        assert cached(cache, by_id["P2"]) == ("germany", "berlin", "european union")
        assert cached(cache, Passage(id="missing", title="", text="x")) is None
        assert files(tmp_path) == before
        assert before["names.txt"].decode().splitlines() == [
            "albert einstein", "germany", "berlin", "european union", "brussels"
        ]
        assert np.frombuffer(before["ids.bin"], "<i4").tolist() == [0, 1, 1, 2, 3, 3, 4]

    def test_open_makes_equal_names_one_object(self, tmp_path, data_dir):
        by_id = self.toy_cache(tmp_path, data_dir)
        cache = ExtractionCache(tmp_path, OfflineEntityExtractor.extractor_id)
        germany = cached(cache, by_id["P1"])[1]
        assert germany == "germany" and germany is cached(cache, by_id["P2"])[0]
        assert cache.names.count("germany") == 1

    def test_concurrent_extraction_preserves_order(self, tmp_path):
        passages = [Passage(id=f"p{i}", title="", text=f"City{i} is nice.") for i in range(8)]
        sets = extract_through(ExtractionCache(tmp_path, "o"), passages, max_workers=4)
        assert sets.passage_ids == [p.id for p in passages]
        assert sets.entities(3) == ("city3",)

    def test_workers_that_finish_out_of_order_write_the_serial_bytes(self, tmp_path):
        passages = [Passage(id=f"p{i}", title="", text=f"City{i} is nice.") for i in range(4)]
        extract_through(ExtractionCache(tmp_path / "serial", "o"), passages)
        last_first = LaterPassagesFirst(len(passages))
        sets = extract_through(
            ExtractionCache(tmp_path / "workers", "o"), passages, last_first, max_workers=4
        )
        assert last_first.finished == [3, 2, 1, 0]
        assert files(tmp_path / "workers") == files(tmp_path / "serial")
        assert (tmp_path / "serial" / "names.txt").read_text().split() == [
            "city0", "city1", "city2", "city3"
        ]
        assert [sets.entities(j) for j in range(4)] == [(f"city{j}",) for j in range(4)]

    @pytest.mark.parametrize("key", [b"\x07" * 31 + b"\x00", bytes(32)], ids=["last", "all"])
    def test_a_key_ending_in_nul_bytes_round_trips(self, tmp_path, key):
        cache = ExtractionCache(tmp_path, "x")
        cache.append([b"\x07" * 31 + b"\x01", key], [["other"], ["berlin"]])
        cache.close()
        reloaded = ExtractionCache(tmp_path, "x")
        assert reloaded.lookup([key, key[:31]]).tolist() == [1, -1]
        assert reloaded.entity_sets(["p"], reloaded.lookup([key])).entities(0) == ("berlin",)

    def test_a_warm_hit_makes_no_container_object(self, tmp_path):
        """The collector tracks no object per hit: a warm pass over 2000
        passages adds as many tracked objects as one over 20."""
        passages = [Passage(f"p{i}", "", f"City{i} met Town{i % 7}.") for i in range(2000)]
        extract_through(ExtractionCache(tmp_path, "o"), passages)

        def tracked_growth(corpus):
            cache = ExtractionCache(tmp_path, "o")
            gc.collect()
            gc.disable()
            try:
                before = len(gc.get_objects())
                sets = extract_through(cache, corpus)
                return len(gc.get_objects()) - before, sets
            finally:
                gc.enable()

        small, _ = tracked_growth(corpus_of(passages[:20]))
        large, sets = tracked_growth(corpus_of(passages))
        assert sets.entities(1999) == ("city1999", "town4")
        assert large == small


class LaterPassagesFirst(OfflineEntityExtractor):
    """Returns passage ``i`` of ``City{i} ...`` texts only once passage
    ``i + 1`` has returned, so workers at least as many as the ``n``
    passages finish them last to first; records the order they finish in."""

    def __init__(self, n):
        self.returned = [threading.Event() for _ in range(n)] + [threading.Event()]
        self.returned[n].set()
        self.finished = []

    def extract(self, title, text):
        i = int(text.split()[0].removeprefix("City"))
        assert self.returned[i + 1].wait(timeout=10), f"passage {i + 1} never returned"
        self.finished.append(i)
        self.returned[i].set()
        return super().extract(title, text)


class FailsOnOnePassage(OfflineEntityExtractor):
    """Fails on the passage whose text is ``failing``; records what it extracted."""

    def __init__(self, failing=None):
        self.failing = failing
        self.extracted = []

    def extract(self, title, text):
        if text == self.failing:
            raise RuntimeError("endpoint down")
        self.extracted.append(text)
        return super().extract(title, text)


def build(passages, directory):
    return extract_through(ExtractionCache(directory, "o"), passages)


class TestPooledExtraction:
    def test_many_workers_extract_each_passage_once(self, tmp_path, monkeypatch):
        """More workers than cores, switching threads as often as the
        interpreter allows: no extraction is lost or made twice, and the
        cache holds the serial bytes."""
        monkeypatch.setattr(entities, "_TASK_PASSAGES", 7)
        passages = [Passage(f"p{i}", "", f"City{i} met Town{i % 5}.") for i in range(300)]
        extract_through(ExtractionCache(tmp_path / "serial", "o"), passages)
        counting = FailsOnOnePassage()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sets = extract_through(
                ExtractionCache(tmp_path / "workers", "o"), passages, counting, max_workers=8
            )
        finally:
            sys.setswitchinterval(interval)
        assert sorted(counting.extracted) == sorted(p.text for p in passages)
        assert files(tmp_path / "workers") == files(tmp_path / "serial")
        assert sets.entities(299) == ("city299", "town4")

    def test_a_task_stops_before_its_next_passage_once_another_failed(self, tmp_path):
        """Four workers take two passages each. Passage 0 fails while the
        first passages of the other tasks are in flight: those finish, and
        no task starts its second passage."""
        passages = [Passage(f"p{i}", "", f"City{i} is nice.") for i in range(8)]
        in_flight = threading.Barrier(4, timeout=10)

        class FailsFirst(FailsOnOnePassage):
            called = []

            def extract(self, title, text):
                self.called.append(text)
                in_flight.wait()  # the first passages of the four tasks
                if text != self.failing:
                    time.sleep(0.2)  # the failed task is marked meanwhile
                return super().extract(title, text)

        extractor = FailsFirst(failing=passages[0].text)
        with pytest.raises(ExtractionError):
            extract_through(ExtractionCache(tmp_path, "o"), passages, extractor, max_workers=4)
        assert sorted(extractor.called) == [passages[i].text for i in (0, 2, 4, 6)]
        assert sorted(extractor.extracted) == [passages[i].text for i in (2, 4, 6)]
        rerun = FailsOnOnePassage()
        extract_through(ExtractionCache(tmp_path, "o"), passages, rerun, max_workers=4)
        assert sorted(rerun.extracted) == [passages[i].text for i in (0, 1, 3, 5, 7)]


class TestAppendOnlyExtractionCache:
    PASSAGES = [Passage(id=f"p{i}", title="", text=f"City{i} is nice.") for i in range(6)]

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_a_failed_build_keeps_its_extraction_work(self, tmp_path, max_workers):
        texts = [p.text for p in self.PASSAGES]
        failing = FailsOnOnePassage(failing=texts[3])
        with pytest.raises(ExtractionError):
            extract_through(ExtractionCache(tmp_path, "o"), self.PASSAGES, failing, max_workers)
        assert texts[3] not in failing.extracted
        if max_workers == 1:
            assert failing.extracted == texts[:3]

        rerun = FailsOnOnePassage()
        sets = extract_through(ExtractionCache(tmp_path, "o"), self.PASSAGES, rerun, max_workers)
        assert sorted(rerun.extracted) == sorted(set(texts) - set(failing.extracted))
        assert listed(sets) == listed(build(self.PASSAGES, tmp_path / "fresh"))

    @pytest.mark.parametrize("cut", ["one-byte", "all-but-one-byte"])
    @pytest.mark.parametrize("torn", CACHE_FILES)
    def test_torn_tail_is_truncated_and_only_its_passage_extracted_again(
        self, tmp_path, torn, cut
    ):
        """A crash in the last append tears one file and leaves the ones it
        writes later unwritten."""
        build(self.PASSAGES[:-1], tmp_path)
        before = files(tmp_path)
        build(self.PASSAGES, tmp_path)
        whole = files(tmp_path)
        for name in CACHE_FILES[CACHE_FILES.index(torn) :]:
            appended = len(whole[name]) - len(before[name])
            kept = len(before[name]) + (appended - 1 if cut == "one-byte" else 1)
            (tmp_path / name).write_bytes(whole[name][:kept] if name == torn else before[name])
        crashed = files(tmp_path)

        cache = ExtractionCache(tmp_path, "o")
        assert files(tmp_path) == crashed  # opening writes nothing
        extractor = FailsOnOnePassage()
        extract_through(cache, self.PASSAGES, extractor)
        assert extractor.extracted == [self.PASSAGES[-1].text]
        assert files(tmp_path) == whole

    def test_a_miss_appends_and_a_hit_writes_nothing(self, tmp_path):
        build(self.PASSAGES, tmp_path)
        before = files(tmp_path)
        edited = list(self.PASSAGES)
        edited[2] = Passage(id="p2", title="", text="Lyon is old.")
        build(edited, tmp_path)
        after = files(tmp_path)
        appended = {name: after[name][len(before[name]) :] for name in CACHE_FILES}
        assert all(after[name].startswith(before[name]) for name in CACHE_FILES)
        lyon = len(self.PASSAGES)  # one name per passage before it
        assert appended == {
            "names.txt": b"lyon\n",
            "keys.bin": text_key("lyon"),
            "ids.bin": np.int32(lyon).tobytes(),
            "entries.bin": passage_sha256(edited[2].title, edited[2].text) + np.uint32(1).tobytes(),
        }
        build(edited, tmp_path)
        assert files(tmp_path) == after

    @pytest.mark.parametrize("appends", [1, 2])
    def test_the_last_entry_of_a_repeated_key_wins(self, tmp_path, appends):
        passage = self.PASSAGES[0]
        cache = ExtractionCache(tmp_path, "o")
        key = passage_sha256(passage.title, passage.text)
        if appends == 1:
            cache.append([key, key], [["a"], ["b"]])
        else:
            cache.append([key], [["a"]])
            cache.append([key], [["b"]])
        assert len((tmp_path / "entries.bin").read_bytes()) == 2 * 36
        assert cached(cache, passage) == ("b",)
        cache.close()
        assert cached(ExtractionCache(tmp_path, "o"), passage) == ("b",)

    @pytest.mark.parametrize(
        "keys, entity_lists, message",
        [
            ([bytes(32), bytes(32).hex()], [["a"], ["b"]], "is a raw sha256"),  # the older key
            ([bytes(32), b"p1"], [["a"], ["b"]], "is a raw sha256"),  # a passage id
            ([bytes(32), bytes(31) + b"\x01"], [["a"], ["a", "B"]], "'B': not a normalized"),
            ([bytes(32)], [["a", ""]], "'': not a normalized"),
        ],
        ids=["hex-key", "passage-id-key", "unnormalized-name", "empty-name"],
    )
    def test_a_bad_key_or_name_appends_nothing(self, tmp_path, keys, entity_lists, message):
        build(self.PASSAGES, tmp_path)
        before = files(tmp_path)
        cache = ExtractionCache(tmp_path, "o")
        with pytest.raises(ContractError, match=message):
            cache.append(keys, entity_lists)
        assert files(tmp_path) == before
        assert cache.lookup([bytes(32)]).tolist() == [-1] and "a" not in cache.names

    def test_the_keys_keys_bin_lacks_are_computed_at_opening_and_written_by_append(
        self, tmp_path
    ):
        build(self.PASSAGES, tmp_path)
        whole = files(tmp_path)
        (tmp_path / "keys.bin").write_bytes(whole["keys.bin"][: 2 * 32 + 5])
        torn = files(tmp_path)
        cache = ExtractionCache(tmp_path, "o")
        assert files(tmp_path) == torn  # opening writes nothing
        assert cache.name_keys(np.array([5, 0, 5])) == [text_key(n) for n in ("city5", "city0", "city5")]
        cache.append([], [])
        assert files(tmp_path) == whole
        assert whole["keys.bin"] == b"".join(text_key(f"city{i}") for i in range(6))
        mtime = (tmp_path / "keys.bin").stat().st_mtime_ns
        cache.append([], [])  # nothing left to write
        assert (tmp_path / "keys.bin").stat().st_mtime_ns == mtime

    def test_manifest_names_the_extractor_and_is_never_rewritten(self, tmp_path):
        ExtractionCache(tmp_path, "o")
        manifest = tmp_path / "manifest.json"
        assert manifest.read_bytes() == b'{"extractor_id": "o", "layout": 2}'
        before = (manifest.stat().st_mtime_ns, manifest.stat().st_ino)
        build(self.PASSAGES, tmp_path)
        assert (manifest.stat().st_mtime_ns, manifest.stat().st_ino) == before


class TestStaleExtractionEntries:
    """An entry serves only the title, text and extractor it was made from."""

    PASSAGE = Passage(id="p1", title="T", text="Berlin is big.")

    def cache_with_entry(self, tmp_path):
        cache = ExtractionCache(tmp_path / "c", "offline")
        cache.append([passage_sha256(self.PASSAGE.title, self.PASSAGE.text)], [["berlin"]])
        return tmp_path / "c"

    @pytest.mark.parametrize(
        "passage",
        [
            Passage(id="p1", title="T", text="Paris is old."),  # text edited
            Passage(id="p1", title="U", text="Berlin is big."),  # title edited
        ],
    )
    def test_edited_passage_is_a_miss(self, tmp_path, passage):
        cache = ExtractionCache(self.cache_with_entry(tmp_path), "offline")
        assert cached(cache, self.PASSAGE) == ("berlin",)
        assert cached(cache, passage) is None

    def test_other_extractor_is_a_miss(self, tmp_path):
        directory = self.cache_with_entry(tmp_path)
        cache = ExtractionCache(directory, "remote:m:abc")
        assert cached(cache, self.PASSAGE) is None
        # Opening for another extractor wipes the cache.
        assert sorted(f.name for f in directory.iterdir()) == ["lock", "manifest.json"]
        assert (directory / "manifest.json").read_bytes() == (
            b'{"extractor_id": "remote:m:abc", "layout": 2}'
        )
        cache.close()
        assert cached(ExtractionCache(directory, "offline"), self.PASSAGE) is None

    @pytest.mark.parametrize(
        "manifest",
        [
            b"{not json",
            b"",
            b'{"extractor_id": "offline", "v": 1}',
            b'{"extractor_id": "offline"}',  # the older records.jsonl layout
        ],
    )
    def test_other_manifest_wipes_the_cache(self, tmp_path, manifest):
        directory = self.cache_with_entry(tmp_path)
        (directory / "manifest.json").write_bytes(manifest)
        assert cached(ExtractionCache(directory, "offline"), self.PASSAGE) is None
        assert sorted(f.name for f in directory.iterdir()) == ["lock", "manifest.json"]

    def test_a_miss_keeps_the_stale_entry(self, tmp_path):
        directory = self.cache_with_entry(tmp_path)
        edited = Passage(id="p1", title="T", text="Paris is old.")
        extract_through(ExtractionCache(directory, "offline"), [edited])
        cache = ExtractionCache(directory, "offline")
        assert cached(cache, edited) == ("paris",)
        assert cached(cache, self.PASSAGE) == ("berlin",)  # right for the old text
