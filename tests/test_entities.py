import json
import shutil
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperhop.corpus import Passage, load_corpus
from hyperhop.entities import (
    EntityCatalog,
    EntitySet,
    ExtractionCache,
    OfflineEntityExtractor,
    build_catalog,
    dedup_normalized,
    extract_corpus_entities,
    extract_entities,
    normalize_entity,
    passage_sha256,
)
from hyperhop.errors import ContractError, CorpusFormatError, ExtractionError


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


class TestCatalog:
    def test_first_seen_order(self):
        sets = [EntitySet("p1", ("a", "b")), EntitySet("p2", ("b", "c"))]
        catalog = build_catalog(sets)
        assert [catalog.index_of(e) for e in ("a", "b", "c")] == [0, 1, 2]

    def test_all_empty(self):
        assert len(build_catalog([EntitySet("p1", ()), EntitySet("p2", ())])) == 0

    def test_union_semantics(self):
        sets = [EntitySet(f"p{i}", ("x",)) for i in range(3)]
        assert len(build_catalog(sets)) == 1

    def test_round_trip(self):
        catalog = EntityCatalog(["alpha", "beta", "gamma"])
        for i, entity in enumerate(catalog.to_list()):
            assert catalog.index_of(entity) == i

    def test_repeats_keep_their_first_position(self):
        catalog = EntityCatalog(["b", "a", "b", "c"])
        assert catalog.to_list() == ["b", "a", "c"]
        assert catalog.index_of("c") == 2

    @given(st.lists(st.text(min_size=1, max_size=8), max_size=30))
    def test_round_trip_random(self, raws):
        entities = dedup_normalized(raws)
        catalog = EntityCatalog(entities)
        assert len(catalog) == len(entities)
        for i, entity in enumerate(catalog.to_list()):
            assert catalog.index_of(entity) == i


class TestEntitySet:
    def test_rejects_duplicates(self):
        with pytest.raises(ContractError):
            EntitySet("p1", ("a", "a"))

    def test_rejects_unnormalized(self):
        with pytest.raises(ContractError):
            EntitySet("p1", ("Albert",))

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
            EntitySet("p1", entities)
        assert str(excinfo.value) == message


def cached(cache, passage):
    return cache.get(passage_sha256(passage))


def test_dedup_keeps_the_first_position_of_each_normalized_name():
    assert dedup_normalized(["B", " b", "A", "", "a ", "B", "C"]) == ["b", "a", "c"]


class TestOfflineExtractor:
    def test_capitalized_spans(self):
        ex = OfflineEntityExtractor()
        raw = ex.extract("", "Albert Einstein moved from Ulm, Germany to Princeton.")
        assert raw == ["Albert Einstein", "Ulm", "Germany", "Princeton"]

    def test_no_proper_nouns(self):
        passage = Passage(id="p", title="", text="nothing but plain words here.")
        es = extract_entities(passage, OfflineEntityExtractor())
        assert es.entities == ()

    def test_stopword_initial_tokens_excluded(self):
        ex = OfflineEntityExtractor()
        assert ex.extract("", "The European Union met. He said so. What happened?") == [
            "European Union"
        ]

    def test_duplicate_mentions_dedup(self):
        passage = Passage(id="p", title="", text="Germany borders Austria. Germany is large.")
        es = extract_entities(passage, OfflineEntityExtractor())
        assert es.entities.count("germany") == 1


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

        first = extract_corpus_entities(
            passages, CountingExtractor(), ExtractionCache(cache_dir, "o")
        )
        assert CountingExtractor.calls == 2

        second = extract_corpus_entities(
            passages, CountingExtractor(), ExtractionCache(cache_dir, "o")
        )
        assert CountingExtractor.calls == 2  # cache hits only
        assert first == second

    def test_cache_file_round_trips(self, tmp_path, data_dir):
        shutil.copytree(data_dir / "toy_extraction", tmp_path / "extraction")
        records = tmp_path / "extraction" / "records.jsonl"
        before = records.read_bytes()
        cache = ExtractionCache(tmp_path / "extraction", OfflineEntityExtractor.extractor_id)
        by_id = {p.id: p for p in load_corpus(data_dir / "toy_corpus.jsonl")}
        assert cached(cache, by_id["P2"]) == ("germany", "berlin", "european union")
        assert cached(cache, Passage(id="missing", title="", text="x")) is None
        assert records.read_bytes() == before

    def test_open_makes_equal_names_one_object(self, tmp_path, data_dir):
        shutil.copytree(data_dir / "toy_extraction", tmp_path / "extraction")
        cache = ExtractionCache(tmp_path / "extraction", OfflineEntityExtractor.extractor_id)
        by_id = {p.id: p for p in load_corpus(data_dir / "toy_corpus.jsonl")}
        germany = cached(cache, by_id["P1"])[1]
        assert germany == "germany" and germany is cached(cache, by_id["P2"])[0]

    def test_concurrent_extraction_preserves_order(self):
        passages = [Passage(id=f"p{i}", title="", text=f"City{i} is nice.") for i in range(8)]
        sets = extract_corpus_entities(passages, OfflineEntityExtractor(), max_workers=4)
        assert [es.passage_id for es in sets] == [p.id for p in passages]
        assert sets[3].entities == ("city3",)

    def test_cache_writes_are_serialized(self, tmp_path):
        cache = ExtractionCache(tmp_path / "c", "x")

        def put(i):
            cache.put(f"key{i}", [f"e{i}"])

        threads = [threading.Thread(target=put, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        cache.flush()
        lines = (tmp_path / "c" / "records.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 16 and all(json.loads(line) for line in lines)
        reloaded = ExtractionCache(tmp_path / "c", "x")
        for i in range(16):
            assert reloaded.get(f"key{i}") == (f"e{i}",)


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
    return extract_corpus_entities(
        passages, OfflineEntityExtractor(), ExtractionCache(directory, "o")
    )


class TestAppendOnlyExtractionCache:
    PASSAGES = [Passage(id=f"p{i}", title="", text=f"City{i} is nice.") for i in range(6)]

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_a_failed_build_keeps_its_extraction_work(self, tmp_path, max_workers):
        texts = [p.text for p in self.PASSAGES]
        failing = FailsOnOnePassage(failing=texts[3])
        with pytest.raises(ExtractionError):
            extract_corpus_entities(
                self.PASSAGES, failing, ExtractionCache(tmp_path, "o"), max_workers
            )
        assert texts[3] not in failing.extracted
        if max_workers == 1:
            assert failing.extracted == texts[:3]

        rerun = FailsOnOnePassage()
        sets = extract_corpus_entities(
            self.PASSAGES, rerun, ExtractionCache(tmp_path, "o"), max_workers
        )
        assert sorted(rerun.extracted) == sorted(set(texts) - set(failing.extracted))
        assert sets == extract_corpus_entities(self.PASSAGES, OfflineEntityExtractor())

    @pytest.mark.parametrize("cut", [1, 20], ids=["newline", "part-of-the-line"])
    def test_torn_tail_is_truncated_and_only_its_passage_extracted_again(self, tmp_path, cut):
        build(self.PASSAGES, tmp_path)
        records = tmp_path / "records.jsonl"
        whole = records.read_bytes()
        records.write_bytes(whole[:-cut])

        cache = ExtractionCache(tmp_path, "o")
        assert records.read_bytes() == b"".join(whole.splitlines(keepends=True)[:-1])
        extractor = FailsOnOnePassage()
        extract_corpus_entities(self.PASSAGES, extractor, cache)
        assert extractor.extracted == [self.PASSAGES[-1].text]
        assert records.read_bytes() == whole

    def test_a_miss_appends_and_a_hit_writes_nothing(self, tmp_path):
        build(self.PASSAGES, tmp_path)
        records = tmp_path / "records.jsonl"
        before = records.read_bytes()
        edited = list(self.PASSAGES)
        edited[2] = Passage(id="p2", title="", text="Lyon is old.")
        build(edited, tmp_path)
        after = records.read_bytes()
        assert after.startswith(before)
        assert json.loads(after[len(before):]) == {
            "passage_sha256": passage_sha256(edited[2]), "entities": ["lyon"]
        }
        build(edited, tmp_path)
        assert records.read_bytes() == after

    def test_the_last_entry_of_a_repeated_key_wins(self, tmp_path):
        passage = self.PASSAGES[0]
        ExtractionCache(tmp_path, "o")
        line = {"passage_sha256": passage_sha256(passage)}
        (tmp_path / "records.jsonl").write_text(
            "".join(json.dumps({**line, "entities": [e]}) + "\n" for e in ("a", "b")),
            encoding="utf-8",
        )
        assert cached(ExtractionCache(tmp_path, "o"), passage) == ("b",)

    def test_manifest_names_the_extractor_and_is_never_rewritten(self, tmp_path):
        ExtractionCache(tmp_path, "o")
        manifest = tmp_path / "manifest.json"
        assert manifest.read_bytes() == b'{"extractor_id": "o"}'
        before = (manifest.stat().st_mtime_ns, manifest.stat().st_ino)
        build(self.PASSAGES, tmp_path)
        assert (manifest.stat().st_mtime_ns, manifest.stat().st_ino) == before


class TestStaleExtractionEntries:
    """An entry serves only the title, text and extractor it was made from."""

    PASSAGE = Passage(id="p1", title="T", text="Berlin is big.")

    def cache_with_entry(self, tmp_path):
        cache = ExtractionCache(tmp_path / "c", "offline")
        cache.put(passage_sha256(self.PASSAGE), ["berlin"])
        cache.flush()
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
        assert (directory / "records.jsonl").read_bytes() == b""
        assert json.loads((directory / "manifest.json").read_text()) == {
            "extractor_id": "remote:m:abc"
        }
        assert cached(ExtractionCache(directory, "offline"), self.PASSAGE) is None

    @pytest.mark.parametrize(
        "manifest", [b"{not json", b"", b'{"extractor_id": "offline", "v": 1}']
    )
    def test_other_manifest_wipes_the_cache(self, tmp_path, manifest):
        directory = self.cache_with_entry(tmp_path)
        (directory / "manifest.json").write_bytes(manifest)
        assert cached(ExtractionCache(directory, "offline"), self.PASSAGE) is None
        assert (directory / "records.jsonl").read_bytes() == b""

    def test_entry_without_a_content_hash_is_rejected(self, tmp_path):
        directory = self.cache_with_entry(tmp_path)
        with (directory / "records.jsonl").open("a", encoding="utf-8") as fh:
            fh.write('{"passage_id": "p1", "entities": ["berlin"]}\n')
        with pytest.raises(CorpusFormatError, match="records.jsonl: line 2: an entry needs"):
            ExtractionCache(directory, "offline")

    def test_a_miss_keeps_the_stale_entry(self, tmp_path):
        directory = self.cache_with_entry(tmp_path)
        edited = Passage(id="p1", title="T", text="Paris is old.")
        cache = ExtractionCache(directory, "offline")
        extract_corpus_entities([edited], OfflineEntityExtractor(), cache)
        cache = ExtractionCache(directory, "offline")
        assert cached(cache, edited) == ("paris",)
        assert cached(cache, self.PASSAGE) == ("berlin",)  # right for the old text
