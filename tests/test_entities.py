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
)
from hyperhop.errors import ContractError, ExtractionError


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
        cache_path = tmp_path / "extraction.jsonl"

        class CountingExtractor(OfflineEntityExtractor):
            calls = 0

            def extract(self, title, text):
                CountingExtractor.calls += 1
                return super().extract(title, text)

        first = extract_corpus_entities(
            passages, CountingExtractor(), ExtractionCache(cache_path, "o")
        )
        assert CountingExtractor.calls == 2

        second = extract_corpus_entities(
            passages, CountingExtractor(), ExtractionCache(cache_path, "o")
        )
        assert CountingExtractor.calls == 2  # cache hits only
        assert first == second

    def test_cache_file_round_trips(self, tmp_path, data_dir):
        path = data_dir / "toy_extraction.jsonl"
        cache = ExtractionCache(path, OfflineEntityExtractor.extractor_id)
        by_id = {p.id: p for p in load_corpus(data_dir / "toy_corpus.jsonl")}
        assert cache.get(by_id["P2"]) == ["germany", "berlin", "european union"]
        assert cache.get(Passage(id="missing", title="", text="x")) is None

    def test_open_makes_equal_names_one_object(self, data_dir):
        path = data_dir / "toy_extraction.jsonl"
        cache = ExtractionCache(path, OfflineEntityExtractor.extractor_id)
        by_id = {p.id: p for p in load_corpus(data_dir / "toy_corpus.jsonl")}
        assert cache.get(by_id["P1"])[1] is cache.get(by_id["P2"])[0]  # "germany"

    def test_concurrent_extraction_preserves_order(self):
        passages = [Passage(id=f"p{i}", title="", text=f"City{i} is nice.") for i in range(8)]
        sets = extract_corpus_entities(passages, OfflineEntityExtractor(), max_workers=4)
        assert [es.passage_id for es in sets] == [p.id for p in passages]
        assert sets[3].entities == ("city3",)

    def test_cache_writes_are_serialized(self, tmp_path):
        cache = ExtractionCache(tmp_path / "c.jsonl", "x")

        def put(i):
            cache.put(Passage(id=f"p{i}", title="", text=f"t{i}"), [f"e{i}"])

        threads = [threading.Thread(target=put, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        cache.flush()
        reloaded = ExtractionCache(tmp_path / "c.jsonl", "x")
        assert len(reloaded) == 16
        assert reloaded.get(Passage(id="p3", title="", text="t3")) == ["e3"]


class TestStaleExtractionEntries:
    """An entry serves only the title, text and extractor it was made from."""

    PASSAGE = Passage(id="p1", title="T", text="Berlin is big.")

    def cache_with_entry(self, tmp_path):
        cache = ExtractionCache(tmp_path / "c.jsonl", "offline")
        cache.put(self.PASSAGE, ["berlin"])
        cache.flush()
        return tmp_path / "c.jsonl"

    @pytest.mark.parametrize(
        "passage",
        [
            Passage(id="p1", title="T", text="Paris is old."),  # text edited
            Passage(id="p1", title="U", text="Berlin is big."),  # title edited
        ],
    )
    def test_edited_passage_is_a_miss(self, tmp_path, passage):
        cache = ExtractionCache(self.cache_with_entry(tmp_path), "offline")
        assert cache.get(self.PASSAGE) == ["berlin"]
        assert cache.get(passage) is None

    def test_other_extractor_is_a_miss(self, tmp_path):
        cache = ExtractionCache(self.cache_with_entry(tmp_path), "remote:m:abc")
        assert cache.get(self.PASSAGE) is None

    def test_entry_without_a_content_hash_is_a_miss(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"passage_id": "p1", "entities": ["berlin"]}\n', encoding="utf-8")
        assert ExtractionCache(path, "offline").get(self.PASSAGE) is None

    def test_a_miss_replaces_the_stale_entry(self, tmp_path):
        path = self.cache_with_entry(tmp_path)
        edited = Passage(id="p1", title="T", text="Paris is old.")
        cache = ExtractionCache(path, "offline")
        extract_corpus_entities([edited], OfflineEntityExtractor(), cache)
        cache = ExtractionCache(path, "offline")
        assert len(cache) == 1
        assert cache.get(edited) == ["paris"]
        assert cache.get(self.PASSAGE) is None
