import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperhop.embeddings import (
    EmbeddingCache,
    EmbeddingMatrix,
    OfflineEncoder,
    cosine_against_rows,
    embed_batch,
    max_sim_to_query_entities,
    unit_rows,
)
from hyperhop.errors import ContractError, EmbeddingError

from reference import cosine


class CountingEncoder(OfflineEncoder):
    """Offline encoder that counts encode calls, standing in for a remote one."""

    def __init__(self, dim=32):
        super().__init__(dim=dim)
        self.encoder_id = f"counting-d{dim}"
        self.calls = 0

    def encode_batch(self, texts):
        self.calls += 1
        return super().encode_batch(texts)


class TestOfflineEncoder:
    def test_identical_inputs_identical_rows(self):
        matrix = embed_batch(["berlin", "berlin"], OfflineEncoder(dim=64))
        assert matrix.rows == 2
        np.testing.assert_array_equal(matrix.values[0], matrix.values[1])

    def test_empty_input(self):
        matrix = embed_batch([], OfflineEncoder(dim=64))
        assert matrix.rows == 0 and matrix.dim == 64

    def test_unit_norm(self):
        matrix = embed_batch(["some text with words"], OfflineEncoder(dim=64))
        assert np.linalg.norm(matrix.values[0]) == pytest.approx(1.0, abs=1e-6)

    def test_tokenless_text_is_zero_vector(self):
        matrix = embed_batch(["?!?"], OfflineEncoder(dim=64))
        assert not matrix.values[0].any()

    def test_purity_across_instances(self):
        a = OfflineEncoder(dim=128).encode_batch(["Albert Einstein"])
        b = OfflineEncoder(dim=128).encode_batch(["Albert Einstein"])
        assert a.tobytes() == b.tobytes()

    @given(st.text(max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_purity_property(self, text):
        enc = OfflineEncoder(dim=32)
        assert enc.encode_batch([text]).tobytes() == enc.encode_batch([text]).tobytes()


class TestCosine:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector_convention(self):
        assert cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ContractError):
            cosine(np.zeros(3), np.zeros(4))

    def test_rows_variant_matches_scalar(self, rng):
        rows = rng.normal(size=(7, 5))
        rows[3] = 0.0  # zero row uses the zero convention
        q = rng.normal(size=5)
        sims = cosine_against_rows(q, unit_rows(rows))
        expected = [cosine(q, row) for row in rows]
        np.testing.assert_allclose(sims, expected, rtol=1e-12)


class TestMaxSim:
    def test_exact_match_scores_one(self):
        enc = OfflineEncoder(dim=64)
        corpus = embed_batch(["alpha", "beta", "gamma"], enc)
        query = embed_batch(["beta"], enc)
        v = max_sim_to_query_entities(query.values, unit_rows(corpus.values))
        assert v[1] == pytest.approx(1.0)

    def test_empty_query_entities(self):
        enc = OfflineEncoder(dim=64)
        corpus = embed_batch(["alpha", "beta"], enc)
        empty = np.empty((0, 64), dtype=np.float32)
        assert max_sim_to_query_entities(empty, unit_rows(corpus.values)).tolist() == [0.0, 0.0]

    def test_matches_pairwise_brute_force(self):
        enc = OfflineEncoder(dim=64)
        corpus = embed_batch(["red fox", "blue whale", "green tea"], enc)
        query = embed_batch(["green tea leaves", "blue deep whale"], enc)
        v = max_sim_to_query_entities(query.values, unit_rows(corpus.values))
        brute = [
            max(cosine(qrow, crow) for qrow in query.values) for crow in corpus.values
        ]
        np.testing.assert_allclose(v, brute, rtol=1e-6)

    def test_permutation_invariance_and_monotonicity(self, rng):
        enc = OfflineEncoder(dim=32)
        corpus = unit_rows(embed_batch([f"word{i}" for i in range(6)], enc).values)
        q1 = embed_batch(["alpha beta", "gamma"], enc).values
        q2 = embed_batch(["gamma", "alpha beta"], enc).values
        np.testing.assert_array_equal(
            max_sim_to_query_entities(q1, corpus), max_sim_to_query_entities(q2, corpus)
        )
        q3 = embed_batch(["gamma", "alpha beta", "word3"], enc).values
        assert (
            max_sim_to_query_entities(q3, corpus) >= max_sim_to_query_entities(q1, corpus) - 1e-12
        ).all()

    def test_dim_mismatch(self):
        a = embed_batch(["x"], OfflineEncoder(dim=16))
        b = embed_batch(["x"], OfflineEncoder(dim=32))
        with pytest.raises(ContractError):
            max_sim_to_query_entities(a.values, unit_rows(b.values))


class TestEmbeddingCache:
    def test_cache_fidelity_zero_client_calls(self, tmp_path):
        texts = ["one", "two", "three"]
        first_client = CountingEncoder()
        cache = EmbeddingCache(tmp_path, first_client.encoder_id, first_client.dim)
        first = embed_batch(texts, first_client, cache)
        assert first_client.calls == 1

        second_client = CountingEncoder()
        cache2 = EmbeddingCache(tmp_path, second_client.encoder_id, second_client.dim)
        second = embed_batch(texts, second_client, cache2)
        assert second_client.calls == 0
        assert first.values.tobytes() == second.values.tobytes()

    def test_cache_invalidated_on_encoder_change(self, tmp_path):
        client = CountingEncoder()
        cache = EmbeddingCache(tmp_path, client.encoder_id, client.dim)
        embed_batch(["a"], client, cache)

        other = OfflineEncoder(dim=32)
        cache2 = EmbeddingCache(tmp_path, other.encoder_id, other.dim)
        assert cache2.lookup([list(cache._offsets)[0]]) == {}

    def test_partial_hits_only_encode_misses(self, tmp_path):
        client = CountingEncoder()
        cache = EmbeddingCache(tmp_path, client.encoder_id, client.dim)
        embed_batch(["a", "b"], client, cache)
        calls_before = client.calls
        matrix = embed_batch(["b", "c", "a"], client, cache)
        assert client.calls == calls_before + 1  # only "c" is new
        direct = client.encode_batch(["b", "c", "a"])
        client.calls -= 1
        np.testing.assert_array_equal(matrix.values, direct)

    def test_duplicate_texts_encoded_once(self, tmp_path):
        client = CountingEncoder()
        cache = EmbeddingCache(tmp_path, client.encoder_id, client.dim)
        matrix = embed_batch(["same", "same", "same"], client, cache, batch_size=1)
        assert client.calls == 1
        np.testing.assert_array_equal(matrix.values[0], matrix.values[2])


class ExplodingEncoder(OfflineEncoder):
    def encode_batch(self, texts):
        raise RuntimeError("endpoint down")


def test_embedding_error_carries_batch_offsets():
    with pytest.raises(EmbeddingError) as excinfo:
        embed_batch(["a", "b", "c"], ExplodingEncoder(dim=8), batch_size=2)
    assert excinfo.value.batch_offsets == (0, 2)


def test_embedding_matrix_rejects_non_finite():
    from hyperhop.errors import IndexIntegrityError

    bad = np.array([[1.0, np.nan]], dtype=np.float32)
    with pytest.raises(IndexIntegrityError):
        EmbeddingMatrix(values=bad, row_keys=["k"])
