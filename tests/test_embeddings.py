import json
import tracemalloc
from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperhop.embeddings import (
    ROW_BLOCK,
    WIDEN_BLOCK,
    EmbeddingCache,
    EntityRows,
    OfflineEncoder,
    PassageRows,
    cosine_against_rows,
    embed_batch,
    max_sim_to_query_entities,
    norms_and_buckets,
    screen_max_sim,
    text_key,
    unit_rows,
)
from hyperhop.entities import ExtractionCache
from hyperhop.errors import ContractError, EmbeddingError, IndexIntegrityError

from conftest import cached_rows, embed_cached, entity_rows_of, passage_rows_of
from reference import cosine, passage_cosines, row_norms, whole_matrix_screen


def max_sim_over_all_rows(query_rows, rows):
    """``max_sim_to_query_entities`` with every row of ``rows`` a candidate."""
    rows = np.asarray(rows, dtype=np.float32)
    return max_sim_to_query_entities(query_rows, rows, row_norms(rows), np.arange(rows.shape[0]))


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
        assert matrix.shape == (2, 64) and matrix.dtype == np.float32
        np.testing.assert_array_equal(matrix[0], matrix[1])

    def test_empty_input(self):
        matrix = embed_batch([], OfflineEncoder(dim=64))
        assert matrix.shape == (0, 64) and matrix.dtype == np.float32

    def test_unit_norm(self):
        matrix = embed_batch(["some text with words"], OfflineEncoder(dim=64))
        assert np.linalg.norm(matrix[0]) == pytest.approx(1.0, abs=1e-6)

    def test_tokenless_text_is_zero_vector(self):
        matrix = embed_batch(["?!?"], OfflineEncoder(dim=64))
        assert not matrix[0].any()

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
        rows = rng.normal(size=(7, 5)).astype(np.float32)  # passage rows are float32
        rows[3] = 0.0  # zero row uses the zero convention
        q = rng.normal(size=5)
        sims = cosine_against_rows(q, passage_rows_of(rows))
        expected = [cosine(q, row) for row in rows]
        np.testing.assert_allclose(sims, expected, rtol=1e-12)


def passage_fuzz(rng, dim, nonzero):
    """Float32 passage rows over a wide range of norms, some of them zero or
    zero on most coordinates, and a float32 query with ``nonzero`` nonzero
    coordinates of either sign."""
    n_rows = int(rng.integers(1, 40))
    values = rng.standard_normal((n_rows, dim)) * 10.0 ** rng.integers(-8, 8, (n_rows, 1))
    values[rng.random(n_rows) < 0.2] = 0.0
    values[rng.random((n_rows, dim)) < 0.3] = 0.0
    query = np.zeros(dim)
    query[rng.choice(dim, nonzero, replace=False)] = rng.standard_normal(nonzero)
    return values.astype(np.float32), (query * 10.0 ** rng.integers(-8, 8)).astype(np.float32)


def sparse_limit(dim):
    """The most nonzero query coordinates ``cosine_against_rows`` sums one
    at a time; past it, the GEMV route."""
    return 3 * dim // 4


def dense_route_bound(dim):
    """Twice ``cosine_against_rows``'s ``(dim + 2) 2**-53``: how far its two
    routes may differ."""
    return 2 * (dim + 2) * 2.0**-53


class TestPassageCosines:
    """``cosine_against_rows`` against ``reference.passage_cosines``."""

    @pytest.mark.parametrize("dim", [1, 16, 64, 256])
    def test_sparse_route_is_bitwise_the_reference(self, rng, dim):
        # At dim 1 only the zero query is sparse: every other takes the GEMV.
        for _ in range(30):
            values, query = passage_fuzz(rng, dim, int(rng.integers(0, sparse_limit(dim) + 1)))
            got = cosine_against_rows(query, passage_rows_of(values))
            assert got.tobytes() == passage_cosines(query, values).tobytes()

    @pytest.mark.parametrize("dim", [1, 16, 64, 256])
    def test_dense_route_is_within_the_derived_bound(self, rng, dim):
        for _ in range(30):
            nonzero = int(rng.integers(sparse_limit(dim) + 1, dim + 1))
            values, query = passage_fuzz(rng, dim, nonzero)
            got = cosine_against_rows(query, passage_rows_of(values))
            expected = passage_cosines(query, values)
            assert np.abs(got - expected).max() <= dense_route_bound(dim)

    @pytest.mark.parametrize("dim", [16, 64, 256])
    def test_routes_cut_over_past_three_quarters_of_the_coordinates(self, rng, dim):
        values, query = passage_fuzz(rng, dim, sparse_limit(dim))
        rows = passage_rows_of(values)
        assert cosine_against_rows(query, rows).tobytes() == passage_cosines(query, values).tobytes()
        values, query = passage_fuzz(rng, dim, sparse_limit(dim) + 1)
        got = cosine_against_rows(query, passage_rows_of(values))
        assert np.abs(got - passage_cosines(query, values)).max() <= dense_route_bound(dim)

    def test_zero_query_and_zero_rows_give_positive_zero(self):
        values = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [3.0, 0.0, 0.0, 4.0]])
        rows = passage_rows_of(values.astype(np.float32))
        assert cosine_against_rows(np.zeros(4), rows).tobytes() == np.zeros(3).tobytes()
        # -q[0] times the zeros of rows 0 and 1 are -0.0 terms; the sums start at +0.0.
        got = cosine_against_rows(np.array([-1.0, 0.0, 0.0, 0.0]), rows)
        assert got.tobytes() == np.array([0.0, 0.0, -0.6]).tobytes()

    def test_no_rows_and_dim_mismatch(self):
        rows = passage_rows_of(np.empty((0, 4), dtype=np.float32))
        assert cosine_against_rows(np.ones(4), rows).shape == (0,)
        with pytest.raises(ContractError, match="dim mismatch"):
            cosine_against_rows(np.ones(5), rows)

    def test_rows_hold_the_values_coordinate_major_and_their_norms(self, tmp_path):
        """The ``PassageRows`` of a cached build, in batches across a block
        edge, tokenless texts (zero rows) among them."""
        client = OfflineEncoder(dim=8)
        texts = [f"passage {i} about topic{i % 5}" for i in range(ROW_BLOCK + 3)]
        texts[0], texts[ROW_BLOCK] = "?!", "..."
        with closing(EmbeddingCache(tmp_path, client.encoder_id, client.dim)) as cache:
            rows = embed_batch(texts, client, cache, 100, layout=PassageRows)
        values = client.encode_batch(texts)
        assert not values[[0, ROW_BLOCK]].any()
        assert rows.columns.tobytes() == np.ascontiguousarray(values.T).tobytes()
        assert rows.columns.shape == (8, ROW_BLOCK + 3) and rows.columns.dtype == np.float32
        assert rows.norms.tobytes() == row_norms(values).tobytes()
        assert not rows.columns.flags.writeable and not rows.norms.flags.writeable


class TestDenseRoute:
    """The GEMV route on 20k dense rows: 52 full blocks and a partial one."""

    DIM = 256

    @pytest.fixture(scope="class")
    def dense(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal((20_000, self.DIM)).astype(np.float32)
        values[[0, WIDEN_BLOCK, 19_999]] = 0.0
        query = rng.standard_normal(self.DIM)
        return values, passage_rows_of(values), query

    def test_within_the_derived_bound_of_the_reference(self, dense):
        values, rows, query = dense
        got = cosine_against_rows(query, rows)
        # passage_cosines loops in Python; checked on the block edges and a sample.
        picked = np.r_[0 : WIDEN_BLOCK + 2, 3000:3100, 20_000 - 40 : 20_000]
        expected = passage_cosines(query, values[picked])
        assert np.abs(got[picked] - expected).max() <= dense_route_bound(self.DIM)
        assert got[[0, WIDEN_BLOCK, 19_999]].tolist() == [0.0, 0.0, 0.0]

    def test_widens_a_block_at_a_time(self, dense):
        _, rows, query = dense
        tracemalloc.start()
        try:
            cosine_against_rows(query, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A float64 copy of the whole matrix would be twice columns.nbytes.
        assert peak < rows.columns.nbytes


class TestMaxSim:
    def test_exact_match_scores_one(self):
        enc = OfflineEncoder(dim=64)
        corpus = embed_batch(["alpha", "beta", "gamma"], enc)
        query = embed_batch(["beta"], enc)
        v = max_sim_over_all_rows(query, corpus)
        assert v[1] == pytest.approx(1.0)

    def test_empty_query_entities(self):
        enc = OfflineEncoder(dim=64)
        corpus = embed_batch(["alpha", "beta"], enc)
        empty = np.empty((0, 64), dtype=np.float32)
        assert max_sim_over_all_rows(empty, corpus).tolist() == [0.0, 0.0]

    def test_matches_pairwise_brute_force(self):
        enc = OfflineEncoder(dim=64)
        corpus = embed_batch(["red fox", "blue whale", "green tea"], enc)
        query = embed_batch(["green tea leaves", "blue deep whale"], enc)
        v = max_sim_over_all_rows(query, corpus)
        brute = [max(cosine(qrow, crow) for qrow in query) for crow in corpus]
        np.testing.assert_allclose(v, brute, rtol=1e-6)

    def test_permutation_invariance_and_monotonicity(self, rng):
        enc = OfflineEncoder(dim=32)
        corpus = embed_batch([f"word{i}" for i in range(6)], enc)
        q1 = embed_batch(["alpha beta", "gamma"], enc)
        q2 = embed_batch(["gamma", "alpha beta"], enc)
        np.testing.assert_array_equal(
            max_sim_over_all_rows(q1, corpus), max_sim_over_all_rows(q2, corpus)
        )
        q3 = embed_batch(["gamma", "alpha beta", "word3"], enc)
        assert (
            max_sim_over_all_rows(q3, corpus) >= max_sim_over_all_rows(q1, corpus) - 1e-12
        ).all()

    def test_dim_mismatch(self):
        a = embed_batch(["x"], OfflineEncoder(dim=16))
        b = embed_batch(["x"], OfflineEncoder(dim=32))
        with pytest.raises(ContractError):
            max_sim_over_all_rows(a, b)

    @pytest.mark.parametrize("n_query", [1, 2, 3, 4])
    def test_bitwise_equal_to_a_max_over_the_query_axis(self, rng, n_query):
        for _ in range(10):
            raw = rng.normal(size=(int(rng.integers(1, ROW_BLOCK)), 24)).astype(np.float32)
            candidates = np.flatnonzero(rng.random(raw.shape[0]) < rng.random())
            query = rng.normal(size=(n_query, 24)).astype(np.float32)
            unit = unit_rows(raw)[candidates]  # one block
            expected = np.clip((unit @ unit_rows(query).T).max(axis=1), -1.0, 1.0)
            got = max_sim_to_query_entities(query, raw, row_norms(raw), candidates)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_query", [1, 2, 3])
    def test_raw_rows_with_norms_score_as_their_unit_rows(self, rng, n_query):
        raw = rng.normal(size=(5 * ROW_BLOCK, 24)).astype(np.float32)
        raw[[5, ROW_BLOCK]] = 0.0
        # Blocks of scattered rows, and at least one of consecutive rows.
        scattered = rng.choice(raw.shape[0], ROW_BLOCK + 17, replace=False)
        candidates = np.union1d(scattered, np.r_[5, ROW_BLOCK : 3 * ROW_BLOCK])
        query = rng.normal(size=(n_query, 24)).astype(np.float32)
        got = max_sim_to_query_entities(query, raw, row_norms(raw), candidates)
        # Block by block, the product of the candidates' unit rows with the
        # unit query rows.
        unit, unit_query = unit_rows(raw)[candidates], unit_rows(query)
        blocks = [
            (unit[start : start + ROW_BLOCK] @ unit_query.T).max(axis=1)
            for start in range(0, candidates.shape[0], ROW_BLOCK)
        ]
        assert got.tobytes() == np.clip(np.concatenate(blocks), -1.0, 1.0).tobytes()

    @pytest.mark.parametrize("candidates", [[0, 2, 1, 3], [0, 0, 2], [3, 1]])
    def test_candidates_in_any_order_score_in_their_order(self, rng, candidates):
        raw = rng.normal(size=(4, 24)).astype(np.float32)
        query = rng.normal(size=(2, 24)).astype(np.float32)
        every_row = max_sim_to_query_entities(query, raw, row_norms(raw), np.arange(4))
        got = max_sim_to_query_entities(query, raw, row_norms(raw), np.array(candidates))
        # Wrong rows or a wrong order differ by far more than BLAS rounding.
        np.testing.assert_allclose(got, every_row[candidates], rtol=0, atol=1e-12)


BLOCK_EDGES = [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 7]


def rows_near_threshold(rng, query_rows, eta, per_query):
    """float32 rows whose cosine with one of ``query_rows`` lies within 1e-7
    of ``eta`` on either side, at norms from 1e-3 to 1e3."""
    dim = query_rows.shape[1]
    rows = []
    for q in unit_rows(query_rows):
        for delta in np.linspace(-1e-7, 1e-7, per_query):
            cos = min(eta + delta, 1.0)
            w = rng.normal(size=dim)
            w -= (w @ q) * q
            w /= np.linalg.norm(w)
            rows.append(10.0 ** rng.uniform(-3, 3) * (cos * q + np.sqrt(1.0 - cos * cos) * w))
    return np.asarray(rows, dtype=np.float32)


class TestScreen:
    @pytest.mark.parametrize("n_query", [1, 2, 3, 4])
    @pytest.mark.parametrize("dim", [8, 256, 1536])
    @pytest.mark.parametrize("eta", [0.8, 0.999999])
    def test_keeps_every_row_whose_float64_value_passes(self, rng, eta, dim, n_query):
        query = (rng.normal(size=(n_query, dim)) * rng.uniform(0.1, 10.0, (n_query, 1))).astype(
            np.float32
        )
        rows = rows_near_threshold(rng, query, eta, per_query=BLOCK_EDGES[-1] // n_query + 1)
        v = max_sim_over_all_rows(query, rows)
        near = np.abs(v - eta) < 2e-7
        assert np.count_nonzero(near & (v > eta)) > 50 and np.count_nonzero(near & (v <= eta)) > 50
        for n_rows in BLOCK_EDGES:  # catalogs ending on and beside a block edge
            some = rng.permutation(rows.shape[0])[:n_rows]
            candidates = screen_max_sim(query, rows[some], row_norms(rows[some]), eta)
            assert np.isin(np.flatnonzero(v[some] > eta), candidates).all(), n_rows

    @pytest.mark.parametrize("n_query", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_rows", BLOCK_EDGES)
    def test_offline_rows_keep_what_one_whole_catalog_product_kept(self, rng, n_rows, n_query):
        words = [f"w{i}" for i in range(40)]
        names = [" ".join(rng.choice(words, rng.integers(1, 4))) for _ in range(n_rows)]
        asked = [" ".join(rng.choice(words, rng.integers(1, 4))) for _ in range(n_query)]
        if names:  # an exact match among the query entities
            asked[0] = names[-1]
        encoder = OfflineEncoder(dim=32)
        rows, query = encoder.encode_batch(names), encoder.encode_batch(asked)
        norms = row_norms(rows)
        for eta in (0.0, 0.5, 0.8, 0.95):
            kept = screen_max_sim(query, rows, norms, eta)
            assert kept.tolist() == whole_matrix_screen(query, rows, norms, eta).tolist()
            assert n_rows == 0 or n_rows - 1 in kept

    def test_peak_memory_is_below_one_whole_catalog_product(self, rng):
        # A product of the whole catalog by 8 query rows takes n * 8 * 4
        # bytes. The screen holds about 14 bytes a row (its float32 best
        # values, bool masks and one float64 bound at a time) plus numpy's
        # fixed 64 KB cast buffer.
        n, n_query = 20_000, 8
        rows = rng.normal(size=(n, 8)).astype(np.float32)
        norms = row_norms(rows)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            screen_max_sim(rows[:n_query], rows, norms, 0.8)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < n * n_query * 4

    def test_rows_beyond_the_float32_range_are_kept(self):
        tiny = 2.0**-149  # the smallest float32 subnormal
        query = np.array([[0.81, np.sqrt(1.0 - 0.81**2), 0.0]], dtype=np.float32)
        rows = np.array(
            [
                [3 * tiny, 0.0, 0.0],  # cosine 0.81, but 3 x 0.81 tiny rounds to 2 tiny
                [2e38, -2e38, 0.0],  # norm above 2**127, where partial sums can overflow
                [0.0, 0.0, 0.0],  # a zero row never passes
                [1.0, -1.0, 1.0],  # an ordinary row below eta
            ],
            dtype=np.float32,
        )
        v = max_sim_over_all_rows(query, rows)
        assert v[0] > 0.8
        assert screen_max_sim(query, rows, row_norms(rows), 0.8).tolist() == [0, 1]

    def test_rows_sharing_no_coordinate_with_the_query_are_dropped(self):
        query = np.array([[1.0, 1.0, 0.0, 0.0, 0.0]], dtype=np.float32)
        rows = np.array(
            [
                [2.0, 0.0, 0.0, 0.0, 0.0],  # cosine 1/sqrt(2)
                [0.0, -3.0, 0.0, 0.0, 0.0],  # cosine -1/sqrt(2): the norm bound drops it
                [0.0, 0.0, 1.0, 0.0, 0.0],  # cosine 0, which the norm bound keeps at eta 0
                [0.0, 0.0, 0.0, 4.0, 5.0],
            ],
            dtype=np.float32,
        )
        assert screen_max_sim(query, rows, row_norms(rows), 0.0).tolist() == [0]

    def test_products_below_the_float32_range_are_kept(self):
        # 1e-30 x 1e-20 rounds to 0 in float32, but the row's float64 value is 1e-20.
        query = np.array([[1.0, 1e-20, 0.0]], dtype=np.float32)
        rows = np.array([[0.0, 1e-30, 0.0], [0.0, 0.0, 1e-30]], dtype=np.float32)
        v = max_sim_over_all_rows(query, rows)
        assert v[0] > 0.0 and v[1] == 0.0
        assert screen_max_sim(query, rows, row_norms(rows), 0.0).tolist() == [0]

    def test_a_subnormal_query_coordinate_counts_in_the_support(self):
        # Normalized, the query's 1e-40 is a float32 subnormal; row 0 is
        # nonzero there and kept, row 1 shares no coordinate and is dropped.
        query = np.array([[1.0, 1e-40, 0.0]], dtype=np.float32)
        rows = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], dtype=np.float32)
        v = max_sim_over_all_rows(query, rows)
        assert v[0] > 0.0 and v[1] == 0.0
        assert screen_max_sim(query, rows, row_norms(rows), 0.0).tolist() == [0]

    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.8])
    @pytest.mark.parametrize("kind", ["two_sparse", "dense"])
    def test_support_test_drops_only_rows_of_value_zero(self, rng, kind, eta):
        dim, n_rows = 64, 3000
        if kind == "two_sparse":  # like the offline encoder: two nonzero coordinates
            rows = np.zeros((n_rows, dim), dtype=np.float32)
            for row in rows:
                row[rng.choice(dim, 2, replace=False)] = rng.choice([-1.0, 1.0, 2.0], 2)
            query = np.zeros((2, dim), dtype=np.float32)
            query[0, [3, 7]] = [1.0, -1.0]
            query[1, [7, 40]] = [2.0, 1.0]
        else:
            rows = rng.normal(size=(n_rows, dim)).astype(np.float32)
            rows[: n_rows // 10, : dim // 2] = 0.0  # these miss the query's support
            query = np.zeros((2, dim), dtype=np.float32)
            query[:, : dim // 2] = rng.normal(size=(2, dim // 2))
        rows[[5, 6]] = 0.0
        v = max_sim_over_all_rows(query, rows)
        candidates = screen_max_sim(query, rows, row_norms(rows), eta)
        assert np.isin(np.flatnonzero(v > eta), candidates).all()
        no_support = ~(rows[:, (query != 0).any(axis=0)] != 0).any(axis=1)
        assert np.count_nonzero(no_support & (row_norms(rows) > 0)) > 200
        assert not np.isin(np.flatnonzero(no_support), candidates).any()
        assert (v[no_support] == 0.0).all()

    def test_a_query_entity_without_tokens_leaves_no_candidates(self):
        query = OfflineEncoder(dim=32).encode_batch([""])  # the zero row
        rows = OfflineEncoder(dim=32).encode_batch(["albert einstein", "ulm", "germany"])
        assert screen_max_sim(query, rows, row_norms(rows), 0.0).size == 0

    def test_negative_eta_is_rejected(self):
        rows = np.ones((3, 4), dtype=np.float32)
        with pytest.raises(ContractError):
            screen_max_sim(rows[:1], rows, row_norms(rows), -0.1)

    def test_empty_query_or_corpus_keeps_nothing(self):
        rows = np.ones((3, 4), dtype=np.float32)
        empty_query = np.empty((0, 4), dtype=np.float32)
        assert screen_max_sim(empty_query, rows, row_norms(rows), 0.5).size == 0
        no_rows = np.empty((0, 4), dtype=np.float32)
        assert screen_max_sim(rows[:1], no_rows, row_norms(no_rows), 0.5).size == 0

    def test_dim_mismatch(self):
        rows = np.ones((3, 4), dtype=np.float32)
        with pytest.raises(ContractError):
            screen_max_sim(np.ones((1, 5), dtype=np.float32), rows, row_norms(rows), 0.5)

    def test_unit_rows_from_cached_norms_are_bitwise_the_whole_matrix_rows(self, rng):
        values = rng.normal(size=(9000, 16)).astype(np.float32)  # more than one block
        values[[3, 5000]] = 0.0
        whole = unit_rows(values)
        norms = row_norms(values)
        picked = rng.choice(9000, 600, replace=False)
        picked[:2] = [3, 5000]
        assert unit_rows(values[picked], norms[picked]).tobytes() == whole[picked].tobytes()



class TestAxisBuckets:
    """The axis buckets of ``EntityRows`` and the rows it derives them from."""

    def test_each_row_goes_to_the_signed_axis_of_its_largest_coordinate(self):
        tiny = 2.0**-149
        rows = np.array(
            [
                [0.0, -2.0, 1.0],  # axis 1, negative: bucket 3, cosine 2/sqrt(5)
                [1.0, -1.0, 0.0],  # a tie: the first axis, bucket 0
                [0.0, 0.0, 4.0],  # bucket 4, cosine 1
                [0.0, 1.0, 0.5],  # bucket 2, cosine 1/sqrt(1.25)
                [0.0, 0.0, 0.0],  # zero: the bucket never skipped, 6
                [3 * tiny, 0.0, 0.0],  # norm below 2**-126: bucket 6
                [2e38, -2e38, 0.0],  # norm above 2**127: bucket 6
            ],
            dtype=np.float32,
        )
        buckets = entity_rows_of(rows)
        members = [
            buckets.rows[buckets.starts[b] : buckets.starts[b + 1]].tolist() for b in range(7)
        ]
        assert members == [[1], [], [3], [0], [2], [], [4, 5, 6]]
        norms = row_norms(rows)
        expected = [1.0 / norms[1], 1.0, 1.0 / norms[3], 2.0 / norms[0], 1.0, 1.0]
        assert buckets.cos_r[:6].tolist() == expected
        assert buckets.norms.tobytes() == norms.tobytes()
        for array in (buckets.norms, buckets.rows, buckets.starts, buckets.cos_r):
            assert not array.flags.writeable

    @pytest.mark.parametrize("n_rows", BLOCK_EDGES)
    def test_catalogs_across_block_edges_match_a_row_by_row_assignment(self, rng, n_rows):
        dim = 16
        rows = rng.normal(size=(n_rows, dim)).astype(np.float32)
        rows[rng.random(n_rows) < 0.3] = 0.0
        rows[rng.random(n_rows) < 0.2, 3] = 1e3  # many rows in one bucket
        norms = row_norms(rows)
        buckets = entity_rows_of(rows)
        assert buckets.norms.tobytes() == norms.tobytes()
        keys, cos_r = [], np.ones(2 * dim + 1)
        for row, norm in zip(rows, norms):
            k = int(np.argmax(np.abs(row)))
            key = 2 * k + int(row[k] < 0) if norm > 0.0 else 2 * dim
            keys.append(key)
            if norm > 0.0:
                cos_r[key] = min(cos_r[key], abs(float(row[k])) / norm)
        members = [[i for i in range(n_rows) if keys[i] == b] for b in range(2 * dim + 1)]
        got = [
            buckets.rows[buckets.starts[b] : buckets.starts[b + 1]].tolist()
            for b in range(2 * dim + 1)
        ]
        assert got == members
        assert buckets.cos_r.tobytes() == cos_r.tobytes()

    def test_given_buckets_only_widen_the_cones(self):
        rows = np.array(
            [
                [0.0, -2.0, 1.0],  # its bucket is 3; given 2, the other sign
                [0.0, 0.0, 0.0],  # zero; given 0
                [2e38, -2e38, 0.0],  # norm above 2**127; given 4
            ],
            dtype=np.float32,
        )
        norms = row_norms(rows)
        given = EntityRows.from_buckets(rows, norms, np.array([2, 0, 4], dtype=np.uint16))
        members = [given.rows[given.starts[b] : given.starts[b + 1]].tolist() for b in range(7)]
        assert members == [[], [], [0], [], [], [], [1, 2]]
        # Row 0's signed value on the positive axis 1 is -2: bucket 2's cone
        # opens past a right angle, so a query at row 0 still reaches it.
        assert given.cos_r.tolist() == [1.0, 1.0, -2.0 / norms[0], 1.0, 1.0, 1.0, 1.0]
        assert given.reachable_rows(rows[:1], 0.9, 3).tolist() == [0, 1, 2]
        assert entity_rows_of(rows).buckets.tolist() == [3, 6, 6]

    def test_dims_past_what_uint16_buckets_index_are_refused(self):
        for n_rows in (0, 1):
            with pytest.raises(ContractError, match="dim 32768"):
                entity_rows_of(np.zeros((n_rows, 32768), dtype=np.float32))
        assert entity_rows_of(np.zeros((1, 32767), dtype=np.float32)).buckets.tolist() == [65534]

    def test_reachable_rows_keep_the_axes_near_the_query(self):
        rows = np.zeros((6, 4), dtype=np.float32)
        rows[[0, 1, 2, 3], [0, 0, 1, 2]] = [1.0, 2.0, -1.0, 1.0]
        rows[4] = [0.6, 0.8, 0.0, 0.0]  # bucket 2 (axis 1, positive), cosine 0.8
        buckets = entity_rows_of(rows)
        query = np.array([[1.0, 0.0, 0.0, 0.0]], dtype=np.float32)
        # Bucket 0 holds the query's axis. Bucket 2's row, at cosine 0.8
        # from its axis, can reach cosine 0.6 with the query; the others
        # reach 0 at most. Bucket 8, with the zero row, is never skipped.
        assert buckets.reachable_rows(query, 0.8, 6).tolist() == [0, 1, 5]
        assert buckets.reachable_rows(query, 0.5, 6).tolist() == [0, 1, 4, 5]
        assert buckets.reachable_rows(query, 0.5, 3) is None
        assert buckets.reachable_rows(query[:0], 0.5, 6).size == 0

    @pytest.mark.parametrize("n_rows", BLOCK_EDGES)
    def test_rows_taken_in_blocks_give_the_whole_matrix_norms(self, rng, n_rows):
        """A cache appends rows a batch at a time: each row's norm and bucket
        depend on that row alone."""
        rows = rng.normal(size=(n_rows, 8)).astype(np.float32)
        rows[::5] = 0.0
        norms, buckets = norms_and_buckets(rows)
        assert norms.tobytes() == row_norms(rows).tobytes()
        blocks = [norms_and_buckets(rows[s : s + 7]) for s in range(0, max(n_rows, 1), 7)]
        assert np.concatenate([n for n, _ in blocks]).tobytes() == norms.tobytes()
        assert np.concatenate([b for _, b in blocks]).tobytes() == buckets.tobytes()
        assert entity_rows_of(rows).values is rows


@pytest.mark.parametrize("n_rows", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1])
def test_rows_gathered_from_the_cache_are_bitwise_those_of_the_matrix(tmp_path, rng, n_rows):
    """``read_rows`` with a layout gathers, block by block, the columns,
    norms and buckets that ``row_norms`` and ``norms_and_buckets`` take over
    the whole matrix of the same records."""
    dim = 24
    client = CountingEncoder(dim=dim)
    cache = EmbeddingCache(tmp_path, client.encoder_id, dim)
    scales = 10.0 ** rng.integers(-45, 38, (n_rows + 5, 1))  # norms past the screen range too
    values = (rng.normal(size=(n_rows + 5, dim)) * scales).astype(np.float32)
    values[::7] = 0.0
    cache.append([bytes([i % 256, i // 256]) * 16 for i in range(n_rows + 5)], values)
    records = rng.permutation(n_rows + 5)[:n_rows]
    records[-1] = records[0]  # a record read twice
    matrix = cached_rows(cache, records)
    assert matrix.tobytes() == values[records].tobytes()

    passages, want = cache.read_rows(records, PassageRows), passage_rows_of(matrix)
    assert passages.columns.tobytes() == want.columns.tobytes()
    assert passages.norms.tobytes() == want.norms.tobytes() == row_norms(matrix).tobytes()
    entities, want = cache.read_rows(records, EntityRows), entity_rows_of(matrix)
    for name in ("values", "norms", "rows", "starts", "cos_r"):
        assert getattr(entities, name).tobytes() == getattr(want, name).tobytes(), name
    assert entities.buckets.tobytes() == want.buckets.tobytes()


class TestOneWriterPerCache:
    @pytest.mark.parametrize("kind", ["embeddings", "extraction"])
    def test_a_second_open_of_a_held_directory_raises_until_the_first_closes(
        self, tmp_path, kind
    ):
        def cache(producer="offline"):
            if kind == "embeddings":
                return EmbeddingCache(tmp_path, producer, 8)
            return ExtractionCache(tmp_path, producer)

        held = cache()
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        message = f"^cache directory {tmp_path} is in use by another build"
        with pytest.raises(ContractError, match=message):
            cache()
        with pytest.raises(ContractError, match=message):
            cache("another producer")  # and the holder's files are not wiped
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before
        held.close()
        held.close()  # a second close does nothing
        with closing(cache("another producer")):  # wipes the holder's files, not the lock
            assert (tmp_path / "lock").is_file()
            assert "another producer" in (tmp_path / "manifest.json").read_text()
            with pytest.raises(ContractError, match=message):
                cache()
        cache().close()


@pytest.mark.parametrize("kind", ["embeddings", "extraction"])
def test_a_str_key_is_refused_by_both_caches_and_writes_nothing(tmp_path, kind):
    keys = [bytes(32), "a" * 32]
    if kind == "embeddings":
        cache = EmbeddingCache(tmp_path, "offline", 8)
        rows = (np.zeros((2, 8), dtype=np.float32),)
    else:
        cache = ExtractionCache(tmp_path, "offline")
        rows = ([["a"], ["b"]],)
    with closing(cache), pytest.raises(ContractError, match="raw sha256 of 32 bytes, not 'a"):
        cache.append(keys, *rows)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["lock", "manifest.json"]


class TestEmbeddingCache:
    def test_cache_fidelity_zero_client_calls(self, tmp_path):
        texts = ["one", "two", "three"]
        first_client = CountingEncoder()
        cache = EmbeddingCache(tmp_path, first_client.encoder_id, first_client.dim)
        first = embed_cached(texts, first_client, cache)
        assert first_client.calls == 1
        cache.close()

        second_client = CountingEncoder()
        cache2 = EmbeddingCache(tmp_path, second_client.encoder_id, second_client.dim)
        second = embed_cached(texts, second_client, cache2)
        assert second_client.calls == 0
        assert first.tobytes() == second.tobytes()

    def test_cache_invalidated_on_encoder_change(self, tmp_path):
        client = CountingEncoder()
        cache = EmbeddingCache(tmp_path, client.encoder_id, client.dim)
        embed_cached(["a"], client, cache)
        cache.close()

        other = OfflineEncoder(dim=32)
        cache2 = EmbeddingCache(tmp_path, other.encoder_id, other.dim)
        assert cache2.lookup([text_key("a")]) == {}

    def test_partial_hits_only_encode_misses(self, tmp_path):
        client = CountingEncoder()
        cache = EmbeddingCache(tmp_path, client.encoder_id, client.dim)
        embed_cached(["a", "b"], client, cache)
        calls_before = client.calls
        matrix = embed_cached(["b", "c", "a"], client, cache)
        assert client.calls == calls_before + 1  # only "c" is new
        direct = client.encode_batch(["b", "c", "a"])
        client.calls -= 1
        np.testing.assert_array_equal(matrix, direct)

    @pytest.mark.parametrize("orphan_rows", [1.0, 0.5])
    @pytest.mark.parametrize("with_manifest", [True, False])
    def test_rows_past_the_manifest_count_are_dropped_on_open(
        self, tmp_path, with_manifest, orphan_rows
    ):
        # A crash during an append leaves a partial record: a row's worth of
        # bytes (or less) is short of the key plus the row of a whole record.
        # Without a manifest the records are discarded on open.
        client = CountingEncoder()
        abc = [text_key(t) for t in "abc"]
        if with_manifest:
            cache = EmbeddingCache(tmp_path, client.encoder_id, client.dim)
            cache.append(abc, client.encode_batch(["a", "b", "c"]))
            cache.close()
        orphan = np.full(int(client.dim * orphan_rows), 7.0, dtype="<f4")
        with (tmp_path / "records.bin").open("ab") as fh:
            fh.write(orphan.tobytes())

        reopened = EmbeddingCache(tmp_path, client.encoder_id, client.dim)
        assert len(reopened.lookup(abc)) == (3 if with_manifest else 0)
        d, key = client.encode_batch(["d"]), text_key("d")
        reopened.append([key], d)
        np.testing.assert_array_equal(cached_rows(reopened, [reopened.lookup([key])[key]]), d)
        reopened.close()

        again = EmbeddingCache(tmp_path, client.encoder_id, client.dim)
        assert again.lookup([key]) == {key: 3 if with_manifest else 0}
        np.testing.assert_array_equal(cached_rows(again, [again.lookup([key])[key]]), d)
        if with_manifest:
            abc_rows = client.encode_batch(["a", "b", "c"])
            assert cached_rows(again, [0, 1, 2]).tobytes() == abc_rows.tobytes()

    def test_half_a_record_is_truncated_then_appends_read_back(self, tmp_path):
        client = CountingEncoder()
        cache = EmbeddingCache(tmp_path, client.encoder_id, client.dim)
        cache.append([text_key("a")], client.encode_batch(["a"]))
        records = tmp_path / "records.bin"
        record_size = 32 + 4 * client.dim + 8 + 2
        with records.open("ab") as fh:
            fh.write(bytes(record_size // 2))
        cache.close()

        reopened = EmbeddingCache(tmp_path, client.encoder_id, client.dim)
        assert records.stat().st_size == record_size + record_size // 2  # opening writes nothing
        texts = ["b", "c"]
        reopened.append([text_key(t) for t in texts], client.encode_batch(texts))
        assert records.stat().st_size == 3 * record_size
        reopened.close()
        again = EmbeddingCache(tmp_path, client.encoder_id, client.dim)
        offsets = again.lookup([text_key(t) for t in ["a", "b", "c"]])
        assert sorted(offsets.values()) == [0, 1, 2]
        rows = cached_rows(again, [offsets[text_key(t)] for t in ["a", "b", "c"]])
        assert rows.tobytes() == client.encode_batch(["a", "b", "c"]).tobytes()

    def test_a_half_record_stays_until_the_next_append(self, tmp_path):
        """Opening, looking up, gathering and closing write nothing; the next
        append cuts the half record before it writes."""
        client = CountingEncoder()
        embed_cached(["a"], client, EmbeddingCache(tmp_path, client.encoder_id, client.dim))
        records = tmp_path / "records.bin"
        record_size = 32 + 4 * client.dim + 8 + 2
        with records.open("ab") as fh:
            fh.write(b"\x07" * (record_size // 2))
        torn = records.read_bytes()
        with closing(EmbeddingCache(tmp_path, client.encoder_id, client.dim)) as cache:
            warm = embed_cached(["a", "a"], client, cache)
            assert client.calls == 1 and records.read_bytes() == torn
        cache = EmbeddingCache(tmp_path, client.encoder_id, client.dim)
        assert records.read_bytes() == torn
        both = embed_cached(["b", "a"], client, cache)
        assert records.stat().st_size == 2 * record_size
        assert records.read_bytes()[:record_size] == torn[:record_size]
        assert both[1].tobytes() == warm[0].tobytes() == client.encode_batch(["a"]).tobytes()

    def test_read_rows_gathers_only_the_first_count_rows(self, tmp_path):
        client = CountingEncoder()
        texts = [f"text {i}" for i in range(40)]
        vectors = client.encode_batch(texts)
        cache = EmbeddingCache(tmp_path, client.encoder_id, client.dim)
        cache.append([text_key(t) for t in texts], vectors)
        # Bytes past the count, such as a half-written append of another
        # writer, are never mapped.
        with (tmp_path / "records.bin").open("ab") as fh:
            fh.write(bytes(32 + 4 * client.dim // 2))
        offsets = [39, 0, 7, 7, 20]
        rows = cached_rows(cache, offsets)
        assert type(rows) is np.ndarray and rows.dtype == np.dtype("<f4")
        assert rows.tobytes() == vectors[offsets].tobytes()
        with pytest.raises(IndexError):
            cached_rows(cache, [40])

    def test_manifest_of_another_dim_discards_the_records(self, tmp_path):
        client = CountingEncoder()
        embed_cached(["a", "b"], client, EmbeddingCache(tmp_path, client.encoder_id, client.dim))
        other = CountingEncoder(dim=16)
        other.encoder_id = client.encoder_id  # same id, another width
        cache = EmbeddingCache(tmp_path, other.encoder_id, other.dim)
        assert cache.lookup([text_key("a"), text_key("b")]) == {}
        assert not (tmp_path / "records.bin").exists()
        assert json.loads((tmp_path / "manifest.json").read_text()) == {
            "dim": 16, "encoder_id": client.encoder_id, "layout": 4
        }
        embed_cached(["a"], other, cache)
        assert other.calls == 1

    def test_old_layout_with_a_count_is_discarded(self, tmp_path):
        client = CountingEncoder()
        (tmp_path / "manifest.json").write_text(
            json.dumps({"count": 1, "dim": client.dim, "encoder_id": client.encoder_id})
        )
        (tmp_path / "keys.txt").write_text(text_key("a").hex() + "\n")
        (tmp_path / "vectors.bin").write_bytes(client.encode_batch(["a"]).tobytes())

        cache = EmbeddingCache(tmp_path, client.encoder_id, client.dim)
        assert cache.lookup([text_key("a")]) == {}
        assert sorted(f.name for f in tmp_path.iterdir()) == ["lock", "manifest.json"]
        assert "count" not in json.loads((tmp_path / "manifest.json").read_text())
        embed_cached(["a"], client, cache)
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "lock", "manifest.json", "records.bin"
        ]

    @pytest.mark.parametrize("manifest", [b"{not json", b"", b"[1, 2]"])
    def test_garbage_manifest_is_replaced(self, tmp_path, manifest):
        client = CountingEncoder()
        embed_cached(["a"], client, EmbeddingCache(tmp_path, client.encoder_id, client.dim))
        (tmp_path / "manifest.json").write_bytes(manifest)
        cache = EmbeddingCache(tmp_path, client.encoder_id, client.dim)
        assert cache.lookup([text_key("a")]) == {}
        assert not (tmp_path / "records.bin").exists()
        assert json.loads((tmp_path / "manifest.json").read_text())["dim"] == client.dim

    @pytest.mark.parametrize(
        "key",
        [b"a" * 31, b"a" * 33, text_key("b").hex(), "a" * 32, b""],
        ids=["31-bytes", "33-bytes", "hex", "str", "empty"],
    )
    def test_key_that_is_not_a_raw_sha256_is_rejected(self, tmp_path, key):
        client = CountingEncoder()
        cache = EmbeddingCache(tmp_path, client.encoder_id, client.dim)
        with pytest.raises(ContractError, match="raw sha256 of 32 bytes"):
            cache.append([text_key("a"), key], client.encode_batch(["a", "b"]))
        assert cache.lookup([text_key("a")]) == {}
        assert not (tmp_path / "records.bin").exists()

    @pytest.mark.parametrize("key", [bytes(32), b"\x07" * 31 + b"\x00"], ids=["all", "last"])
    def test_a_key_ending_in_nul_bytes_round_trips(self, tmp_path, key):
        client = CountingEncoder()
        cache = EmbeddingCache(tmp_path, client.encoder_id, client.dim)
        cache.append([b"\x07" * 31 + b"\x01", key], client.encode_batch(["a", "b"]))
        cache.close()
        reopened = EmbeddingCache(tmp_path, client.encoder_id, client.dim)
        assert reopened.lookup([key, key[:31], b"\x07" * 31 + b"\x01"]) == {
            key: 1, b"\x07" * 31 + b"\x01": 0
        }

    def test_lookup_returns_the_record_of_each_hit_and_leaves_misses_out(self, tmp_path):
        """The contract a caller counts hits by: ``len(lookup(keys))``."""
        client = CountingEncoder()
        cache = EmbeddingCache(tmp_path, client.encoder_id, client.dim)
        cache.append([text_key(t) for t in "ab"], client.encode_batch(["a", "b"]))
        keys = [text_key(t) for t in ["b", "x", "a", "b", "y"]]
        hits = cache.lookup(keys)
        assert hits == {text_key("b"): 1, text_key("a"): 0}
        assert list(hits) == [text_key("b"), text_key("a")]  # in the order of the keys
        assert cache.lookup([]) == {} and cache.lookup([text_key("x")]) == {}
        cache.close()
        reopened = EmbeddingCache(tmp_path, client.encoder_id, client.dim)
        assert reopened.lookup(keys) == hits

    def test_embed_batch_looks_up_every_key_once(self, tmp_path):
        """One ``lookup`` of every text's key per call, as a counting
        subclass sees it: no hit on a cold cache, every distinct text on a
        warm one (a repeated key is one entry of the result)."""
        seen = []

        class CountingCache(EmbeddingCache):
            def lookup(self, keys):
                hits = super().lookup(keys)
                seen.append((len(keys), len(hits)))
                return hits

        client = CountingEncoder()
        texts = ["a", "b", "a", "c"]
        cold = embed_cached(texts, client, CountingCache(tmp_path, client.encoder_id, client.dim))
        warm = embed_cached(texts, client, CountingCache(tmp_path, client.encoder_id, client.dim))
        assert seen == [(4, 0), (4, 3)]
        assert client.calls == 1 and cold.tobytes() == warm.tobytes()

    def test_append_leaves_the_manifest_unchanged(self, tmp_path):
        client = CountingEncoder()
        cache = EmbeddingCache(tmp_path, client.encoder_id, client.dim)
        manifest = tmp_path / "manifest.json"
        before = (manifest.read_bytes(), manifest.stat().st_mtime_ns, manifest.stat().st_ino)
        embed_cached([f"text {i}" for i in range(10)], client, cache, batch_size=3)
        assert client.calls == 4
        assert (manifest.read_bytes(), manifest.stat().st_mtime_ns, manifest.stat().st_ino) == before
        assert not (tmp_path / "keys.txt").exists()

    def test_duplicate_texts_encoded_once(self, tmp_path):
        client = CountingEncoder()
        cache = EmbeddingCache(tmp_path, client.encoder_id, client.dim)
        matrix = embed_cached(["same", "same", "same"], client, cache, batch_size=1)
        assert client.calls == 1
        np.testing.assert_array_equal(matrix[0], matrix[2])


class ExplodingEncoder(OfflineEncoder):
    def encode_batch(self, texts):
        raise RuntimeError("endpoint down")


def test_embedding_error_carries_batch_offsets():
    with pytest.raises(EmbeddingError) as excinfo:
        embed_batch(["a", "b", "c"], ExplodingEncoder(dim=8), batch_size=2)
    assert excinfo.value.batch_offsets == (0, 2)


def test_a_cached_embed_batch_needs_a_layout(tmp_path):
    client = CountingEncoder()
    with closing(EmbeddingCache(tmp_path, client.encoder_id, client.dim)) as cache:
        with pytest.raises(ContractError, match="into a layout"):
            embed_batch(["a"], client, cache)
    assert client.calls == 0 and not (tmp_path / "records.bin").exists()


@pytest.mark.parametrize("layout", [EntityRows, PassageRows])
def test_a_layout_needs_a_cache(layout):
    client = CountingEncoder()
    with pytest.raises(ContractError, match="into a layout"):
        embed_batch(["a"], client, layout=layout)
    assert client.calls == 0


def test_an_uncached_embed_batch_encodes_every_text_in_batches():
    """Without a cache, texts are neither keyed nor deduplicated: each
    batch of ``batch_size`` texts is one call, in order."""
    client = CountingEncoder()
    texts = ["a", "b", "a", "c", "a"]
    matrix = embed_batch(texts, client, batch_size=2)
    assert client.calls == 3
    client.calls = 0
    assert matrix.tobytes() == client.encode_batch(texts).tobytes()


@pytest.mark.parametrize("batch_size", [0, -1])
def test_batch_size_below_one_is_rejected(batch_size):
    with pytest.raises(ContractError, match="batch_size"):
        embed_batch(["a"], OfflineEncoder(dim=8), batch_size=batch_size)


class NaNEncoder(OfflineEncoder):
    def encode_batch(self, texts):
        out = super().encode_batch(texts)
        out[-1, 0] = np.nan
        return out


def test_embedding_matrix_rejects_non_finite():
    with pytest.raises(EmbeddingError, match="non-finite") as excinfo:
        embed_batch(["a", "b", "c"], NaNEncoder(dim=8), batch_size=2)
    assert excinfo.value.batch_offsets == (0, 2)


def test_non_finite_batch_is_not_cached(tmp_path):
    """A bad batch fails before it reaches the cache, so a rerun with a
    healthy encoder on the same cache succeeds."""
    healthy = OfflineEncoder(dim=8)
    texts = ["a", "b", "c"]
    embed_cached(["a"], healthy, EmbeddingCache(tmp_path, healthy.encoder_id, 8))
    with closing(EmbeddingCache(tmp_path, healthy.encoder_id, 8)) as cache:
        with pytest.raises(EmbeddingError, match=r"offsets \[0, 1\)") as excinfo:
            embed_cached(texts, NaNEncoder(dim=8), cache, 1)
    assert excinfo.value.batch_offsets == (0, 1)
    cache = EmbeddingCache(tmp_path, healthy.encoder_id, 8)
    assert list(cache.lookup([text_key(t) for t in texts])) == [text_key("a")]
    rows = embed_cached(texts, healthy, cache)
    assert rows.tobytes() == embed_batch(texts, healthy).tobytes()


def test_non_finite_cached_row_is_an_integrity_error(tmp_path):
    """The error names the file, the first damaged record read and the way
    out; a request that reads no damaged record is served."""
    client = OfflineEncoder(dim=8)
    embed_cached(["a", "b", "c"], client, EmbeddingCache(tmp_path, client.encoder_id, 8))
    records = tmp_path / "records.bin"
    layout = [("key", "V32"), ("row", "<f4", (8,)), ("norm", "<f8"), ("bucket", "<u2")]
    raw = np.fromfile(records, dtype=layout)
    raw["row"][1:, -1] = np.nan  # the last values of "b" and "c", records 1 and 2
    assert np.isfinite(raw["norm"]).all()  # the stored norms do not show it
    raw.tofile(records)
    cache = EmbeddingCache(tmp_path, client.encoder_id, 8)
    with pytest.raises(IndexIntegrityError, match="non-finite") as excinfo:
        embed_cached(["c", "b", "a"], client, cache)
    message = str(excinfo.value)
    assert str(records) in message
    assert "record 1 " in message
    assert f"delete the cache directory {tmp_path}" in message
    with pytest.raises(IndexIntegrityError, match="record 2 "):
        embed_cached(["c"], client, cache)
    assert embed_cached(["a"], client, cache).tobytes() == embed_batch(["a"], client).tobytes()


@pytest.mark.parametrize(
    "field, value", [("norm", np.nan), ("norm", -1.0), ("bucket", 2 * 8 + 1)]
)
def test_a_stored_norm_or_bucket_out_of_range_is_an_integrity_error(tmp_path, field, value):
    client = OfflineEncoder(dim=8)
    embed_cached(["a", "b", "c"], client, EmbeddingCache(tmp_path, client.encoder_id, 8))
    records = tmp_path / "records.bin"
    layout = [("key", "V32"), ("row", "<f4", (8,)), ("norm", "<f8"), ("bucket", "<u2")]
    raw = np.fromfile(records, dtype=layout)
    raw[field][1] = value
    raw.tofile(records)
    cache = EmbeddingCache(tmp_path, client.encoder_id, 8)
    with pytest.raises(IndexIntegrityError, match="a norm or bucket out of range, first in record 1 "):
        embed_cached(["c", "b", "a"], client, cache)
    assert embed_cached(["a"], client, cache).tobytes() == embed_batch(["a"], client).tobytes()
