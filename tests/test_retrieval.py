import numpy as np
import pytest

from hyperhop import embeddings, hypergraph, retrieval
from hyperhop.config import AppConfig
from hyperhop.embeddings import (
    ROW_BLOCK,
    OfflineEncoder,
    embed_batch,
    max_sim_to_query_entities,
    screen_max_sim,
)
from hyperhop.entities import OfflineEntityExtractor, build_catalog, dedup_normalized
from hyperhop.errors import ContractError
from hyperhop.hypergraph import apply_diffusion_operator
from hyperhop.index_store import build_index
from hyperhop.pipeline import build_index_from_corpus, passage_embedding_text
from hyperhop.retrieval import (
    RetrievalConfig,
    build_entity_similarity,
    build_passage_similarity,
    diffuse,
    rank_passages,
    ranked_order,
    retrieve,
    semantic_enhance,
    shared_entity_counts,
    structural_enhance,
)

from conftest import DATA_DIR, entity_sets_of, index_from_sets
from test_embeddings import BLOCK_EDGES
from reference import (
    cosine,
    dense_incidence,
    dense_pipeline,
    dense_shared_counts,
    entity_to_passage,
    max_sim_of_unit_rows,
    normalized_rows,
    passage_cosines,
    passage_to_entity,
    per_call_entity_similarity,
    random_entity_sets,
    row_norms,
    whole_matrix_screen,
)

ENCODER = OfflineEncoder(dim=256)
EXTRACTOR = OfflineEntityExtractor()

TOY_QUERY = "What is the capital of the country where Albert Einstein was born?"
# Stipulated toy passage weights for the worked diffusion example.
TOY_WEIGHTS = np.array([0.9, 0.8, 0.3])


def random_index(rng, max_entities=50, max_passages=20):
    sets = random_entity_sets(rng, max_entities=max_entities, max_passages=max_passages)
    return index_from_sets({f"p{j:02d}": s for j, s in enumerate(sets)})


def full_incidence_diffusion(x, p, index, steps, use_weight_matrix):
    """diffuse() as one loop of full passes over the whole incidence,
    zero-weight passages included."""
    weights = np.clip(p, 0.0, 1.0) if use_weight_matrix else np.ones(index.n_passages)
    inc, degrees = index.incidence, index.degrees
    x_t = np.asarray(x, dtype=np.float64)
    for _ in range(steps):
        e = entity_to_passage(x_t * degrees.inv_sqrt_node, inc)
        e *= weights * degrees.inv_edge
        x_t = passage_to_entity(e, inc) * degrees.inv_sqrt_node
    return x_t, weights * entity_to_passage(x_t, inc)


def sparse_entity_vector(rng, n_entities):
    """1 to 3 nonzero entities, as a query's x usually has."""
    x = np.zeros(n_entities)
    chosen = rng.choice(n_entities, size=min(n_entities, int(rng.integers(1, 4))), replace=False)
    x[chosen] = rng.random(chosen.size) + 0.5
    return x


class TestRetrievalConfig:
    def test_defaults(self):
        config = RetrievalConfig()
        assert (config.eta, config.beta, config.steps) == (0.8, 0.5, 4)
        assert (config.k1, config.k2) == (5, 10)
        assert config.use_weight_matrix and config.use_semantic_enhancement
        assert config.use_structural_enhancement

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": 1.5},
            {"beta": -0.1},
            {"steps": -1},
            {"k1": 0},
            {"k1": 6, "k2": 5},
        ],
    )
    def test_rejects_bad_ranges(self, kwargs):
        with pytest.raises(ContractError):
            RetrievalConfig(**kwargs)


class TestEntitySimilarity:
    def test_exact_match_coordinate_is_one(self, toy_built):
        index, _, _ = toy_built
        x = build_entity_similarity(TOY_QUERY, index, ENCODER, EXTRACTOR, eta=0.8)
        assert x[index.catalog.index_of("albert einstein")] == pytest.approx(1.0)

    def test_eta_one_blanks_everything(self, toy_built):
        index, _, _ = toy_built
        x = build_entity_similarity(TOY_QUERY, index, ENCODER, EXTRACTOR, eta=1.0)
        assert not x.any()

    def test_eta_zero_matches_brute_force(self, toy_built):
        index, _, _ = toy_built
        x = build_entity_similarity(TOY_QUERY, index, ENCODER, EXTRACTOR, eta=0.0)
        query_rows = embed_batch(["albert einstein"], ENCODER)
        for i, entity in enumerate(index.catalog.to_list()):
            expected = max(cosine(q, index.entity_embeddings[i]) for q in query_rows)
            if expected > 0.0:
                assert x[i] == pytest.approx(expected, abs=1e-12)
            else:
                assert x[i] == 0.0

    def test_threshold_is_strict(self, toy_built):
        index, _, _ = toy_built
        x_open = build_entity_similarity(TOY_QUERY, index, ENCODER, EXTRACTOR, eta=0.999999)
        assert x_open[index.catalog.index_of("albert einstein")] == pytest.approx(1.0)

    def test_query_rows_of_another_dim_are_a_contract_error(self, toy_built):
        index, _, _ = toy_built
        with pytest.raises(ContractError, match="dim 64"):
            build_entity_similarity(TOY_QUERY, index, OfflineEncoder(dim=64), EXTRACTOR, 0.8)

    def test_extraction_failure_degrades_to_zero_with_warning(self, toy_built):
        index, _, _ = toy_built

        class Exploding:
            def extract(self, title, text):
                raise RuntimeError("no extractor")

        warnings = []
        x = build_entity_similarity(TOY_QUERY, index, ENCODER, Exploding(), 0.8, warnings)
        assert not x.any()
        assert warnings and "extraction failed" in warnings[0]


class FixedQuery:
    """Extractor and encoder for a query whose entities are given: each
    name extracts as itself and embeds as its row."""

    encoder_id = "fixed"

    def __init__(self, rows: dict[str, np.ndarray]):
        self.rows = rows
        self.dim = len(next(iter(rows.values())))

    def extract(self, title, text):
        return list(self.rows)

    def encode_batch(self, texts):
        return np.asarray([self.rows[t] for t in texts], dtype=np.float32)


class ListExtractor:
    def __init__(self, names):
        self.names = names

    def extract(self, title, text):
        return list(self.names)


def index_with_entity_rows(values):
    """One passage per entity, the entity rows given; each passage row is
    its entity's."""
    sets = entity_sets_of({f"p{i:05d}": [f"e{i}"] for i in range(len(values))})
    return build_index(sets, build_catalog(sets), sets.passage_ids, values, values)


class TestEntitySimilarityScreen:
    """x from the float32 screen and the float64 pass over its candidates,
    against x from the whole matrix normalized on every call."""

    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.8, 1.0])
    def test_dense_rows_match_per_call_normalization(self, rng, eta):
        passed = 0
        for _ in range(20):
            dim = int(rng.choice([8, 64, 256]))
            n, n_query = int(rng.integers(1, 2000)), int(rng.integers(1, 4))
            query = rng.normal(size=(n_query, dim)).astype(np.float32)
            values = rng.normal(size=(n, dim)).astype(np.float32)
            # Rows around the query rows, so that every eta below 1 has passers.
            near = np.flatnonzero(rng.random(n) < 0.3)
            values[near] = (
                query[rng.integers(0, n_query, near.size)] * rng.uniform(0.1, 3.0, (near.size, 1))
                + rng.normal(size=(near.size, dim)) * rng.uniform(0.0, 1.5, (near.size, 1))
            )
            index = index_with_entity_rows(values)
            fixed = FixedQuery({f"q{j}": row for j, row in enumerate(query)})
            x = build_entity_similarity("?", index, fixed, fixed, eta)
            expected = per_call_entity_similarity(query, index.entity_embeddings, eta)
            np.testing.assert_array_equal(np.flatnonzero(x), np.flatnonzero(expected))
            # Both sides take the same unit rows, but the product over fewer
            # rows may sum in another order. Each order is within gamma_dim =
            # dim u / (1 - dim u) of the exact dot of two unit rows, so the
            # two are within 2 gamma_dim (an absolute bound: near 0 it cancels).
            u = np.finfo(np.float64).eps / 2
            gamma = dim * u / (1 - dim * u)
            np.testing.assert_allclose(x, expected, rtol=0, atol=2 * gamma)
            passed += np.count_nonzero(expected)
        assert passed > 0 or eta == 1.0

    def test_a_screen_that_keeps_most_rows_matches_the_oracle(self, rng):
        # Dense rows leaning toward the query rows, at eta 0: the screen keeps
        # more than half of them, and they are scored over several blocks.
        dim, n = 64, 3 * ROW_BLOCK + 7
        query = rng.normal(size=(3, dim)).astype(np.float32)
        values = (rng.normal(size=(n, dim)) + query.sum(axis=0)).astype(np.float32)
        values[5] = 0.0
        index = index_with_entity_rows(values)
        kept = screen_max_sim(query, values, index.entity_rows.norms, 0.0)
        assert kept.size > n / 2
        fixed = FixedQuery({f"q{j}": row for j, row in enumerate(query)})
        x = build_entity_similarity("?", index, fixed, fixed, 0.0)
        expected = per_call_entity_similarity(query, values, 0.0)
        u = np.finfo(np.float64).eps / 2
        gamma = dim * u / (1 - dim * u)
        np.testing.assert_allclose(x, expected, rtol=0, atol=2 * gamma)
        assert x[5] == 0.0 and np.count_nonzero(x) > n / 2

    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.8])
    def test_offline_rows_match_per_call_normalization(self, rng, eta):
        words = [f"w{i}" for i in range(200)]
        names = sorted({" ".join(rng.choice(words, rng.integers(1, 4))) for _ in range(3000)})
        index = index_with_entity_rows(embed_batch(names, ENCODER))
        unit_entities = normalized_rows(index.entity_embeddings)
        dim = ENCODER.dim
        u = np.finfo(np.float64).eps / 2
        gamma = dim * u / (1 - dim * u)
        passed = 0
        for _ in range(30):
            query_names = [names[rng.integers(len(names))]] + [
                " ".join(rng.choice(words, rng.integers(1, 4))) for _ in range(rng.integers(0, 3))
            ]
            x = build_entity_similarity("?", index, ENCODER, ListExtractor(query_names), eta)
            query_rows = embed_batch(dedup_normalized(query_names), ENCODER)
            expected = per_call_entity_similarity(query_rows, index.entity_embeddings, eta)
            # As in the dense test, the product over the candidates may sum in
            # another order than the whole-catalog one: the values are within
            # 2 gamma_dim, and a value that close to eta may pass on one side
            # only (an exact 0 at eta 0, or a one-word match of 1/2 at eta 0.5).
            v = max_sim_of_unit_rows(query_rows, unit_entities)
            settled = np.abs(v - eta) > 2 * gamma
            np.testing.assert_allclose(x[settled], expected[settled], rtol=0, atol=2 * gamma)
            assert ((x == 0.0) | (np.abs(x - v) <= 2 * gamma))[~settled].all()
            passed += np.count_nonzero(expected)
        assert passed > 0


def cone_edge_rows(rng, dim):
    """A catalog of ``3 ROW_BLOCK + 7`` float32 rows that put the entity
    buckets' bound on edge, and the query rows that probe them.

    For each eta in (0.5, 0.8, 0.95) the rows of one axis sit within 1e-7 of
    cosine eta with SPREAD, a query row orthogonal to that axis, so their
    bucket's bound is eta itself. Among the rest: 1-sparse rows; one dense
    outlier whose largest coordinate is on an axis otherwise holding only
    1-sparse rows, with a query row that the axis alone would rule out; zero
    rows; rows of a norm outside ``[2**-126, 2**127)`` that point at a query
    row; and rows on the negative half of an axis, with a query row there.
    """
    spread = np.zeros(dim)
    spread[16:32] = 0.25  # unit, orthogonal to axes 0-15
    rows = []
    for axis, eta in enumerate((0.5, 0.8, 0.95)):
        for sign in (1.0, -1.0):
            for delta in np.linspace(-1e-7, 1e-7, 20):
                on_axis = np.sqrt(1.0 - (eta + delta) ** 2)  # above the spread coordinates
                row = (eta + delta) * spread
                row[axis] = sign * on_axis
                rows.append(10.0 ** rng.uniform(-3, 3) * row)
    outlier = np.zeros(dim)
    outlier[40] = 0.3
    outlier[32:40] = rng.uniform(-0.29, 0.29, 8)
    outlier[41:] = rng.uniform(-0.29, 0.29, dim - 41)
    rows.append(outlier)
    for _ in range(10):  # the outlier's bucket, otherwise 1-sparse: cos_r 1 without it
        row = np.zeros(dim)
        row[40] = rng.uniform(0.5, 2.0)
        rows.append(row)
    tiny, huge = np.zeros(dim), np.zeros(dim)
    tiny[50] = 3 * 2.0**-149  # these two point at the 1-sparse query row
    huge[[50, 51]] = [2e38, 1e38]  # cosine 0.89, no product overflows
    rows += [tiny, huge, np.zeros(dim), np.zeros(dim)]
    for scale in (0.5, 1.0, 3.0):  # the negative half of axis 33, for the negative query row
        row = np.zeros(dim)
        row[33] = -scale
        rows.append(row)
    while len(rows) < 3 * ROW_BLOCK + 7:  # 1- and 2-sparse rows off the spread coordinates
        row = np.zeros(dim)
        coords = rng.choice(np.r_[0:16, 32:dim], rng.integers(1, 3), replace=False)
        row[coords] = rng.choice([-2.0, -1.0, 1.0, 2.0], coords.size)
        rows.append(row)
    one_sparse, negative = np.zeros(dim), np.zeros(dim)
    one_sparse[50], negative[33] = 1.0, -2.0
    beside = outlier.copy()
    beside[40] = 0.0
    queries = [spread, beside, one_sparse, negative, rng.normal(size=dim)]
    rows = np.asarray(rows, dtype=np.float32)[rng.permutation(len(rows))]
    return rows, np.asarray(queries, dtype=np.float32)


@pytest.fixture
def screened(monkeypatch):
    """The corpus rows of every ``screen_max_sim`` call that
    ``EntityRows.candidates`` makes, in order."""
    calls = []

    def spy(query_rows, corpus_rows, corpus_norms, eta):
        calls.append(corpus_rows)
        return screen_max_sim(query_rows, corpus_rows, corpus_norms, eta)

    monkeypatch.setattr(embeddings, "screen_max_sim", spy)
    return calls


class TestEntityBuckets:
    """x when the entity buckets skip rows before the screen."""

    def test_cone_edge_rows_give_x_bit_for_bit(self, rng, screened):
        dim = 64
        pool, queries = cone_edge_rows(rng, dim)
        passed = {}
        for n_rows in BLOCK_EDGES:
            values = pool[rng.permutation(pool.shape[0])[:n_rows]]
            index = index_with_entity_rows(values)
            norms = index.entity_rows.norms
            for n_query in (1, 2, 3, 4):
                query = queries[rng.choice(len(queries), n_query, replace=False)]
                fixed = FixedQuery({f"q{j}": row for j, row in enumerate(query)})
                for eta in (0.0, 0.5, 0.8, 0.95):
                    x = build_entity_similarity("?", index, fixed, fixed, eta)
                    candidates = whole_matrix_screen(query, values, norms, eta)
                    v = max_sim_to_query_entities(query, values, norms, candidates)
                    expected = np.zeros(n_rows)
                    expected[candidates] = np.where(v > eta, v, 0.0)
                    assert x.tobytes() == expected.tobytes(), (n_rows, n_query, eta)
                    passed[eta] = passed.get(eta, 0) + np.count_nonzero(x)
        # Both paths ran, and every eta had rows above it.
        sizes = [len(rows) for rows in screened]
        catalogs = [n for n in BLOCK_EDGES for _ in range(4 * 4)]
        assert any(s < n for s, n in zip(sizes, catalogs))
        assert any(s == n > 0 for s, n in zip(sizes, catalogs))
        assert all(passed[eta] > 0 for eta in passed)

    def test_edge_rows_fall_on_both_sides_of_eta(self, rng):
        # The test above is adversarial only if the edge rows straddle eta.
        pool, queries = cone_edge_rows(rng, 64)
        v = max_sim_to_query_entities(queries[:1], pool, row_norms(pool), np.arange(len(pool)))
        for eta in (0.5, 0.8, 0.95):
            near = np.abs(v - eta) < 2e-7
            assert np.count_nonzero(near & (v > eta)) > 3
            assert np.count_nonzero(near & (v <= eta)) > 3

    def test_offline_rows_screen_under_5_percent_of_the_catalog(self, rng, screened):
        # Two-word names, as the offline extractor finds in the benchmark
        # corpora: each row puts 1/sqrt(2) of its norm on one coordinate, or
        # all of it when the two words share a coordinate.
        syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
        words = ["".join(triple) for triple in rng.choice(syllables, (4000, 3))]
        names = sorted({f"{a} {b}" for a, b in rng.choice(words, (5000, 2))})
        index = index_with_entity_rows(embed_batch(names, ENCODER))
        for _ in range(30):
            rows = rng.choice(len(names), rng.integers(1, 4), replace=False)
            asked = [names[i] for i in rows]
            x = build_entity_similarity("?", index, ENCODER, ListExtractor(asked), 0.8)
            assert (x[rows] > 0.99).all()
            assert screened.pop().shape[0] < 0.05 * len(names)
            build_entity_similarity("?", index, ENCODER, ListExtractor(asked), 0.0)
            assert screened.pop() is index.entity_embeddings  # in place

    def test_dense_rows_are_screened_in_place(self, rng, screened):
        values = rng.normal(size=(3000, 64)).astype(np.float32)
        index = index_with_entity_rows(values)
        for eta in (0.0, 0.8, 0.95):
            query = rng.normal(size=(2, 64)).astype(np.float32)
            fixed = FixedQuery({f"q{j}": row for j, row in enumerate(query)})
            build_entity_similarity("?", index, fixed, fixed, eta)
            assert screened.pop() is index.entity_embeddings


class TestPassageSimilarity:
    def test_identical_text_scores_one(self, toy_built):
        index, passages, _ = toy_built
        query = passage_embedding_text(passages[1])
        p = build_passage_similarity(query, index, ENCODER)
        assert p[1] == pytest.approx(1.0, abs=1e-6)

    def test_tokenless_query_gives_zero_vector(self, toy_built):
        index, _, _ = toy_built
        p = build_passage_similarity("?!", index, ENCODER)
        assert not p.any()

    def test_matches_scalar_cosine(self, toy_built):
        index, _, _ = toy_built
        p = build_passage_similarity(TOY_QUERY, index, ENCODER)
        qv = embed_batch([TOY_QUERY], ENCODER)[0]
        expected = [cosine(qv, row) for row in index.passage_embeddings]
        np.testing.assert_allclose(p, expected, rtol=1e-12)


class TestRowCache:
    def test_build_computes_no_row_caches(self, tmp_path):
        config = AppConfig(
            corpus=str(DATA_DIR / "toy_corpus.jsonl"),
            index_dir=str(tmp_path / "index"),
            cache_dir=str(tmp_path / "cache"),
            offline=True,
        )
        index, _ = build_index_from_corpus(config)
        assert "entity_rows" not in vars(index)
        assert "passage_rows" not in vars(index)

    def test_queries_reuse_the_row_caches(self, toy_built):
        index, _, _ = toy_built
        retrieve(TOY_QUERY, index, RetrievalConfig(k1=1, k2=3), ENCODER, EXTRACTOR)
        entity_rows, passage_rows = index.entity_rows, index.passage_rows
        retrieve("Where is Brussels?", index, RetrievalConfig(k1=1, k2=3), ENCODER, EXTRACTOR)
        assert index.entity_rows is entity_rows
        assert index.passage_rows is passage_rows
        assert not entity_rows.norms.flags.writeable
        assert not passage_rows.columns.flags.writeable and not passage_rows.norms.flags.writeable

    @pytest.mark.parametrize("eta", [0.0, 0.8])
    def test_vectors_bitwise_equal_per_call_normalization(self, toy_built, eta):
        index, _, _ = toy_built
        config = RetrievalConfig(eta=eta, k1=1, k2=3)
        result = retrieve(TOY_QUERY, index, config, ENCODER, EXTRACTOR)
        query_rows = embed_batch(dedup_normalized(EXTRACTOR.extract("", TOY_QUERY)), ENCODER)
        x = per_call_entity_similarity(query_rows, index.entity_embeddings, eta)
        p = passage_cosines(embed_batch([TOY_QUERY], ENCODER)[0], index.passage_embeddings)
        expected = rank_passages(x, p, index, config).artifacts
        assert x.any()
        np.testing.assert_array_equal(result.artifacts.x, x)
        np.testing.assert_array_equal(result.artifacts.p, p)
        np.testing.assert_array_equal(result.artifacts.p_tilde, expected.p_tilde)


class TestDiffuse:
    def test_zero_steps_is_single_hop(self, toy_index, rng):
        x = rng.random(5)
        p = rng.random(3)
        _, p0 = diffuse(x, p, toy_index, steps=0)
        dense = dense_incidence(toy_index.incidence)
        np.testing.assert_array_equal(p0, np.clip(p, 0, 1) * (dense.T @ x))

    def test_zero_x_stays_zero(self, toy_index, rng):
        for steps in (0, 1, 4):
            _, p_t = diffuse(np.zeros(5), rng.random(3), toy_index, steps)
            assert not p_t.any()

    def test_toy_one_step_ordering(self, toy_index):
        x = np.zeros(5)
        x[toy_index.catalog.index_of("albert einstein")] = 1.0
        _, p_t = diffuse(x, TOY_WEIGHTS, toy_index, steps=1)
        oracle = dense_pipeline(
            dense_incidence(toy_index.incidence), x, TOY_WEIGHTS, steps=1, beta=0.0,
            use_semantic_enhancement=False,
        )
        np.testing.assert_allclose(p_t, oracle, rtol=1e-12)
        assert p_t[0] > p_t[1] > p_t[2]

    def test_weight_matrix_ablation_uses_ones(self, toy_index, rng):
        x = rng.random(5)
        p = rng.uniform(-1, 1, 3)
        _, with_ones = diffuse(x, p, toy_index, steps=2, use_weight_matrix=False)
        _, reference = diffuse(x, np.ones(3), toy_index, steps=2, use_weight_matrix=True)
        np.testing.assert_array_equal(with_ones, reference)

    def test_nonnegative_inputs_give_nonnegative_relevance(self, rng):
        for _ in range(15):
            index = random_index(rng)
            x = rng.random(index.n_entities)
            p = rng.uniform(-1, 1, index.n_passages)
            x_t, p_t = diffuse(x, p, index, steps=int(rng.integers(0, 5)))
            assert (x_t >= 0.0).all()
            assert (p_t >= 0.0).all()

    def test_negative_similarities_clamped(self, toy_index, rng):
        x = rng.random(5)
        p = np.array([-0.5, 0.5, -0.1])
        _, p_t = diffuse(x, p, toy_index, steps=1)
        _, p_ref = diffuse(x, np.array([0.0, 0.5, 0.0]), toy_index, steps=1)
        np.testing.assert_array_equal(p_t, p_ref)

    def test_dimension_mismatch(self, toy_index):
        with pytest.raises(ContractError):
            diffuse(np.zeros(5), np.zeros(2), toy_index, steps=1)

    @pytest.mark.parametrize("frontier_share", [0.0, np.inf], ids=["all-full", "all-frontier"])
    @pytest.mark.parametrize(
        "kept_share",
        [0.0, 2 / 3, 1.0],
        ids=["restrict-if-none-kept", "restrict-default", "restrict-always"],
    )
    @pytest.mark.parametrize("use_weight_matrix", [True, False])
    @pytest.mark.parametrize("weights", ["signed", "zero-or-negative-zero", "all-zero"])
    def test_restricted_support_is_bitwise_the_full_incidence_loop(
        self, rng, monkeypatch, frontier_share, kept_share, use_weight_matrix, weights
    ):
        monkeypatch.setattr(hypergraph, "_FRONTIER_MAX_SHARE", frontier_share)
        monkeypatch.setattr(hypergraph, "_RESTRICT_MAX_KEPT_SHARE", kept_share)
        for _ in range(15):
            index = random_index(rng)
            n_e, n_p = index.n_entities, index.n_passages
            p = {
                "signed": rng.uniform(-1, 1, n_p),  # about half the weights are zero
                "zero-or-negative-zero": np.where(rng.random(n_p) < 0.5, -0.0, rng.random(n_p)),
                "all-zero": np.where(rng.random(n_p) < 0.5, -0.0, -rng.random(n_p)),
            }[weights]
            dense = np.where(rng.random(n_e) < 0.3, rng.random(n_e), 0.0)
            for x in (dense, sparse_entity_vector(rng, n_e)):
                for steps in range(7):
                    x_t, p_t = diffuse(x, p, index, steps, use_weight_matrix)
                    ref_x, ref_p = full_incidence_diffusion(x, p, index, steps, use_weight_matrix)
                    assert x_t.tobytes() == ref_x.tobytes()
                    assert p_t.dtype == np.float64 and p_t.tobytes() == ref_p.tobytes()

    def test_frontier_just_below_and_just_above_the_cut_over(self, rng, monkeypatch):
        # Step 1's H^T reaches the entries of x's 1-3 entities. A cut-over half
        # an entry above that takes the frontier route, half an entry below
        # the full one, and both give the bytes of the full loop.
        for _ in range(20):
            index = random_index(rng)
            x = sparse_entity_vector(rng, index.n_entities)
            p = rng.uniform(-1, 1, index.n_passages)
            reach = index.degrees.node_degrees[x != 0].sum()
            for entries, frontier in ((reach + 0.5, True), (reach - 0.5, False)):
                cut_over = entries / index.incidence.nnz
                monkeypatch.setattr(hypergraph, "_FRONTIER_MAX_SHARE", cut_over)
                support = hypergraph.DiffusionSupport(
                    index.incidence, index.degrees, np.clip(p, 0.0, 1.0)
                )
                support.entity_to_passage(x * index.degrees.inv_sqrt_node)
                assert support.full is not frontier
                for steps in range(5):
                    x_t, p_t = diffuse(x, p, index, steps)
                    ref_x, ref_p = full_incidence_diffusion(x, p, index, steps, True)
                    assert x_t.tobytes() == ref_x.tobytes() and p_t.tobytes() == ref_p.tobytes()

    def test_entityless_passages_keep_zero_relevance(self, rng):
        index = index_from_sets({"P1": ["a", "b"], "P2": [], "P3": ["b", "c"], "P4": []})
        x = np.array([0.9, 0.0, 0.0])
        p = np.array([0.5, 0.7, -0.2, 0.0])
        for steps in range(7):
            x_t, p_t = diffuse(x, p, index, steps)
            ref_x, ref_p = full_incidence_diffusion(x, p, index, steps, True)
            assert x_t.tobytes() == ref_x.tobytes() and p_t.tobytes() == ref_p.tobytes()
            assert p_t[1] == 0.0 and p_t[3] == 0.0

    def test_all_weights_zero_gives_float64_zeros(self, rng):
        for _ in range(10):
            index = random_index(rng)
            x = rng.random(index.n_entities)
            p = -rng.random(index.n_passages)
            for steps in range(7):
                x_t, p_t = diffuse(x, p, index, steps)
                assert p_t.dtype == np.float64 and p_t.shape == (index.n_passages,)
                assert not p_t.any()
                if steps:
                    assert x_t.dtype == np.float64 and not x_t.any()

    @pytest.mark.parametrize("n_kept, restricted", [(0, True), (4, True), (5, False), (6, False)])
    def test_restricts_h_only_when_at_most_two_thirds_are_kept(
        self, monkeypatch, n_kept, restricted
    ):
        # Restricting costs most of a full half-step over H, so weights that
        # are nearly all positive (typical of dense embedding models) run on H.
        monkeypatch.setattr(hypergraph, "_FRONTIER_MAX_SHARE", 0.0)  # full from the start
        sets = {f"p{j}": ["a", "b"] if j % 2 else ["b", "c", "d"] for j in range(6)}
        index = index_from_sets(sets)
        supports = []

        def recording(x, incidence, degrees, weights, support):
            supports.append(support)
            return apply_diffusion_operator(x, incidence, degrees, weights, support)

        monkeypatch.setattr(retrieval, "apply_diffusion_operator", recording)
        x = np.array([0.9, 0.5, 0.0, 0.2])
        p = np.where(np.arange(6) < n_kept, 0.6, -0.1)
        x_t, p_t = diffuse(x, p, index, steps=2)
        assert len(supports) == 2 and supports[0] is supports[1]
        rows, columns = supports[0].entries()
        assert (rows is not index.incidence.pas_indices) == restricted
        kept_nnz = sum(len(sets[f"p{j}"]) for j in range(n_kept))
        assert rows.shape == columns.shape == (kept_nnz if restricted else index.incidence.nnz,)
        ref_x, ref_p = full_incidence_diffusion(x, p, index, 2, True)
        assert x_t.tobytes() == ref_x.tobytes() and p_t.tobytes() == ref_p.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n_kept", [2, 6])  # restricted support, or H itself
    def test_non_finite_input_is_a_contract_error(self, bad, n_kept):
        sets = {f"p{j}": ["a", "b"] if j % 2 else ["b", "c", "d"] for j in range(6)}
        index = index_from_sets(sets)
        x = np.array([0.9, 0.5, 0.0, 0.2])
        p = np.where(np.arange(6) < n_kept, 0.6, -0.1)
        config = RetrievalConfig(k1=1, k2=3)
        for where in (0, 5):  # passage 5 has weight zero when two are kept
            bad_p = p.copy()
            bad_p[where] = bad
            with pytest.raises(ContractError, match="^p holds a non-finite value$"):
                diffuse(x, bad_p, index, steps=2)
            with pytest.raises(ContractError, match="^p holds a non-finite value$"):
                rank_passages(x, bad_p, index, config)
            with pytest.raises(ContractError, match="^p holds a non-finite value$"):
                rank_passages(np.zeros(4), bad_p, index, config)  # the dense fallback too
        bad_x = x.copy()
        bad_x[2] = bad
        with pytest.raises(ContractError, match="^x holds a non-finite value$"):
            diffuse(bad_x, p, index, steps=2)
        with pytest.raises(ContractError, match="^x holds a non-finite value$"):
            rank_passages(bad_x, p, index, config)

    def test_calls_the_module_level_diffusion_step_once_per_step(self, toy_index, monkeypatch):
        # Tracing wraps retrieval.apply_diffusion_operator and counts the
        # nonzero entities of each output, so every step must go through it.
        outputs = []

        def counting(*args):
            out = apply_diffusion_operator(*args)
            outputs.append(out)
            return out

        monkeypatch.setattr(retrieval, "apply_diffusion_operator", counting)
        x = np.zeros(5)
        x[toy_index.catalog.index_of("albert einstein")] = 1.0
        for steps in range(5):
            outputs.clear()
            x_t, _ = diffuse(x, TOY_WEIGHTS, toy_index, steps)
            assert len(outputs) == steps
            assert all(out.shape == (5,) for out in outputs)
            if steps:
                assert outputs[-1] is x_t


class TestSemanticEnhance:
    def test_beta_one_returns_p(self, rng):
        p_t, p = rng.random(4), rng.random(4)
        np.testing.assert_array_equal(semantic_enhance(p_t, p, beta=1.0), p)

    def test_beta_zero_returns_p_t(self, rng):
        p_t, p = rng.random(4), rng.random(4)
        np.testing.assert_array_equal(semantic_enhance(p_t, p, beta=0.0), p_t)

    def test_halfway_arithmetic(self):
        out = semantic_enhance(np.array([0.2, 0.4]), np.array([0.6, 0.0]), beta=0.5)
        np.testing.assert_allclose(out, [0.4, 0.2], rtol=1e-15)

    def test_disabled_passes_through(self, rng):
        p_t, p = rng.random(4), rng.random(4)
        np.testing.assert_array_equal(semantic_enhance(p_t, p, 0.7, enabled=False), p_t)


class TestRankedOrder:
    def test_prefix_matches_full_lexsort_under_heavy_ties(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 40))
            levels = rng.uniform(-1, 1, int(rng.integers(3, 5)))
            scores = rng.choice(levels, size=n)
            full = np.lexsort((np.arange(n), -scores))
            for depth in (1, n - 1, n, n + 1, int(rng.integers(1, n + 1))):
                np.testing.assert_array_equal(ranked_order(scores, depth), full[:depth])

    def test_all_equal_and_signed_zero_scores(self):
        for scores in (np.full(7, 0.25), np.array([0.0, -0.0, 0.0, -0.0, 0.5])):
            n = scores.shape[0]
            full = np.lexsort((np.arange(n), -scores))
            for depth in (1, n - 1, n, n + 1):
                np.testing.assert_array_equal(ranked_order(scores, depth), full[:depth])


class TestStructuralEnhance:
    def test_toy_selection_drops_unlinked(self, toy_index):
        # Seed P1; P2 shares "germany", P3 shares nothing.
        p_tilde = np.array([0.9, 0.5, 0.4])
        selected = structural_enhance(ranked_order(p_tilde, len(p_tilde)), toy_index, k1=1, k2=3)
        assert selected.tolist() == [0, 1]

    def test_k1_equals_k2_is_plain_topk(self, toy_index):
        p_tilde = np.array([0.1, 0.9, 0.5])
        selected = structural_enhance(ranked_order(p_tilde, len(p_tilde)), toy_index, k1=2, k2=2)
        assert selected.tolist() == [1, 2]

    def test_entityless_seed_is_retained(self):
        index = index_from_sets({"p1": [], "p2": ["a"], "p3": ["b"]})
        p_tilde = np.array([0.9, 0.2, 0.1])
        selected = structural_enhance(ranked_order(p_tilde, len(p_tilde)), index, k1=1, k2=3)
        assert selected.tolist() == [0]

    def test_k_out_of_range(self, toy_index):
        with pytest.raises(ContractError):
            structural_enhance(ranked_order(np.zeros(3), 3), toy_index, k1=4, k2=4)
        with pytest.raises(ContractError):
            structural_enhance(ranked_order(np.zeros(3), 3), toy_index, k1=1, k2=5)

    def test_shared_counts_match_dense_oracle(self, rng):
        for _ in range(25):
            index = random_index(rng)
            n = index.n_passages
            k1 = int(rng.integers(1, n + 1))
            seeds = rng.choice(n, size=k1, replace=False)
            candidates = np.arange(n)
            sparse = shared_entity_counts(index, seeds, candidates)
            dense = dense_shared_counts(dense_incidence(index.incidence), seeds)
            np.testing.assert_array_equal(sparse, dense.astype(np.int64))

    def test_containment_on_random_instances(self, rng):
        for _ in range(40):
            index = random_index(rng)
            n = index.n_passages
            k2 = int(rng.integers(1, n + 1))
            k1 = int(rng.integers(1, k2 + 1))
            p_tilde = rng.random(n)
            order = ranked_order(p_tilde, len(p_tilde))
            seeds, topk2 = set(order[:k1].tolist()), set(order[:k2].tolist())
            selected = structural_enhance(ranked_order(p_tilde, k2), index, k1, k2)
            chosen = set(selected.tolist())
            assert seeds <= chosen <= topk2
            assert k1 <= len(chosen) <= k2
            for col in chosen - seeds:
                assert shared_entity_counts(index, np.array(sorted(seeds)), np.array([col]))[0] > 0


class TestRankPassages:
    def test_matches_dense_pipeline(self, rng):
        for _ in range(30):
            index = random_index(rng)
            config = RetrievalConfig(
                beta=float(rng.random()),
                steps=int(rng.integers(0, 7)),
                k1=1,
                k2=max(1, min(10, index.n_passages)),
            )
            x = rng.random(index.n_entities) * (rng.random(index.n_entities) > 0.5)
            p = rng.uniform(-1, 1, index.n_passages)
            result = rank_passages(x, p, index, config)
            oracle = dense_pipeline(
                dense_incidence(index.incidence), x, p, config.steps, config.beta
            )
            if x.any():
                np.testing.assert_allclose(
                    result.artifacts.p_tilde, oracle, rtol=1e-9, atol=1e-12
                )

    def test_zero_x_falls_back_to_dense_ranking(self, toy_index, rng):
        p = rng.uniform(-1, 1, 3)
        config = RetrievalConfig(k1=1, k2=3, beta=0.0)
        result = rank_passages(np.zeros(5), p, toy_index, config)
        assert result.diagnostics.dense_fallback
        assert [col for col, _ in result.ranking] == ranked_order(p, len(p)).tolist()

    def test_beta_one_equals_dense_ranking(self, rng):
        for _ in range(10):
            index = random_index(rng)
            x = rng.random(index.n_entities)
            p = rng.uniform(-1, 1, index.n_passages)
            config = RetrievalConfig(beta=1.0, k1=1, k2=min(3, index.n_passages))
            result = rank_passages(x, p, index, config, ranking_depth=index.n_passages)
            assert [col for col, _ in result.ranking] == ranked_order(p, len(p)).tolist()

    def test_ablation_reduces_to_masked_entity_overlap(self, rng):
        for _ in range(10):
            index = random_index(rng)
            x = rng.random(index.n_entities)
            p = rng.uniform(-1, 1, index.n_passages)
            config = RetrievalConfig(
                steps=0,
                use_weight_matrix=False,
                use_semantic_enhancement=False,
                k1=1,
                k2=min(2, index.n_passages),
            )
            result = rank_passages(x, p, index, config)
            expected = dense_incidence(index.incidence).T @ x
            np.testing.assert_allclose(result.artifacts.p_tilde, expected, rtol=1e-12)

    def test_structural_disabled_selects_topk1(self, rng):
        index = random_index(rng)
        x = rng.random(index.n_entities)
        p = rng.random(index.n_passages)
        k1 = min(3, index.n_passages)
        config = RetrievalConfig(
            k1=k1, k2=min(8, index.n_passages), use_structural_enhancement=False
        )
        result = rank_passages(x, p, index, config)
        assert [col for col, _ in result.selected] == [col for col, _ in result.ranking[:k1]]

    def test_scores_non_increasing_with_index_tiebreak(self, toy_index):
        p = np.array([0.5, 0.5, 0.9])
        result = rank_passages(np.zeros(5), p, toy_index, RetrievalConfig(k1=1, k2=3))
        assert [col for col, _ in result.ranking] == [2, 0, 1]

    def test_scale_equivariance_of_selection(self, rng):
        for scale in (0.001, 1.0, 42.0):
            index = random_index(rng)
            n = index.n_passages
            p_tilde = rng.uniform(-1, 1, n)
            k2 = int(rng.integers(1, n + 1))
            k1 = int(rng.integers(1, k2 + 1))
            assert ranked_order(scale * p_tilde, n).tolist() == ranked_order(p_tilde, n).tolist()
            np.testing.assert_array_equal(
                structural_enhance(ranked_order(scale * p_tilde, k2), index, k1, k2),
                structural_enhance(ranked_order(p_tilde, k2), index, k1, k2),
            )

    def test_norm_non_expansion(self, rng):
        for _ in range(20):
            index = random_index(rng)
            x = rng.random(index.n_entities)
            p = rng.random(index.n_passages)
            weights = np.clip(p, 0, 1)
            from hyperhop.hypergraph import apply_diffusion_operator

            x_t = x.copy()
            for _step in range(6):
                x_t = apply_diffusion_operator(x_t, index.incidence, index.degrees, weights)
                assert np.linalg.norm(x_t) <= np.linalg.norm(x) * (1 + 1e-12)

    def test_k_range_clamped_on_tiny_corpus(self, toy_index):
        result = rank_passages(np.zeros(5), np.array([0.3, 0.2, 0.1]), toy_index,
                               RetrievalConfig())
        assert (result.diagnostics.k1_effective, result.diagnostics.k2_effective) == (3, 3)
        assert any("clamped" in w for w in result.diagnostics.warnings)

    def test_empty_corpus_yields_empty_result(self):
        index = index_from_sets({})
        result = rank_passages(np.zeros(0), np.zeros(0), index, RetrievalConfig())
        assert result.ranking == [] and result.selected == []
        assert any("empty corpus" in w for w in result.diagnostics.warnings)

    def test_bitwise_determinism(self, rng):
        index = random_index(rng)
        x = rng.random(index.n_entities)
        p = rng.uniform(-1, 1, index.n_passages)
        config = RetrievalConfig(k1=1, k2=min(4, index.n_passages))
        a = rank_passages(x, p, index, config)
        b = rank_passages(x, p, index, config)
        assert a.ranking == b.ranking
        assert a.selected == b.selected
        assert a.artifacts.p_tilde.tobytes() == b.artifacts.p_tilde.tobytes()


class TestRetrieveEndToEnd:
    def test_toy_stipulated_weights_select_p1_p2(self, toy_index):
        # Composition of the worked diffusion and selection examples.
        x = np.zeros(5)
        x[toy_index.catalog.index_of("albert einstein")] = 1.0
        config = RetrievalConfig(beta=0.5, steps=1, k1=1, k2=3)
        result = rank_passages(x, TOY_WEIGHTS, toy_index, config)
        assert [col for col, _ in result.selected] == [0, 1]
        oracle = dense_pipeline(dense_incidence(toy_index.incidence), x, TOY_WEIGHTS, 1, 0.5)
        np.testing.assert_allclose(result.artifacts.p_tilde, oracle, rtol=1e-12)

    def test_offline_query_selects_p1_p2(self, toy_built):
        index, _, _ = toy_built
        config = RetrievalConfig(k1=1, k2=3)
        result = retrieve(TOY_QUERY, index, config, ENCODER, EXTRACTOR)
        assert [index.passage_ids[col] for col, _ in result.selected] == ["P1", "P2"]
        assert result.diagnostics.nonzero_entity_count >= 1
        assert not result.diagnostics.dense_fallback

    def test_payload_shape(self, toy_built):
        index, _, _ = toy_built
        config = RetrievalConfig(k1=1, k2=3)
        result = retrieve(TOY_QUERY, index, config, ENCODER, EXTRACTOR)
        payload = result.to_payload(TOY_QUERY, index.passage_ids, 3)
        assert payload["query"] == TOY_QUERY
        assert [e["id"] for e in payload["selected"]] == ["P1", "P2"]
        assert len(payload["topk2"]) == 3
        assert "nonzero_entity_count" in payload["diagnostics"]
