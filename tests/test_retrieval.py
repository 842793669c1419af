import numpy as np
import pytest

from hyperhop import retrieval
from hyperhop.config import AppConfig
from hyperhop.embeddings import OfflineEncoder, embed_batch
from hyperhop.entities import OfflineEntityExtractor, dedup_normalized
from hyperhop.errors import ContractError, IndexIntegrityError
from hyperhop.hypergraph import apply_diffusion_operator, entity_to_passage
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

from conftest import DATA_DIR, index_from_sets
from reference import (
    cosine,
    dense_incidence,
    dense_pipeline,
    dense_shared_counts,
    per_call_entity_similarity,
    per_call_passage_similarity,
    random_entity_sets,
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
    """diffuse() as one loop over the whole incidence, zero-weight passages included."""
    weights = np.clip(p, 0.0, 1.0) if use_weight_matrix else np.ones(index.n_passages)
    x_t = np.asarray(x, dtype=np.float64)
    for _ in range(steps):
        x_t = apply_diffusion_operator(x_t, index.incidence, index.degrees, weights)
    return x_t, weights * entity_to_passage(x_t, index.incidence)


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
        query_rows = embed_batch(["albert einstein"], ENCODER).values
        for i, entity in enumerate(index.catalog):
            expected = max(cosine(q, index.entity_embeddings[i]) for q in query_rows)
            if expected > 0.0:
                assert x[i] == pytest.approx(expected, abs=1e-12)
            else:
                assert x[i] == 0.0

    def test_threshold_is_strict(self, toy_built):
        index, _, _ = toy_built
        x_open = build_entity_similarity(TOY_QUERY, index, ENCODER, EXTRACTOR, eta=0.999999)
        assert x_open[index.catalog.index_of("albert einstein")] == pytest.approx(1.0)

    def test_extraction_failure_degrades_to_zero_with_warning(self, toy_built):
        index, _, _ = toy_built

        class Exploding:
            def extract(self, title, text):
                raise RuntimeError("no extractor")

        warnings = []
        x = build_entity_similarity(TOY_QUERY, index, ENCODER, Exploding(), 0.8, warnings)
        assert not x.any()
        assert warnings and "extraction failed" in warnings[0]


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
        qv = embed_batch([TOY_QUERY], ENCODER).values[0]
        expected = [cosine(qv, row) for row in index.passage_embeddings]
        np.testing.assert_allclose(p, expected, rtol=1e-12)

    def test_missing_embeddings_is_integrity_error(self, toy_index):
        with pytest.raises(IndexIntegrityError):
            build_passage_similarity("q", toy_index, ENCODER)


class TestUnitRowCache:
    def test_build_computes_no_unit_rows(self, tmp_path):
        config = AppConfig(
            corpus=str(DATA_DIR / "toy_corpus.jsonl"),
            index_dir=str(tmp_path / "index"),
            cache_dir=str(tmp_path / "cache"),
            offline=True,
        )
        index, _ = build_index_from_corpus(config)
        assert "unit_entity_rows" not in vars(index)
        assert "unit_passage_rows" not in vars(index)

    def test_queries_reuse_the_unit_rows(self, toy_built):
        index, _, _ = toy_built
        retrieve(TOY_QUERY, index, RetrievalConfig(k1=1, k2=3), ENCODER, EXTRACTOR)
        entity_rows, passage_rows = index.unit_entity_rows, index.unit_passage_rows
        retrieve("Where is Brussels?", index, RetrievalConfig(k1=1, k2=3), ENCODER, EXTRACTOR)
        assert index.unit_entity_rows is entity_rows
        assert index.unit_passage_rows is passage_rows
        assert not entity_rows.flags.writeable and not passage_rows.flags.writeable

    @pytest.mark.parametrize("eta", [0.0, 0.8])
    def test_vectors_bitwise_equal_per_call_normalization(self, toy_built, eta):
        index, _, _ = toy_built
        config = RetrievalConfig(eta=eta, k1=1, k2=3)
        result = retrieve(TOY_QUERY, index, config, ENCODER, EXTRACTOR)
        query_rows = embed_batch(dedup_normalized(EXTRACTOR.extract("", TOY_QUERY)), ENCODER).values
        x = per_call_entity_similarity(query_rows, index.entity_embeddings, eta)
        p = per_call_passage_similarity(
            embed_batch([TOY_QUERY], ENCODER).values[0], index.passage_embeddings
        )
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

    @pytest.mark.parametrize("use_weight_matrix", [True, False])
    def test_restricted_support_is_bitwise_the_full_incidence_loop(self, rng, use_weight_matrix):
        for _ in range(30):
            index = random_index(rng)
            x = np.where(rng.random(index.n_entities) < 0.3, rng.random(index.n_entities), 0.0)
            p = rng.uniform(-1, 1, index.n_passages)  # about half the weights are zero
            for steps in range(7):
                x_t, p_t = diffuse(x, p, index, steps, use_weight_matrix)
                ref_x, ref_p = full_incidence_diffusion(x, p, index, steps, use_weight_matrix)
                assert x_t.tobytes() == ref_x.tobytes()
                assert p_t.dtype == np.float64 and p_t.tobytes() == ref_p.tobytes()

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
        # The restricted copy costs about half a step, so weights that are
        # nearly all positive (typical of dense embedding models) run on H.
        sets = {f"p{j}": ["a", "b"] if j % 2 else ["b", "c", "d"] for j in range(6)}
        index = index_from_sets(sets)
        supports = []

        def recording(x, incidence, degrees, weights):
            supports.append(incidence)
            return apply_diffusion_operator(x, incidence, degrees, weights)

        monkeypatch.setattr(retrieval, "apply_diffusion_operator", recording)
        x = np.array([0.9, 0.5, 0.0, 0.2])
        p = np.where(np.arange(6) < n_kept, 0.6, -0.1)
        x_t, p_t = diffuse(x, p, index, steps=2)
        assert len(supports) == 2 and supports[0] is supports[1]
        assert (supports[0] is not index.incidence) == restricted
        kept_nnz = sum(len(sets[f"p{j}"]) for j in range(n_kept))
        assert supports[0].nnz == (kept_nnz if restricted else index.incidence.nnz)
        ref_x, ref_p = full_incidence_diffusion(x, p, index, 2, True)
        assert x_t.tobytes() == ref_x.tobytes() and p_t.tobytes() == ref_p.tobytes()

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
        selected = structural_enhance(ranked_order(p_tilde), toy_index, k1=1, k2=3)
        assert selected.tolist() == [0, 1]

    def test_k1_equals_k2_is_plain_topk(self, toy_index):
        p_tilde = np.array([0.1, 0.9, 0.5])
        selected = structural_enhance(ranked_order(p_tilde), toy_index, k1=2, k2=2)
        assert selected.tolist() == [1, 2]

    def test_entityless_seed_is_retained(self):
        index = index_from_sets({"p1": [], "p2": ["a"], "p3": ["b"]})
        p_tilde = np.array([0.9, 0.2, 0.1])
        selected = structural_enhance(ranked_order(p_tilde), index, k1=1, k2=3)
        assert selected.tolist() == [0]

    def test_k_out_of_range(self, toy_index):
        with pytest.raises(ContractError):
            structural_enhance(ranked_order(np.zeros(3)), toy_index, k1=4, k2=4)
        with pytest.raises(ContractError):
            structural_enhance(ranked_order(np.zeros(3)), toy_index, k1=1, k2=5)

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
            order = ranked_order(p_tilde)
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
        assert [col for col, _ in result.ranking] == ranked_order(p).tolist()

    def test_beta_one_equals_dense_ranking(self, rng):
        for _ in range(10):
            index = random_index(rng)
            x = rng.random(index.n_entities)
            p = rng.uniform(-1, 1, index.n_passages)
            config = RetrievalConfig(beta=1.0, k1=1, k2=min(3, index.n_passages))
            result = rank_passages(x, p, index, config, ranking_depth=index.n_passages)
            assert [col for col, _ in result.ranking] == ranked_order(p).tolist()

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
            assert ranked_order(scale * p_tilde).tolist() == ranked_order(p_tilde).tolist()
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
