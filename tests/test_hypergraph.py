import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperhop.entities import EntitySet, build_catalog
from hyperhop.errors import ContractError
from hyperhop.hypergraph import (
    apply_diffusion_operator,
    build_incidence,
    compute_degrees,
    entity_to_passage,
    graph_stats,
    keep_passages,
    passage_to_entity,
)

from conftest import TOY_SETS, index_from_sets
from reference import dense_incidence, dense_propagation_matrix, random_entity_sets


def make_incidence(sets_by_pid):
    pids = sorted(sets_by_pid)
    entity_sets = [EntitySet(pid, tuple(sets_by_pid[pid])) for pid in pids]
    catalog = build_catalog(entity_sets)
    return build_incidence(entity_sets, catalog), catalog


class TestBuildIncidence:
    def test_toy_shape_and_counts(self):
        incidence, catalog = make_incidence(TOY_SETS)
        assert (incidence.n_entities, incidence.n_passages) == (5, 3)
        assert incidence.nnz == 7
        degrees = compute_degrees(incidence)
        assert degrees.edge_degrees.tolist() == [2, 3, 2]
        germany = catalog.index_of("germany")
        assert degrees.node_degrees[germany] == 2
        assert np.flatnonzero(dense_incidence(incidence)[germany]).tolist() == [0, 1]
        assert incidence.pas_columns.tolist() == [0, 0, 1, 1, 1, 2, 2]

    def test_empty_entity_set_gives_zero_column(self):
        incidence, _ = make_incidence({"p1": ["a"], "p2": []})
        degrees = compute_degrees(incidence)
        assert degrees.edge_degrees.tolist() == [1, 0]

    def test_single_cell(self):
        incidence, _ = make_incidence({"p1": ["only"]})
        assert dense_incidence(incidence).tolist() == [[1.0]]
        degrees = compute_degrees(incidence)
        assert degrees.node_degrees.tolist() == [1]
        assert degrees.edge_degrees.tolist() == [1]

    def test_uncataloged_entity_rejected(self):
        entity_sets = [EntitySet("p1", ("a",)), EntitySet("p2", ("b",))]
        catalog = build_catalog(entity_sets[:1])
        with pytest.raises(ContractError, match="^passage 'p2': entity 'b' not in catalog$"):
            build_incidence(entity_sets, catalog)

    def test_rows_ascend_within_passages_on_random_graphs(self, rng):
        for _ in range(20):
            sets = random_entity_sets(rng)
            pids = [f"p{j:02d}" for j in range(len(sets))]
            incidence, catalog = make_incidence(dict(zip(pids, sets)))
            for j, names in enumerate(sets):
                lo, hi = incidence.pas_offsets[j], incidence.pas_offsets[j + 1]
                assert incidence.pas_indices[lo:hi].tolist() == sorted(
                    catalog.index_of(e) for e in names
                )
                assert (incidence.pas_columns[lo:hi] == j).all()

    def test_rows_sorted_even_when_entities_arrive_out_of_catalog_order(self):
        incidence, catalog = make_incidence({"p1": ["a", "b"], "p2": ["b", "a", "c"]})
        assert [catalog.index_of(e) for e in ("a", "b", "c")] == [0, 1, 2]
        assert incidence.pas_indices.tolist() == [0, 1, 0, 1, 2]

    def test_degree_sums_equal_nnz(self, rng):
        for _ in range(20):
            sets = random_entity_sets(rng)
            incidence, _ = make_incidence({f"p{j:02d}": s for j, s in enumerate(sets)})
            degrees = compute_degrees(incidence)
            assert degrees.node_degrees.sum() == incidence.nnz
            assert degrees.edge_degrees.sum() == incidence.nnz
            assert (degrees.node_degrees >= 1).all()


class TestGatherScatter:
    def test_matches_dense_matvec(self, rng):
        for _ in range(10):
            sets = random_entity_sets(rng)
            incidence, _ = make_incidence({f"p{j:02d}": s for j, s in enumerate(sets)})
            H = dense_incidence(incidence)
            u = rng.normal(size=incidence.n_entities)
            w = rng.normal(size=incidence.n_passages)
            np.testing.assert_allclose(entity_to_passage(u, incidence), H.T @ u, rtol=1e-12)
            np.testing.assert_allclose(passage_to_entity(w, incidence), H @ w, rtol=1e-12)

    def test_transpose_is_bitwise_the_entity_major_sum(self, rng):
        # An entity-major pass adds each passage's terms in ascending entity
        # order; sorted rows make the passage-major gather do the same.
        for _ in range(10):
            sets = random_entity_sets(rng)
            incidence, _ = make_incidence({f"p{j:02d}": s for j, s in enumerate(sets)})
            u = rng.normal(size=incidence.n_entities)
            order = np.argsort(incidence.pas_indices, kind="stable")
            entity_major = np.bincount(
                incidence.pas_columns[order],
                weights=u[incidence.pas_indices[order]],
                minlength=incidence.n_passages,
            )
            np.testing.assert_array_equal(entity_to_passage(u, incidence), entity_major)

    def test_scatter_is_bitwise_the_repeated_passage_values(self, rng):
        for _ in range(10):
            sets = random_entity_sets(rng)
            incidence, _ = make_incidence({f"p{j:02d}": s for j, s in enumerate(sets)})
            w = rng.normal(size=incidence.n_passages)
            repeated = np.bincount(
                incidence.pas_indices,
                weights=np.repeat(w, np.diff(incidence.pas_offsets)),
                minlength=incidence.n_entities,
            )
            np.testing.assert_array_equal(passage_to_entity(w, incidence), repeated)

    def test_dimension_mismatch(self, toy_index):
        with pytest.raises(ContractError):
            entity_to_passage(np.zeros(2), toy_index.incidence)
        with pytest.raises(ContractError):
            passage_to_entity(np.zeros(2), toy_index.incidence)


class TestKeepPassages:
    def test_all_true_mask_returns_the_incidence_itself(self, toy_index):
        incidence = toy_index.incidence
        assert keep_passages(incidence, np.ones(3, dtype=bool)) is incidence

    def test_all_false_mask_leaves_no_entries(self, toy_index):
        support = keep_passages(toy_index.incidence, np.zeros(3, dtype=bool))
        assert (support.n_entities, support.n_passages, support.nnz) == (5, 3, 0)
        assert support.pas_offsets.tolist() == [0, 0, 0, 0]
        summed = entity_to_passage(np.ones(5), support)
        assert summed.dtype == np.float64 and not summed.any()

    def test_random_masks_drop_exactly_the_masked_columns(self, rng):
        for _ in range(20):
            sets = random_entity_sets(rng)
            incidence, _ = make_incidence({f"p{j:02d}": s for j, s in enumerate(sets)})
            keep = rng.random(incidence.n_passages) < 0.5
            support = keep_passages(incidence, keep)
            np.testing.assert_array_equal(
                dense_incidence(support), dense_incidence(incidence) * keep
            )
            rebuilt = np.repeat(np.arange(support.n_passages), np.diff(support.pas_offsets))
            np.testing.assert_array_equal(support.pas_columns, rebuilt)
            assert support.pas_offsets.dtype == incidence.pas_offsets.dtype

    def test_mask_length_mismatch(self, toy_index):
        with pytest.raises(ContractError):
            keep_passages(toy_index.incidence, np.ones(2, dtype=bool))


class TestDiffusionOperator:
    def test_zero_input_gives_zero(self, toy_index):
        out = apply_diffusion_operator(
            np.zeros(5), toy_index.incidence, toy_index.degrees, np.ones(3)
        )
        assert not out.any()

    def test_single_cell_half_weight(self):
        # Dense hand evaluation: D_v = D_e = 1, so the operator is just W.
        incidence, _ = make_incidence({"p1": ["only"]})
        degrees = compute_degrees(incidence)
        out = apply_diffusion_operator(np.array([1.0]), incidence, degrees, np.array([0.5]))
        assert out == pytest.approx([0.5], abs=1e-15)

    def test_toy_one_step_from_einstein(self, toy_index):
        catalog = toy_index.catalog
        x = np.zeros(5)
        x[catalog.index_of("albert einstein")] = 1.0
        out = apply_diffusion_operator(x, toy_index.incidence, toy_index.degrees, np.ones(3))
        oracle = dense_propagation_matrix(dense_incidence(toy_index.incidence), np.ones(3)) @ x
        np.testing.assert_allclose(out, oracle, rtol=1e-12)
        assert out[catalog.index_of("germany")] > 0.0
        assert out[catalog.index_of("brussels")] == 0.0

    def test_dimension_mismatch(self, toy_index):
        with pytest.raises(ContractError):
            apply_diffusion_operator(
                np.zeros(4), toy_index.incidence, toy_index.degrees, np.ones(3)
            )
        with pytest.raises(ContractError):
            apply_diffusion_operator(
                np.zeros(5), toy_index.incidence, toy_index.degrees, np.ones(4)
            )

    def test_matches_dense_oracle_on_random_instances(self, rng):
        for _ in range(50):
            sets = random_entity_sets(rng)
            incidence, _ = make_incidence({f"p{j:02d}": s for j, s in enumerate(sets)})
            degrees = compute_degrees(incidence)
            weights = rng.random(incidence.n_passages)
            x = rng.random(incidence.n_entities)
            sparse = apply_diffusion_operator(x, incidence, degrees, weights)
            dense = dense_propagation_matrix(dense_incidence(incidence), weights) @ x
            np.testing.assert_allclose(sparse, dense, rtol=1e-9, atol=1e-12)

    def test_nonnegativity(self, rng):
        for _ in range(20):
            sets = random_entity_sets(rng)
            incidence, _ = make_incidence({f"p{j:02d}": s for j, s in enumerate(sets)})
            degrees = compute_degrees(incidence)
            out = apply_diffusion_operator(
                rng.random(incidence.n_entities),
                incidence,
                degrees,
                rng.random(incidence.n_passages),
            )
            assert (out >= 0.0).all()

    def test_entityless_passage_is_inert(self, rng):
        base = dict(TOY_SETS)
        augmented = {**base, "P4": []}
        idx_a = index_from_sets(base)
        idx_b = index_from_sets(augmented)
        x = rng.random(5)
        out_a = apply_diffusion_operator(x, idx_a.incidence, idx_a.degrees, np.full(3, 0.7))
        out_b = apply_diffusion_operator(x, idx_b.incidence, idx_b.degrees, np.full(4, 0.7))
        np.testing.assert_array_equal(out_a, out_b)


class TestSpectralProperties:
    def test_dense_operator_is_symmetric(self, rng):
        for _ in range(20):
            sets = random_entity_sets(rng)
            incidence, _ = make_incidence({f"p{j:02d}": s for j, s in enumerate(sets)})
            weights = rng.random(incidence.n_passages)
            dense = dense_propagation_matrix(dense_incidence(incidence), weights)
            assert np.abs(dense - dense.T).max() < 1e-12

    def test_eigenvalues_within_unit_band(self, rng):
        for _ in range(20):
            sets = random_entity_sets(rng)
            incidence, _ = make_incidence({f"p{j:02d}": s for j, s in enumerate(sets)})
            weights = rng.random(incidence.n_passages)
            dense = dense_propagation_matrix(dense_incidence(incidence), weights)
            eigenvalues = np.linalg.eigvalsh(dense)
            assert eigenvalues.min() >= -1e-9
            assert eigenvalues.max() <= 1.0 + 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_operator_agrees_with_oracle_property(seed):
    rng = np.random.default_rng(seed)
    sets = random_entity_sets(rng, max_entities=20, max_passages=8)
    incidence, _ = make_incidence({f"p{j:02d}": s for j, s in enumerate(sets)})
    degrees = compute_degrees(incidence)
    weights = rng.random(incidence.n_passages)
    x = rng.standard_normal(incidence.n_entities)
    sparse = apply_diffusion_operator(x, incidence, degrees, weights)
    dense = dense_propagation_matrix(dense_incidence(incidence), weights) @ x
    np.testing.assert_allclose(sparse, dense, rtol=1e-9, atol=1e-12)


class TestGraphStats:
    def test_toy_counts(self, toy_index):
        report = graph_stats(toy_index.incidence, toy_index.degrees)
        assert (report["nodes"], report["hyperedges"], report["incidences"]) == (5, 3, 7)
        assert report["zero_degree_hyperedges"] == 0
        assert report["edge_degree_histogram"] == {"2": 2, "3": 1}

    def test_empty_corpus(self):
        incidence, _ = make_incidence({})
        report = graph_stats(incidence, compute_degrees(incidence))
        assert (report["nodes"], report["hyperedges"], report["incidences"]) == (0, 0, 0)
        assert report["node_degree_histogram"] == report["edge_degree_histogram"] == {}

    def test_report_shape_names_nodes_and_hyperedges(self, toy_index):
        payload = graph_stats(toy_index.incidence, toy_index.degrees)
        assert set(payload) >= {"nodes", "hyperedges", "incidences", "zero_degree_hyperedges"}
