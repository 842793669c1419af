import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperhop import hypergraph
from hyperhop.errors import ContractError
from hyperhop.hypergraph import (
    DiffusionSupport,
    IncidenceMatrix,
    SlotMajorOrder,
    apply_diffusion_operator,
    build_incidence,
    graph_stats,
)
from hyperhop.index_store import load_index, save_index

from conftest import TOY_SETS, entity_sets_of, index_from_sets, index_of
from reference import (
    dense_incidence,
    dense_propagation_matrix,
    entity_to_passage,
    passage_columns,
    passage_to_entity,
    random_entity_sets,
)


def make_incidence(sets_by_pid):
    entity_sets = entity_sets_of(sets_by_pid)
    return build_incidence(entity_sets), entity_sets.catalog


class TestBuildIncidence:
    def test_toy_shape_and_counts(self):
        incidence, catalog = make_incidence(TOY_SETS)
        assert (incidence.n_entities, incidence.n_passages) == (5, 3)
        assert incidence.nnz == 7
        degrees = incidence.degrees
        assert degrees.edge_degrees.tolist() == [2, 3, 2]
        germany = index_of(catalog, "germany")
        assert degrees.node_degrees[germany] == 2
        assert np.flatnonzero(dense_incidence(incidence)[germany]).tolist() == [0, 1]
        assert incidence.pas_offsets.tolist() == [0, 2, 5, 7]

    def test_empty_entity_set_gives_zero_column(self):
        incidence, _ = make_incidence({"p1": ["a"], "p2": []})
        assert incidence.degrees.edge_degrees.tolist() == [1, 0]

    def test_single_cell(self):
        incidence, _ = make_incidence({"p1": ["only"]})
        assert dense_incidence(incidence).tolist() == [[1.0]]
        degrees = incidence.degrees
        assert degrees.node_degrees.tolist() == [1]
        assert degrees.edge_degrees.tolist() == [1]

    def test_rows_ascend_within_passages_on_random_graphs(self, rng):
        for _ in range(20):
            sets = random_entity_sets(rng)
            pids = [f"p{j:02d}" for j in range(len(sets))]
            incidence, catalog = make_incidence(dict(zip(pids, sets)))
            for j, names in enumerate(sets):
                lo, hi = incidence.pas_offsets[j], incidence.pas_offsets[j + 1]
                assert incidence.pas_indices[lo:hi].tolist() == sorted(
                    index_of(catalog, e) for e in names
                )

    def test_rows_sorted_even_when_entities_arrive_out_of_catalog_order(self):
        incidence, catalog = make_incidence({"p1": ["a", "b"], "p2": ["b", "a", "c"]})
        assert [index_of(catalog, e) for e in ("a", "b", "c")] == [0, 1, 2]
        assert incidence.pas_indices.tolist() == [0, 1, 0, 1, 2]

    def test_degree_sums_equal_nnz(self, rng):
        for _ in range(20):
            sets = random_entity_sets(rng)
            incidence, _ = make_incidence({f"p{j:02d}": s for j, s in enumerate(sets)})
            degrees = incidence.degrees
            assert degrees.node_degrees.sum() == incidence.nnz
            assert degrees.edge_degrees.sum() == incidence.nnz
            assert (degrees.node_degrees >= 1).all()


@pytest.fixture(params=[0.0, np.inf], ids=["full", "frontier"])
def route(request, monkeypatch):
    """Every half-step of a support full, or every one on the frontier."""
    monkeypatch.setattr(hypergraph, "_FRONTIER_MAX_SHARE", request.param)


def unweighted_support(incidence):
    return DiffusionSupport(incidence, np.ones(incidence.n_passages))


def diffusion_step(x, incidence, weights):
    """One operator application under its own support."""
    return apply_diffusion_operator(x, DiffusionSupport(incidence, np.asarray(weights, float)))


@pytest.mark.usefixtures("route")
class TestGatherScatter:
    def test_matches_dense_matvec(self, rng):
        for _ in range(10):
            sets = random_entity_sets(rng)
            incidence, _ = make_incidence({f"p{j:02d}": s for j, s in enumerate(sets)})
            H = dense_incidence(incidence)
            u = rng.normal(size=incidence.n_entities)
            w = rng.normal(size=incidence.n_passages)
            support = unweighted_support(incidence)
            np.testing.assert_allclose(support.entity_to_passage(u), H.T @ u, rtol=1e-12)
            np.testing.assert_allclose(support.passage_to_entity(w), H @ w, rtol=1e-12)

    def test_transpose_is_bitwise_the_entity_major_sum(self, rng):
        # An entity-major pass adds each passage's terms in ascending entity
        # order; sorted rows make the passage-major gather do the same.
        for _ in range(10):
            sets = random_entity_sets(rng)
            incidence, _ = make_incidence({f"p{j:02d}": s for j, s in enumerate(sets)})
            n = incidence.n_entities
            u = np.where(rng.random(n) < 0.5, rng.normal(size=n), 0.0)
            order = np.argsort(incidence.pas_indices, kind="stable")
            entity_major = np.bincount(
                passage_columns(incidence)[order],
                weights=u[incidence.pas_indices[order]],
                minlength=incidence.n_passages,
            )
            summed = unweighted_support(incidence).entity_to_passage(u)
            np.testing.assert_array_equal(summed, entity_major)
            assert summed.tobytes() == entity_to_passage(u, incidence).tobytes()

    def test_scatter_is_bitwise_the_repeated_passage_values(self, rng):
        for _ in range(10):
            sets = random_entity_sets(rng)
            incidence, _ = make_incidence({f"p{j:02d}": s for j, s in enumerate(sets)})
            n = incidence.n_passages
            w = np.where(rng.random(n) < 0.5, rng.normal(size=n), 0.0)
            repeated = np.bincount(
                incidence.pas_indices,
                weights=np.repeat(w, np.diff(incidence.pas_offsets)),
                minlength=incidence.n_entities,
            )
            scattered = unweighted_support(incidence).passage_to_entity(w)
            np.testing.assert_array_equal(scattered, repeated)
            assert scattered.tobytes() == passage_to_entity(w, incidence).tobytes()


class TestEntityMajorOrder:
    @staticmethod
    def assert_is_the_stable_argsort(incidence):
        order = incidence.entity_major
        by_entity = np.argsort(incidence.pas_indices, kind="stable")
        assert order.columns.dtype == np.int32
        np.testing.assert_array_equal(order.columns, passage_columns(incidence)[by_entity])
        counts = np.bincount(incidence.pas_indices, minlength=incidence.n_entities)
        np.testing.assert_array_equal(np.diff(order.offsets), counts)
        assert order.offsets[0] == 0

    def test_random_graphs(self, rng):
        for _ in range(20):
            sets = random_entity_sets(rng)
            incidence, _ = make_incidence({f"p{j:02d}": s for j, s in enumerate(sets)})
            self.assert_is_the_stable_argsort(incidence)

    @pytest.mark.parametrize("n_entities, n_passages", [(2**15, 2**16), (2**15 + 1, 2**16)])
    def test_int32_and_wide_keys(self, rng, n_entities, n_passages):
        # 2**15 entities with 16-bit passage columns fill the int32 keys; one
        # more entity needs the int64 ones.
        # Each passage holds the first 0, 1 or 2 rows of an ascending pair.
        counts = rng.integers(0, 3, n_passages)
        first = rng.integers(0, n_entities - 2, n_passages)
        pairs = np.stack([first, rng.integers(first + 1, n_entities - 1)], axis=1)
        counts[-1], pairs[-1] = 2, [0, n_entities - 1]  # the last entity meets the last passage
        offsets = np.zeros(n_passages + 1, dtype=np.int32)
        np.cumsum(counts, out=offsets[1:])
        rows = pairs[np.arange(2) < counts[:, None]]
        incidence = IncidenceMatrix(n_entities, n_passages, offsets, rows)
        self.assert_is_the_stable_argsort(incidence)
        assert incidence.entity_major.columns[-1] == n_passages - 1

    def test_empty_graphs(self):
        for sets in ({}, {"p1": [], "p2": []}):
            incidence, _ = make_incidence(sets)
            order = incidence.entity_major
            assert order.columns.shape == (0,) and order.offsets.tolist() == [0]


def random_incidence(rng, n_entities, degrees):
    """An incidence whose passages hold ``degrees`` distinct random rows each."""
    offsets = np.zeros(len(degrees) + 1, dtype=np.int32)
    np.cumsum(degrees, out=offsets[1:])
    segments = [np.sort(rng.choice(n_entities, d, replace=False)) for d in degrees]
    rows = np.concatenate([np.zeros(0, dtype=np.intp), *segments])
    return IncidenceMatrix(n_entities, len(degrees), offsets, rows)


class TestSlotMajorOrder:
    @staticmethod
    def assert_is_the_slot_major_order(incidence, passages=None):
        """The order over ``passages`` (all of H's when None), checked
        against the passage-major entries and the reference H^T bytes."""
        if passages is None:
            order, passages = incidence.slot_major, np.arange(incidence.n_passages)
        else:
            order = SlotMajorOrder.over(incidence, passages)
        degrees = np.diff(incidence.pas_offsets)
        # The passages by descending degree, ties by ascending column.
        by_degree = passages[np.argsort(-degrees[passages], kind="stable")]
        np.testing.assert_array_equal(order.passages, by_degree)
        subset = degrees[passages]
        expected_widths = [np.count_nonzero(subset > k) for k in range(subset.max(initial=0))]
        np.testing.assert_array_equal(order.widths, expected_widths)
        assert (np.diff(order.widths) <= 0).all()
        assert order.rows.dtype == np.intp and order.rows.shape == (subset.sum(),)
        # Each passage's rows, taken slot by slot, are its pas_indices segment.
        slots = np.split(order.rows, np.cumsum(order.widths)[:-1])
        for rank, j in enumerate(order.passages):
            taken = [slot[rank] for slot in slots[: degrees[j]]]
            lo, hi = incidence.pas_offsets[j], incidence.pas_offsets[j + 1]
            assert taken == incidence.pas_indices[lo:hi].tolist()
        # The passages outside the order sum to +0.0.
        u = np.random.default_rng(0).normal(size=incidence.n_entities)
        inside = np.isin(np.arange(incidence.n_passages), passages)
        expected = np.where(inside, entity_to_passage(u, incidence), 0.0)
        summed = order.passage_sums(u, incidence.n_passages)
        assert summed.tobytes() == expected.tobytes()

    def test_toy(self, toy_index):
        order = toy_index.incidence.slot_major
        assert order.passages.tolist() == [1, 0, 2] and order.widths.tolist() == [3, 3, 1]
        self.assert_is_the_slot_major_order(toy_index.incidence)

    def test_random_graphs(self, rng):
        for _ in range(20):
            sets = random_entity_sets(rng)
            incidence, _ = make_incidence({f"p{j:02d}": s for j, s in enumerate(sets)})
            self.assert_is_the_slot_major_order(incidence)

    def test_skewed_degrees_with_entityless_passages(self, rng):
        # Zipf degrees less one: about half the passages hold no entity, and
        # a few hold most of the catalog.
        for _ in range(20):
            n_entities = int(rng.integers(1, 200))
            degrees = np.minimum(rng.zipf(1.5, int(rng.integers(1, 300))) - 1, n_entities)
            self.assert_is_the_slot_major_order(random_incidence(rng, n_entities, degrees))

    def test_empty_graphs(self):
        for sets in ({}, {"p1": [], "p2": []}):
            incidence, _ = make_incidence(sets)
            order = incidence.slot_major
            assert order.widths.shape == order.rows.shape == (0,)
            assert order.passages.tolist() == list(range(len(sets)))
            summed = order.passage_sums(np.zeros(0), len(sets))
            assert summed.tobytes() == np.zeros(len(sets)).tobytes()

    def test_a_passage_of_70000_entities_takes_int64_keys(self, rng):
        # max_degree - degree reaches 2**16: as uint16 keys, 70000 - 10 would
        # wrap to 4454 and put passage 0 before passage 2.
        incidence = random_incidence(rng, 70_000, [10, 70_000, 5_000])
        assert incidence.slot_major.passages.tolist() == [1, 2, 0]
        self.assert_is_the_slot_major_order(incidence)

    def test_subsets_none_kept_and_all_kept(self, rng):
        incidence = random_incidence(rng, 50, rng.integers(0, 9, 40))
        order = SlotMajorOrder.over(incidence, np.zeros(0, dtype=np.intp))
        assert order.passages.shape == order.widths.shape == order.rows.shape == (0,)
        assert order.passage_sums(np.ones(50), 40).tobytes() == np.zeros(40).tobytes()
        self.assert_is_the_slot_major_order(incidence, np.zeros(0, dtype=np.intp))
        every = SlotMajorOrder.over(incidence, np.arange(40))
        for name in ("passages", "widths", "rows"):
            assert getattr(every, name).tobytes() == getattr(incidence.slot_major, name).tobytes()
        self.assert_is_the_slot_major_order(incidence, np.arange(40))

    def test_subsets_of_mixed_degrees(self, rng):
        # Random subsets of skewed graphs: a kept passage may hold no entity,
        # and the subset's widths follow its own largest degree.
        for _ in range(20):
            n_entities = int(rng.integers(1, 200))
            degrees = np.minimum(rng.zipf(1.5, int(rng.integers(1, 300))) - 1, n_entities)
            incidence = random_incidence(rng, n_entities, degrees)
            kept = np.flatnonzero(rng.random(incidence.n_passages) < rng.random())
            self.assert_is_the_slot_major_order(incidence, kept)

    def test_a_subset_with_a_degree_of_2_16_takes_int64_keys(self, rng):
        # Kept passages of 2**16 and 3 entities: 2**16 - 3 fits uint16, but the
        # largest key, 2**16 - 0 for an entityless passage, does not.
        incidence = random_incidence(rng, 2**16, [0, 3, 9, 2**16, 5])
        kept = np.array([0, 1, 3])
        assert SlotMajorOrder.over(incidence, kept).passages.tolist() == [3, 1, 0]
        self.assert_is_the_slot_major_order(incidence, kept)
        self.assert_is_the_slot_major_order(incidence, np.array([2, 4]))

    def test_derivation_peak_is_its_output_and_one_entry_length_temporary(self, rng):
        # Passage degrees as on the passage-heavy benchmark graph. The
        # degrees are derived beforehand: the bound is the order's own.
        incidence = random_incidence(rng, 5_000, rng.integers(8, 17, 20_000))
        incidence.degrees
        tracemalloc.start()
        try:
            order = incidence.slot_major
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        output = order.passages.nbytes + order.widths.nbytes + order.rows.nbytes
        assert peak <= output + incidence.nnz * np.dtype(np.intp).itemsize


def test_derived_facts_are_kept_and_survive_a_round_trip(toy_index, tmp_path):
    # The degrees, the entity-major order and the slot-major order are each
    # derived once per incidence, and a loaded index derives the same bytes.
    save_index(toy_index, tmp_path)
    built, loaded = toy_index.incidence, load_index(tmp_path).incidence
    names = ("degrees", "entity_major", "slot_major")
    for name in names:
        assert getattr(built, name) is getattr(built, name)
        assert getattr(loaded, name) is getattr(loaded, name)

    def arrays(incidence):
        facts = [getattr(incidence, name) for name in names]
        return [getattr(fact, f.name) for fact in facts for f in dataclasses.fields(fact)]

    assert len(arrays(built)) == 9
    for a, b in zip(arrays(built), arrays(loaded)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDiffusionSupport:
    def test_kept_passages_and_all_kept(self, rng):
        for _ in range(20):
            sets = random_entity_sets(rng)
            incidence, _ = make_incidence({f"p{j:02d}": s for j, s in enumerate(sets)})
            weights = np.where(rng.random(incidence.n_passages) < 0.5, rng.random(), 0.0)
            keep = weights > 0
            support = DiffusionSupport(incidence, weights)
            entries = support.entries
            if np.count_nonzero(keep) > hypergraph._RESTRICT_MAX_KEPT_SHARE * incidence.n_passages:
                assert entries.rows is incidence.pas_indices
                assert entries.slots is incidence.slot_major
                keep = np.ones(incidence.n_passages, dtype=bool)
            else:
                in_kept = keep[passage_columns(incidence)]
                np.testing.assert_array_equal(entries.rows, incidence.pas_indices[in_kept])
            np.testing.assert_array_equal(entries.passages, np.flatnonzero(keep))
            np.testing.assert_array_equal(entries.degrees, np.diff(incidence.pas_offsets)[keep])
            assert np.array_equal(np.sort(entries.slots.passages), entries.passages)
            u = rng.normal(size=incidence.n_entities)
            expected = np.where(keep, entity_to_passage(u, incidence), 0.0)
            assert support.entity_to_passage(u).tobytes() == expected.tobytes()

    def test_no_kept_passage_leaves_no_entries(self, toy_index):
        support = DiffusionSupport(toy_index.incidence, np.zeros(3))
        entries = support.entries
        assert entries.passages.shape == entries.degrees.shape == entries.rows.shape == (0,)
        assert entries.slots.passages.shape == entries.slots.rows.shape == (0,)
        summed = support.entity_to_passage(np.ones(5))
        assert summed.dtype == np.float64 and summed.shape == (3,) and not summed.any()
        assert support.passage_to_entity(np.zeros(3)).tobytes() == np.zeros(5).tobytes()

    def test_a_full_half_step_makes_the_rest_full(self, toy_index, monkeypatch):
        # P3 ("brussels", "european union") has weight zero: a frontier H^T
        # sums it, the restricted support reads 0 there.
        monkeypatch.setattr(hypergraph, "_FRONTIER_MAX_SHARE", 0.5)
        weights = np.array([0.9, 0.0, 0.0])
        brussels = np.zeros(5)
        brussels[index_of(toy_index.entity_names, "brussels")] = 1.0
        support = DiffusionSupport(toy_index.incidence, weights)
        assert support.entity_to_passage(brussels).tolist() == [0.0, 0.0, 1.0]
        assert not support.full
        support.entity_to_passage(np.ones(5))  # 7 of 7 entries: full
        assert support.full
        assert support.entity_to_passage(brussels).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize(
        "frontier_share, restrict_share",
        [(np.inf, 1.0), (0.0, 1.0), (0.0, -1.0)],
        ids=["frontier", "full-restricted", "full-over-H"],
    )
    def test_every_route_of_h_e_is_the_reference_bytes(
        self, rng, monkeypatch, frontier_share, restrict_share
    ):
        # e *= edge_scale leaves e zero on every zero-weight passage (-0.0
        # where e was negative); under that precondition the routes agree.
        monkeypatch.setattr(hypergraph, "_FRONTIER_MAX_SHARE", frontier_share)
        monkeypatch.setattr(hypergraph, "_RESTRICT_MAX_KEPT_SHARE", restrict_share)
        for _ in range(20):
            sets = random_entity_sets(rng)
            incidence, _ = make_incidence({f"p{j:02d}": s for j, s in enumerate(sets)})
            n = incidence.n_passages
            weights = np.where(rng.random(n) < 0.5, rng.random(n), 0.0)
            support = DiffusionSupport(incidence, weights)
            e = np.where(rng.random(n) < 0.7, rng.normal(size=n), 0.0)
            e *= support.edge_scale
            summed = support.passage_to_entity(e)
            if incidence.nnz:  # an empty H is always full
                assert support.full == (frontier_share == 0.0)
            assert summed.tobytes() == passage_to_entity(e, incidence).tobytes()

    def test_weight_length_mismatch(self, toy_index):
        with pytest.raises(ContractError):
            DiffusionSupport(toy_index.incidence, np.ones(2))


class TestDiffusionOperator:
    def test_zero_input_gives_zero(self, toy_index):
        out = diffusion_step(np.zeros(5), toy_index.incidence, np.ones(3))
        assert not out.any()

    def test_single_cell_half_weight(self):
        # Dense hand evaluation: D_v = D_e = 1, so the operator is just W.
        incidence, _ = make_incidence({"p1": ["only"]})
        out = diffusion_step(np.array([1.0]), incidence, [0.5])
        assert out == pytest.approx([0.5], abs=1e-15)

    def test_toy_one_step_from_einstein(self, toy_index):
        names = toy_index.entity_names
        x = np.zeros(5)
        x[index_of(names, "albert einstein")] = 1.0
        out = diffusion_step(x, toy_index.incidence, np.ones(3))
        oracle = dense_propagation_matrix(dense_incidence(toy_index.incidence), np.ones(3)) @ x
        np.testing.assert_allclose(out, oracle, rtol=1e-12)
        assert out[index_of(names, "germany")] > 0.0
        assert out[index_of(names, "brussels")] == 0.0

    def test_dimension_mismatch(self, toy_index):
        with pytest.raises(ContractError, match=r"^x has shape \(4,\), expected \(5,\)$"):
            diffusion_step(np.zeros(4), toy_index.incidence, np.ones(3))
        with pytest.raises(ContractError, match="^edge_weights has shape"):
            diffusion_step(np.zeros(5), toy_index.incidence, np.ones(4))

    def test_matches_dense_oracle_on_random_instances(self, rng):
        for _ in range(50):
            sets = random_entity_sets(rng)
            incidence, _ = make_incidence({f"p{j:02d}": s for j, s in enumerate(sets)})
            weights = rng.random(incidence.n_passages)
            x = rng.random(incidence.n_entities)
            sparse = diffusion_step(x, incidence, weights)
            dense = dense_propagation_matrix(dense_incidence(incidence), weights) @ x
            np.testing.assert_allclose(sparse, dense, rtol=1e-9, atol=1e-12)

    def test_nonnegativity(self, rng):
        for _ in range(20):
            sets = random_entity_sets(rng)
            incidence, _ = make_incidence({f"p{j:02d}": s for j, s in enumerate(sets)})
            out = diffusion_step(
                rng.random(incidence.n_entities), incidence, rng.random(incidence.n_passages)
            )
            assert (out >= 0.0).all()

    def test_entityless_passage_is_inert(self, rng):
        base = dict(TOY_SETS)
        augmented = {**base, "P4": []}
        idx_a = index_from_sets(base)
        idx_b = index_from_sets(augmented)
        x = rng.random(5)
        out_a = diffusion_step(x, idx_a.incidence, np.full(3, 0.7))
        out_b = diffusion_step(x, idx_b.incidence, np.full(4, 0.7))
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
    weights = rng.random(incidence.n_passages)
    x = rng.standard_normal(incidence.n_entities)
    sparse = diffusion_step(x, incidence, weights)
    dense = dense_propagation_matrix(dense_incidence(incidence), weights) @ x
    np.testing.assert_allclose(sparse, dense, rtol=1e-9, atol=1e-12)


class TestGraphStats:
    def test_toy_counts(self, toy_index):
        report = graph_stats(toy_index.incidence)
        assert (report["nodes"], report["hyperedges"], report["incidences"]) == (5, 3, 7)
        assert report["zero_degree_hyperedges"] == 0
        assert report["edge_degree_histogram"] == {"2": 2, "3": 1}

    def test_empty_corpus(self):
        incidence, _ = make_incidence({})
        report = graph_stats(incidence)
        assert (report["nodes"], report["hyperedges"], report["incidences"]) == (0, 0, 0)
        assert report["node_degree_histogram"] == report["edge_degree_histogram"] == {}

    def test_report_shape_names_nodes_and_hyperedges(self, toy_index):
        payload = graph_stats(toy_index.incidence)
        assert set(payload) >= {"nodes", "hyperedges", "incidences", "zero_degree_hyperedges"}
