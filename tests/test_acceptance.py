"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the pass/fail lines.
Timing-sensitive checks time only the diffusion-plus-enhancement core, the
same boundary the evaluation harness uses.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hyperhop.cli import main
from hyperhop.index_store import load_index
from hyperhop.metrics import exact_match, hit_at_k, recall_at_k, token_f1
from hyperhop.retrieval import (
    RetrievalConfig,
    rank_passages,
    ranked_order,
    structural_enhance,
)

from conftest import DATA_DIR, TOY_SETS, index_from_sets, index_of
from reference import (
    dense_incidence,
    dense_pipeline,
    dense_propagation_matrix,
    random_entity_sets,
)

SEED = 20250809


@contextmanager
def report_line(criterion: str):
    record = {"detail": ""}
    try:
        yield record
    except BaseException:
        print(f"[acceptance] {criterion}: FAIL")
        raise
    detail = f" ({record['detail']})" if record["detail"] else ""
    print(f"[acceptance] {criterion}: PASS{detail}")


def _instances(count: int, rng: np.random.Generator, with_params: bool = False):
    """Random desk-scale instances: index, entity vector x, passage vector p.

    All randomness is drawn here so that criteria sharing a seed iterate the
    exact same instance stream. ``with_params`` additionally yields a step
    count in {0..6} and a beta in [0, 1].
    """
    for _ in range(count):
        sets = random_entity_sets(rng, max_entities=50, max_passages=20)
        index = index_from_sets({f"p{j:02d}": s for j, s in enumerate(sets)})
        x = rng.random(index.n_entities) * (rng.random(index.n_entities) > 0.4)
        if index.n_entities and not x.any():
            x[int(rng.integers(index.n_entities))] = rng.random()
        p = rng.random(index.n_passages)
        steps = int(rng.integers(0, 7))
        beta = float(rng.random())
        if with_params:
            yield index, x, p, steps, beta
        else:
            yield index, x, p


def test_criterion_1_dense_oracle_equivalence():
    with report_line("1 dense-oracle equivalence") as record:
        rng = np.random.default_rng(SEED)
        start = time.perf_counter()
        max_rel_err = 0.0
        for index, x, p, steps, beta in _instances(200, rng, with_params=True):
            if index.n_entities == 0:
                continue
            config = RetrievalConfig(beta=beta, steps=steps, k1=1, k2=1)
            result = rank_passages(x, p, index, config)
            oracle = dense_pipeline(dense_incidence(index.incidence), x, p, steps, beta)
            got = result.artifacts.p_tilde
            assert np.allclose(got, oracle, rtol=1e-9, atol=1e-12)
            denom = np.maximum(np.abs(oracle), 1e-300)
            nonzero = oracle != got
            if nonzero.any():
                max_rel_err = max(max_rel_err, float((np.abs(got - oracle) / denom)[nonzero].max()))
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.2f}s (budget 10s)"
        record["detail"] = f"max rel err {max_rel_err:.2e}, {elapsed:.2f}s"


def test_criterion_2_spectral_and_stability():
    with report_line("2 spectral/stability suite") as record:
        rng = np.random.default_rng(SEED)
        min_eig, max_eig = np.inf, -np.inf
        from hyperhop.hypergraph import DiffusionSupport, apply_diffusion_operator

        # Same seed and draw order as criterion 1: identical instances.
        for index, x, p in _instances(200, rng):
            if index.n_entities == 0:
                continue
            weights = np.clip(p, 0.0, 1.0)
            dense = dense_propagation_matrix(dense_incidence(index.incidence), weights)
            eigenvalues = np.linalg.eigvalsh(dense)
            min_eig = min(min_eig, float(eigenvalues.min()))
            max_eig = max(max_eig, float(eigenvalues.max()))
            # Stated band [0, 1 + 1e-9]; the same 1e-9 numerical slack is
            # applied below zero since eigvalsh emits O(1e-16) roundoff.
            assert eigenvalues.min() >= -1e-9
            assert eigenvalues.max() <= 1.0 + 1e-9

            norm_start = float(np.linalg.norm(x))
            support = DiffusionSupport(index.incidence, weights)
            x_t = x.copy()
            for _ in range(6):
                x_t = apply_diffusion_operator(x_t, support)
                assert float(np.linalg.norm(x_t)) <= norm_start
                assert (x_t >= 0.0).all()
        record["detail"] = f"eigenvalues in [{min_eig:.2e}, {max_eig:.6f}]"


def test_criterion_3_toy_reproduction():
    with report_line("3 toy graph reproduction") as record:
        index = index_from_sets(TOY_SETS)
        x = np.zeros(5)
        x[index_of(index.entity_names, "albert einstein")] = 1.0
        weights = np.array([0.9, 0.8, 0.3])  # stipulated toy passage weights
        config = RetrievalConfig(beta=0.5, steps=1, k1=1, k2=3)
        result = rank_passages(x, weights, index, config)

        oracle = dense_pipeline(dense_incidence(index.incidence), x, weights, steps=1, beta=0.5)
        assert np.allclose(result.artifacts.p_tilde, oracle, rtol=1e-9)
        selected_ids = [index.passage_ids[col] for col, _ in result.selected]
        assert selected_ids == ["P1", "P2"], selected_ids
        assert "P3" not in selected_ids  # excluded by structural enhancement
        record["detail"] = f"selected {selected_ids}, p_tilde {np.round(oracle, 4).tolist()}"


def test_criterion_4_ablation_identities():
    with report_line("4 ablation identities") as record:
        rng = np.random.default_rng(SEED + 1)

        # beta = 1: ranking identical to dense-retrieval argsort of p.
        for index, x, p in _instances(50, rng):
            signed_p = p * rng.choice([-1.0, 1.0], size=p.shape)
            config = RetrievalConfig(beta=1.0, k1=1, k2=index.n_passages)
            result = rank_passages(x, signed_p, index, config, ranking_depth=index.n_passages)
            assert [c for c, _ in result.ranking] == ranked_order(signed_p, len(signed_p)).tolist()

        # k1 = k2: selection is exactly the top-k1.
        for index, x, p in _instances(50, rng):
            k = int(rng.integers(1, index.n_passages + 1))
            config = RetrievalConfig(k1=k, k2=k)
            result = rank_passages(x, p, index, config)
            assert [c for c, _ in result.selected] == [c for c, _ in result.ranking[:k]]

        # Disabling W_p, SE and structure yields the degenerate forms.
        for index, x, p in _instances(50, rng):
            config = RetrievalConfig(
                steps=0,
                use_weight_matrix=False,
                use_semantic_enhancement=False,
                use_structural_enhancement=False,
                k1=1,
                k2=index.n_passages,
            )
            result = rank_passages(x, p, index, config, ranking_depth=index.n_passages)
            if index.n_entities == 0:
                # Documented zero-x fallback: rank by p alone.
                np.testing.assert_array_equal(result.artifacts.p_tilde, p)
                continue
            masked = dense_incidence(index.incidence).T @ x  # H^T x
            np.testing.assert_allclose(result.artifacts.p_tilde, masked, rtol=1e-12, atol=0)
            assert [c for c, _ in result.ranking] == ranked_order(masked, len(masked)).tolist()
            assert [c for c, _ in result.selected] == [c for c, _ in result.ranking[:1]]

        record["detail"] = "beta=1, k1=k2, and degenerate-form checks on 50 instances each"


def test_criterion_5_containment():
    with report_line("5 containment property") as record:
        rng = np.random.default_rng(SEED + 2)
        checked = 0
        while checked < 500:
            sets = random_entity_sets(rng, max_entities=50, max_passages=20)
            index = index_from_sets({f"p{j:02d}": s for j, s in enumerate(sets)})
            H = dense_incidence(index.incidence)
            for _ in range(10):
                if checked >= 500:
                    break
                n = index.n_passages
                k2 = int(rng.integers(1, n + 1))
                k1 = int(rng.integers(1, k2 + 1))
                p_tilde = rng.uniform(-1, 1, n)
                selection = structural_enhance(ranked_order(p_tilde, k2), index, k1, k2)
                order = ranked_order(p_tilde, len(p_tilde))
                seeds = set(order[:k1].tolist())
                topk2 = set(order[:k2].tolist())
                chosen = set(selection.tolist())
                assert seeds <= chosen <= topk2
                assert k1 <= len(chosen) <= k2
                seed_vec = np.zeros(n)
                seed_vec[list(seeds)] = 1.0
                shares = H.T @ (H @ seed_vec)
                for col in chosen - seeds:
                    assert shares[col] > 0
                checked += 1
        record["detail"] = f"{checked} random queries"


def test_criterion_6_metric_units():
    with report_line("6 metric unit suite") as record:
        assert exact_match("Berlin", ["berlin"]) == 1
        assert exact_match("the Berlin", ["Berlin"]) == 1
        assert exact_match("West Berlin", ["Berlin"]) == 0
        assert token_f1("capital Berlin", ["Berlin"]) == pytest.approx(2 / 3, abs=1e-12)
        assert token_f1("same words", ["same words"]) == 1.0
        assert token_f1("alpha", ["beta"]) == 0.0
        assert recall_at_k(["a", "b", "c", "d", "e"], ["a", "b"], 5) == 1.0
        assert recall_at_k(["a", "x", "y", "z", "w"], ["a", "b"], 5) == 0.5
        assert recall_at_k(["x", "y", "z", "w", "v"], ["a"], 5) == 0.0
        assert hit_at_k(["x", "a"], ["a", "b"], 2) == 1
        record["detail"] = "EM, F1 (incl. 2/3 case), recall@k examples exact"


def _synthetic_corpus(tmp_path):
    """10k passages, 50k entities, mean 8 entities per passage.

    Every entity gets a guaranteed slot (round-robin) so the realized
    catalog is exactly 50k; three extra random entities per passage bring
    the mean incidence count to ~8.
    """
    rng = np.random.default_rng(SEED + 3)
    n_passages, n_entities = 10_000, 50_000
    names = [f"Node{i:05d}" for i in range(n_entities)]
    sets: list[list[int]] = [[] for _ in range(n_passages)]
    for ent in range(n_entities):
        sets[ent % n_passages].append(ent)
    extras = rng.integers(0, n_entities, size=(n_passages, 3))
    nnz = 0
    corpus_path = tmp_path / "synthetic.jsonl"
    with corpus_path.open("w", encoding="utf-8") as fh:
        for j in range(n_passages):
            members = list(dict.fromkeys(sets[j] + extras[j].tolist()))
            nnz += len(members)
            text = ", ".join(names[e] for e in members) + "."
            fh.write(
                json.dumps({"id": f"p{j:05d}", "title": "", "text": text}) + "\n"
            )
    return corpus_path, n_passages, n_entities, nnz


def test_criterion_7_performance_smoke(tmp_path, capsys):
    with report_line("7 performance smoke") as record:
        corpus_path, n_passages, n_entities, expected_nnz = _synthetic_corpus(tmp_path)
        index_dir = tmp_path / "index"
        args = [
            "--corpus", str(corpus_path),
            "--index-dir", str(index_dir),
            "--cache-dir", str(tmp_path / "cache"),
            "--offline",
        ]
        assert main(["index"] + args) == 0
        capsys.readouterr()
        assert main(["stats"] + args) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["nodes"] == n_entities
        assert stats["hyperedges"] == n_passages
        assert stats["incidences"] == expected_nnz

        index = load_index(index_dir)

        # 1000 retrievals, t=4, timed at the diffusion+enhancement boundary.
        rng = np.random.default_rng(SEED + 4)
        config = RetrievalConfig(steps=4, k1=5, k2=10)
        queries = []
        for _ in range(1000):
            x = np.zeros(n_entities)
            hot = rng.integers(0, n_entities, size=3)
            x[hot] = rng.uniform(0.81, 1.0, size=3)
            p = rng.random(n_passages)
            queries.append((x, p))
        start = time.perf_counter()
        for x, p in queries:
            result = rank_passages(x, p, index, config)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"1000 retrievals took {elapsed:.1f}s (budget 60s)"
        assert result.diagnostics.steps_run == 4
        record["detail"] = (
            f"1000 retrievals in {elapsed:.2f}s; "
            f"stats nodes={stats['nodes']} hyperedges={stats['hyperedges']} nnz={stats['incidences']}"
        )


def test_criterion_8_determinism(tmp_path):
    with report_line("8 determinism") as record:
        index_dir = tmp_path / "index"
        common = [
            "--corpus", str(DATA_DIR / "toy_corpus.jsonl"),
            "--index-dir", str(index_dir),
            "--cache-dir", str(tmp_path / "cache"),
            "--offline",
        ]
        assert main(["index"] + common) == 0
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / f"report_{name}.json"
            args = [
                "eval",
                "--dataset", str(DATA_DIR / "toy_qa.jsonl"),
                "--qa",
                "--k1", "1",
                "--k2", "3",
                "--output", str(out),
            ] + common
            assert main(args) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        record["detail"] = f"two cmd_eval runs byte-identical ({len(outputs[0])} bytes)"
