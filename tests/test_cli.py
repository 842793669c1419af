import json

import numpy as np
import pytest

from hyperhop.cli import main
from hyperhop.embeddings import OfflineEncoder
from hyperhop.index_store import load_index
from hyperhop.retrieval import ranked_order

from conftest import DATA_DIR

TOY_CORPUS = str(DATA_DIR / "toy_corpus.jsonl")
TOY_QA = str(DATA_DIR / "toy_qa.jsonl")
TOY_QUERY = "What is the capital of the country where Albert Einstein was born?"


@pytest.fixture
def built(tmp_path, no_network):
    """Index the toy corpus offline; every command here runs socket-guarded."""
    index_dir = tmp_path / "index"
    cache_dir = tmp_path / "cache"
    args = [
        "index",
        "--corpus", TOY_CORPUS,
        "--index-dir", str(index_dir),
        "--cache-dir", str(cache_dir),
        "--offline",
    ]
    assert main(args) == 0
    return tmp_path


def common(tmp_path):
    return [
        "--corpus", TOY_CORPUS,
        "--index-dir", str(tmp_path / "index"),
        "--cache-dir", str(tmp_path / "cache"),
        "--offline",
    ]


class TestIndexCommand:
    def test_manifest_reports_toy_counts(self, built, capsys):
        capsys.readouterr()
        manifest = json.loads((built / "index" / "manifest.json").read_text())
        assert manifest["n_passages"] == 3
        assert manifest["n_entities"] == 5
        assert manifest["nnz"] == 7

    def test_rerun_is_idempotent(self, built, capsys):
        manifest_before = (built / "index" / "manifest.json").read_bytes()
        assert main(["index"] + common(built)) == 0
        assert (built / "index" / "manifest.json").read_bytes() == manifest_before

    def test_unreadable_corpus_exits_2(self, tmp_path, capsys, no_network):
        missing = tmp_path / "nope.jsonl"
        code = main(
            ["index", "--corpus", str(missing), "--index-dir", str(tmp_path / "i"), "--offline"]
        )
        assert code == 2
        assert "nope.jsonl" in capsys.readouterr().err


class TestRetrieveCommand:
    def test_toy_query_selects_p1_p2(self, built, capsys):
        code = main(["retrieve", TOY_QUERY, "--k1", "1", "--k2", "3"] + common(built))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["id"] for e in payload["selected"]] == ["P1", "P2"]

    def test_beta_one_matches_dense_ordering(self, built, capsys):
        code = main(
            ["retrieve", TOY_QUERY, "--beta", "1", "--k1", "1", "--k2", "3"] + common(built)
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        index = load_index(built / "index")
        from hyperhop.retrieval import build_passage_similarity

        p = build_passage_similarity(TOY_QUERY, index, OfflineEncoder(dim=256))
        expected = [index.passage_ids[col] for col in ranked_order(p)]
        assert [e["id"] for e in payload["topk2"]] == expected

    def test_ablation_flags_compose(self, built, capsys):
        code = main(
            ["retrieve", TOY_QUERY, "--t", "0", "--no-weights", "--no-se",
             "--k1", "3", "--k2", "3"] + common(built)
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # k1 == k2: selection is exactly the top-k1 of the composed score.
        assert [e["id"] for e in payload["selected"]] == [e["id"] for e in payload["topk2"]]

    def test_missing_index_exits_2(self, tmp_path, capsys, no_network):
        code = main(["retrieve", "q", "--index-dir", str(tmp_path / "void"), "--offline"])
        assert code == 2

    def test_truncated_passage_embeddings_exit_2(self, built, capsys):
        path = built / "index" / "passage_embeddings.bin"
        path.write_bytes(path.read_bytes()[:-4])
        code = main(["retrieve", TOY_QUERY] + common(built))
        assert code == 2
        assert "passage_embeddings.bin" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["passage_embeddings.bin", "entity_embeddings.bin"])
    def test_nan_embedding_exits_2(self, built, capsys, name):
        path = built / "index" / name
        values = np.fromfile(path, dtype="<f4")
        values[0] = np.nan
        values.tofile(path)
        code = main(["retrieve", TOY_QUERY] + common(built))
        assert code == 2
        assert f"{name} holds a non-finite value" in capsys.readouterr().err


class TestStatsCommand:
    def test_toy_counts(self, built, capsys):
        assert main(["stats"] + common(built)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nodes"] == 5
        assert payload["hyperedges"] == 3
        assert payload["incidences"] == 7


class TestAnswerCommand:
    def test_offline_placeholder_answer(self, built, capsys):
        code = main(["answer", TOY_QUERY, "--k1", "1", "--k2", "3"] + common(built))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["answer"].startswith("offline-answer-")
        assert payload["passages"] == ["P1", "P2"]


class TestEvalCommand:
    def test_deterministic_report_bytes(self, built, capsys):
        out_a = built / "report_a.json"
        out_b = built / "report_b.json"
        args = ["eval", "--dataset", TOY_QA, "--k1", "1", "--k2", "3"] + common(built)
        assert main(args + ["--output", str(out_a)]) == 0
        assert main(args + ["--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_qa_mode_adds_answer_metrics(self, built, capsys):
        args = ["eval", "--dataset", TOY_QA, "--qa", "--k1", "1", "--k2", "3"] + common(built)
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "em" in payload["aggregates"]

    def test_partial_failure_exit_1(self, built, tmp_path, capsys):
        bad = tmp_path / "bad_qa.jsonl"
        bad.write_text(
            json.dumps({"question": "q", "answers": ["a"], "gold_passage_ids": ["MISSING"]})
            + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "report.json"
        args = ["eval", "--dataset", str(bad), "--output", str(out),
                "--k1", "1", "--k2", "3"] + common(built)
        assert main(args) == 1
        assert out.exists()  # report still written on partial failure
        payload = json.loads(out.read_text())
        assert payload["aggregates"]["errors"] == 1

    def test_index_without_passage_embeddings_exits_2(self, built, capsys):
        # A broken index fails every example alike: a precondition, not a
        # per-example failure.
        (built / "index" / "passage_embeddings.bin").unlink()
        args = ["eval", "--dataset", TOY_QA, "--k1", "1", "--k2", "3"] + common(built)
        assert main(args) == 2
        assert "passage embeddings" in capsys.readouterr().err

    def test_endpoint_failing_every_question_exits_2(self, built, capsys, monkeypatch):
        def down(self, texts):
            raise RuntimeError("endpoint down")

        monkeypatch.setattr(OfflineEncoder, "encode_batch", down)
        args = ["eval", "--dataset", TOY_QA, "--k1", "1", "--k2", "3"] + common(built)
        assert main(args) == 2
        assert "endpoint down" in capsys.readouterr().err


class TestRebuildDeterminism:
    def test_two_builds_produce_identical_artifacts(self, tmp_path, no_network):
        digests = []
        for name in ("one", "two"):
            root = tmp_path / name
            args = [
                "index",
                "--corpus", TOY_CORPUS,
                "--index-dir", str(root / "index"),
                "--cache-dir", str(root / "cache"),
                "--offline",
            ]
            assert main(args) == 0
            files = sorted((root / "index").iterdir())
            digests.append([(f.name, f.read_bytes()) for f in files])
        assert digests[0] == digests[1]


class TestRemoteModePreconditions:
    def test_missing_api_base_exits_2(self, built, capsys, monkeypatch):
        for var in ("HYPERHOP_API_BASE", "HYPERHOP_OFFLINE"):
            monkeypatch.delenv(var, raising=False)
        code = main(["retrieve", "q", "--index-dir", str(built / "index")])
        assert code == 2
        assert "api_base" in capsys.readouterr().err

    def test_config_file_supplies_settings(self, built, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"offline": True, "k1": 1, "k2": 3}))
        code = main(
            ["retrieve", TOY_QUERY, "--config", str(cfg),
             "--index-dir", str(built / "index")]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [e["id"] for e in payload["selected"]] == ["P1", "P2"]


def test_entityless_query_reports_dense_fallback(built, capsys):
    code = main(
        ["retrieve", "what is the capital?", "--k1", "1", "--k2", "3"] + common(built)
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diagnostics"]["dense_fallback"] is True
    assert payload["diagnostics"]["nonzero_entity_count"] == 0


def test_eta_one_forces_fallback(built, capsys):
    code = main(
        ["retrieve", TOY_QUERY, "--eta", "1.0", "--k1", "1", "--k2", "3"] + common(built)
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diagnostics"]["dense_fallback"] is True


def test_all_commands_honor_offline_mode(built, capsys):
    # The no_network guard in the fixture fails the test on any socket open;
    # run the full command surface under it.
    assert main(["stats"] + common(built)) == 0
    assert main(["retrieve", "q", "--k1", "1", "--k2", "2"] + common(built)) == 0
    assert main(["answer", "q", "--k1", "1", "--k2", "2"] + common(built)) == 0
    assert main(["eval", "--dataset", TOY_QA, "--k1", "1", "--k2", "2"] + common(built)) == 0
