import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperhop
from hyperhop.cli import main
from hyperhop.corpus import load_corpus
from hyperhop.embeddings import OfflineEncoder
from hyperhop.entities import passage_sha256
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


    def test_corpus_that_is_a_directory_exits_2(self, tmp_path, capsys, no_network):
        args = ["--corpus", str(tmp_path), "--index-dir", str(tmp_path / "i"), "--offline"]
        assert main(["index"] + args) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_corpus_that_is_not_utf8_exits_2(self, tmp_path, capsys, no_network):
        corpus = tmp_path / "latin1.jsonl"
        corpus.write_bytes(
            (DATA_DIR / "toy_corpus.jsonl").read_bytes()
            + '{"id": "P4", "title": "", "text": "Köln"}\n'.encode("latin-1")
        )
        code = main(
            ["index", "--corpus", str(corpus), "--index-dir", str(tmp_path / "i"), "--offline"]
        )
        assert code == 2
        assert "line 4: not UTF-8" in capsys.readouterr().err

    def test_garbage_embedding_cache_manifest_is_replaced(self, built, capsys):
        index_before = {f.name: f.read_bytes() for f in (built / "index").iterdir()}
        manifest = built / "cache" / "embeddings" / "manifest.json"
        manifest.write_text("{not json")
        assert main(["index"] + common(built)) == 0
        assert {f.name: f.read_bytes() for f in (built / "index").iterdir()} == index_before
        assert "count" not in json.loads(manifest.read_text())

    @pytest.mark.parametrize(
        "line",
        [
            "{not json",
            "[1]",
            '{"entities": []}',
            # Lines of the older one-file layout, keyed by passage id.
            '{"passage_id": 1, "entities": []}',
            '{"passage_id": "P1", "entities": "germany"}',
            '{"passage_id": "P1", "entities": [1]}',
            '{"passage_sha256": 1, "entities": []}',
            '{"passage_sha256": "0", "entities": "germany"}',
            '{"passage_sha256": "0", "entities": [1]}',
        ],
    )
    def test_damaged_extraction_cache_exits_2(self, built, capsys, line):
        cache = built / "cache" / "extraction" / "records.jsonl"
        cache.write_text(cache.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["index"] + common(built)) == 2
        assert f"extraction cache {cache}: line 4:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entities, message",
        [
            (["Germany"], "entity 'Germany' is not normalized"),
            ([""], "empty entity in set for passage 'P1'"),
            (["germany", "germany"], "duplicate entity 'germany' in passage 'P1'"),
        ],
    )
    def test_unchecked_extraction_cache_hit_exits_2(self, built, capsys, entities, message):
        """A hit is checked like a fresh extraction; from other content it is a miss."""
        cache = built / "cache" / "extraction" / "records.jsonl"
        index_before = {f.name: f.read_bytes() for f in (built / "index").iterdir()}
        p1 = next(p for p in load_corpus(TOY_CORPUS) if p.id == "P1")
        entry = {"passage_sha256": passage_sha256(p1), "entities": entities}
        entries = cache.read_text(encoding="utf-8")
        cache.write_text(entries + json.dumps(entry) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["index"] + common(built)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

        entry["passage_sha256"] = "0" * 64
        cache.write_text(entries + json.dumps(entry) + "\n", encoding="utf-8")
        assert main(["index"] + common(built)) == 0
        assert {f.name: f.read_bytes() for f in (built / "index").iterdir()} == index_before


@pytest.mark.parametrize(
    "config_text, env, named",
    [
        ("{not json", {}, "cfg.json"),
        (None, {}, "cfg.json"),  # a directory
        ("[1]", {}, "cfg.json"),
        ('"k1"', {}, "cfg.json"),
        ('{"k1": "x"}', {}, "k1='x'"),
        ('{"k1": 2.7}', {}, "k1=2.7"),
        ('{"k2": true}', {}, "k2=True"),
        ('{"eta": false}', {}, "eta=False"),
        ('{"steps": [4]}', {}, "steps=[4]"),
        ("{}", {"HYPERHOP_K1": "abc"}, "k1='abc'"),
        ("{}", {"HYPERHOP_ETA": "high"}, "eta='high'"),
        ('{"index_dir": ["a", 1]}', {}, "index_dir=['a', 1]"),
        ('{"api_key": 5}', {}, "api_key=5"),
    ],
)
def test_malformed_config_exits_2(built, tmp_path, capsys, monkeypatch, config_text, env, named):
    cfg = tmp_path / "cfg.json"
    if config_text is None:
        cfg.mkdir()
    else:
        cfg.write_text(config_text)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    capsys.readouterr()
    assert main(["retrieve", TOY_QUERY, "--config", str(cfg)] + common(built)) == 2
    assert named in capsys.readouterr().err


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
        expected = [index.passage_ids[col] for col in ranked_order(p, len(p))]
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


    @pytest.mark.parametrize("name", ["passage_embeddings.bin", "entity_embeddings.bin"])
    def test_missing_embedding_file_exits_2(self, built, capsys, name):
        (built / "index" / name).unlink()
        code = main(["retrieve", TOY_QUERY] + common(built))
        assert code == 2
        assert f"missing {name}" in capsys.readouterr().err


class TestStatsCommand:
    def test_toy_counts(self, built, capsys):
        assert main(["stats"] + common(built)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nodes"] == 5
        assert payload["hyperedges"] == 3
        assert payload["incidences"] == 7


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-3])


def _drop_nnz(path):
    manifest = json.loads(path.read_text(encoding="utf-8"))
    del manifest["nnz"]
    path.write_text(json.dumps(manifest), encoding="utf-8")


def _repeat_first_id(path):
    ids = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps([ids[0]] + ids[:-1]), encoding="utf-8")


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("manifest.json", _truncate),
        ("entities.json", _truncate),
        ("passages.json", _truncate),
        ("manifest.json", _drop_nnz),
        ("manifest.json", lambda path: path.write_text("[1, 2]", encoding="utf-8")),
        ("entities.json", lambda path: path.write_text("[1, 2, 3, 4, 5]", encoding="utf-8")),
        ("passages.json", lambda path: path.write_text('{"P1": 0}', encoding="utf-8")),
        ("entities.json", _repeat_first_id),
        ("passages.json", _repeat_first_id),
    ],
)
def test_corrupt_index_json_exits_2(built, capsys, name, corrupt):
    corrupt(built / "index" / name)
    assert main(["stats"] + common(built)) == 2
    assert name in capsys.readouterr().err


class TestAnswerCommand:
    def test_offline_placeholder_answer(self, built, capsys):
        code = main(["answer", TOY_QUERY, "--k1", "1", "--k2", "3"] + common(built))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["answer"].startswith("offline-answer-")
        assert payload["passages"] == ["P1", "P2"]


def stale_corpus(tmp_path):
    """The toy corpus with passage P3 renamed after indexing."""
    path = tmp_path / "stale.jsonl"
    text = (DATA_DIR / "toy_corpus.jsonl").read_text(encoding="utf-8")
    path.write_text(text.replace('"id": "P3"', '"id": "P3b"'), encoding="utf-8")
    return str(path)


class TestStaleCorpus:
    def test_answer_exits_2(self, built, capsys):
        args = ["answer", TOY_QUERY] + common(built) + ["--corpus", stale_corpus(built)]
        assert main(args) == 2
        assert "rebuild the index" in capsys.readouterr().err

    def test_eval_qa_exits_2(self, built, capsys):
        args = ["eval", "--dataset", TOY_QA, "--qa"] + common(built)
        assert main(args + ["--corpus", stale_corpus(built)]) == 2
        assert "rebuild the index" in capsys.readouterr().err


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

    def test_malformed_dataset_line_exits_2(self, built, tmp_path, capsys):
        bad = tmp_path / "bad_qa.jsonl"
        bad.write_text('{"question": "q", "answers": "Paris"}\n', encoding="utf-8")
        args = ["eval", "--dataset", str(bad), "--k1", "1", "--k2", "3"] + common(built)
        assert main(args) == 2
        assert "line 1" in capsys.readouterr().err

    def test_dataset_that_is_a_directory_exits_2(self, built, tmp_path, capsys):
        args = ["eval", "--dataset", str(tmp_path), "--k1", "1", "--k2", "3"] + common(built)
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: ")

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


class TestEncoderMismatch:
    """A query command whose encoder is not the one the index was built
    with stops before the first query."""

    @pytest.mark.parametrize(
        "command",
        [
            ["retrieve", TOY_QUERY],
            ["answer", TOY_QUERY],
            ["eval", "--dataset", TOY_QA, "--output", "report.json"],
        ],
    )
    def test_another_offline_dim_exits_2(self, built, capsys, monkeypatch, command):
        monkeypatch.chdir(built)
        assert main(command + common(built) + ["--offline-dim", "64"]) == 2
        err = capsys.readouterr().err
        assert "'offline-hash-bow-d256'" in err and "'offline-hash-bow-d64'" in err
        assert not (built / "report.json").exists()

    def test_remote_encoder_of_the_same_width_exits_2(self, built, capsys, monkeypatch):
        monkeypatch.delenv("HYPERHOP_OFFLINE", raising=False)
        args = [
            "retrieve", TOY_QUERY,
            "--index-dir", str(built / "index"),
            "--api-base", "http://localhost:9",
            "--embed-model", "other", "--embed-dim", "256", "--chat-model", "chat",
        ]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "'offline-hash-bow-d256'" in err and "'remote:other-d256'" in err

    def test_index_without_encoder_id_still_answers(self, built, capsys):
        path = built / "index" / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["encoder_id"]
        path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        assert main(["answer", TOY_QUERY, "--k1", "1", "--k2", "3"] + common(built)) == 0
        assert json.loads(capsys.readouterr().out)["passages"] == ["P1", "P2"]


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


GOLDEN = DATA_DIR / "toy_golden"


def test_toy_outputs_are_the_golden_bytes(built, capsys):
    """The toy index manifest, `stats`, `eval` and `eval --qa` outputs byte for
    byte as in tests/data/toy_golden, and the ids that `retrieve` selects and
    ranks. The retrieval scores are left out: BLAS kernels may move their
    last bits from one CPU to another."""
    golden = {path.name: path.read_bytes() for path in GOLDEN.iterdir()}
    assert (built / "index" / "manifest.json").read_bytes() == golden["manifest.json"]
    runs = {
        "manifest.json": ["index"],
        "stats.json": ["stats"],
        "eval.json": ["eval", "--dataset", TOY_QA],
        "eval_qa.json": ["eval", "--dataset", TOY_QA, "--qa", "--k1", "1", "--k2", "3"],
    }
    capsys.readouterr()
    for name, args in runs.items():
        assert main(args + common(built)) == 0
        assert capsys.readouterr().out.encode("utf-8") == golden[name], name
    assert main(["retrieve", TOY_QUERY, "--k1", "1", "--k2", "3"] + common(built)) == 0
    payload = json.loads(capsys.readouterr().out)
    ids = {key: [e["id"] for e in payload[key]] for key in ("selected", "topk2")}
    rendered = json.dumps({"query": payload["query"], **ids}, indent=2) + "\n"
    assert rendered.encode("utf-8") == golden["retrieve_ids.json"]


@pytest.mark.parametrize("module", ["hyperhop", "hyperhop.cli"])
class TestRunAsModule:
    """``python -m`` runs the same CLI as the installed ``hyperhop`` script."""

    def run(self, module, *args):
        src = str(Path(hyperhop.__file__).resolve().parent.parent)
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        return subprocess.run(
            [sys.executable, "-m", module, *args], capture_output=True, text=True, env=env
        )

    def test_help_prints_usage(self, module):
        done = self.run(module, "--help")
        assert done.returncode == 0
        assert done.stdout.startswith("usage: hyperhop")

    def test_stats_on_a_missing_index_exits_2(self, module, tmp_path):
        done = self.run(module, "stats", "--index-dir", str(tmp_path / "void"), "--offline")
        assert done.returncode == 2
        assert "no index manifest" in done.stderr
