"""Tests of the benchmark itself: inputs, span arithmetic, gate, and tiny runs.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from generator import Question, Shape, write_inputs  # noqa: E402
from tracing import Span, self_times  # noqa: E402
from workload import Gate  # noqa: E402

from hyperhop.retrieval import Diagnostics, RankedResult  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_SCALE = 0.02
SMALL_SHAPE = Shape(300, 900, 8, 1.0, 12, 5, 20, 0.1)


def _run_tiny(capsys, workload: str, seed: int, trace: int) -> tuple[int, str]:
    """One run of ``workload`` at 2% of its size, in this process."""
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)]
    status = run.main(argv, scale=TINY_SCALE)
    return status, capsys.readouterr().out


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _lines(stdout: str, prefix: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.startswith(prefix)]


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        write_inputs(SMALL_SHAPE, seed, tmp_path / name)
    for file in ("corpus.jsonl", "questions.jsonl"):
        assert (tmp_path / "a" / file).read_bytes() == (tmp_path / "b" / file).read_bytes()
        assert (tmp_path / "a" / file).read_bytes() != (tmp_path / "c" / file).read_bytes()


def test_self_time_subtracts_the_union_of_children_inside_the_parent():
    spans = [
        Span("query", 0.0, 10.0, None, "q"),
        Span("x", 1.0, 4.0, 0, "q"),  # overlaps its sibling on [3, 4]
        Span("p", 3.0, 6.0, 0, "q"),
        Span("rank", 8.0, 12.0, 0, "q"),  # runs past its parent's end
        Span("max_sim", 2.0, 3.0, 1, "q"),
        Span("load", 20.0, 21.5, None, None),
    ]
    # query: covered [1, 6] and [8, 10] -> 10 - 7; x: covered [2, 3] -> 3 - 1.
    assert self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0, 1.5])


def _result(selected, ranking):
    return RankedResult(ranking=ranking, selected=selected, diagnostics=Diagnostics())


def test_gate_counts_each_broken_query_once():
    q = Question("q1", "which", ("p00",))
    ranking = [(c, 1.0 - c / 100) for c in range(10)]
    gate = Gate([f"p{i:02d}" for i in range(20)], k1=2, k2=10)
    gate.check(q, _result(ranking[:3], ranking))
    assert (gate.attempted, gate.failed, gate.recall["q1"]) == (1, 0, 1.0)
    gate.check(q, _result(ranking[:4], ranking))  # differs from the first pass
    gate.check(q, _result([(15, 0.0)] + ranking[:2], ranking))  # outside the top-k2
    gate.check(q, _result(ranking[:1], ranking))  # fewer than k1
    gate.check(q, _result(ranking[:3], ranking[::-1]))  # scores increase
    assert (gate.attempted, gate.failed) == (5, 4)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_of_every_workload_reports_every_metric(capsys, trace, kind):
    names = {m["name"] for m in DECLARED[kind]}
    for workload in DECLARED["workloads"]:
        status, out = _run_tiny(capsys, workload["name"], 5, trace)
        assert status == 0, out[-2000:]
        [result] = _lines(out, '{"correct"')
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == names
        assert _lines(out, '{"env"')[0]["scale"] == TINY_SCALE


@pytest.mark.parametrize("trace", [0, 1])
def test_same_seed_repeats_selection_digest_and_exact_counts(capsys, trace):
    outs = [_run_tiny(capsys, "query_multihop", 9, trace)[1] for _ in range(2)]
    details = [_lines(out, '{"env"')[0] for out in outs]
    results = [_lines(out, '{"correct"')[0] for out in outs]
    assert details[0]["digest"] == details[1]["digest"]
    exact = [name for name, m in results[0]["metrics"].items()
             if m["unit"] in ("count", "fraction", "bytes")]
    assert exact
    for name in exact:
        assert results[0]["metrics"][name] == results[1]["metrics"][name], name


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "query_multihop", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not _lines(proc.stdout, '{"correct"')
