"""One benchmark run: inputs, cold and warm builds, set-ups, checked queries.

The run drives hyperhop's public API with one client in a closed loop: each
question is sent only after the previous answer is back. It goes in ROUNDS
rounds of cold build, warm build, set-ups and a share of the queries. Every
query is checked outside its timed region (see ``Gate``); once per run the
ranking is also compared with the dense reference implementation of the
test suite on a scaled-down instance of the workload.

Input generation, the oracle comparison and the timed builds run in a child
process (see ``Builder``). The set-ups and the queries run in this one, so
its peak RSS, reported as peak_rss_mb, covers loading the index and
answering questions, plus the calibration's two fixed 16 MB arrays.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

import numpy as np
from calibration import Calibration, bracketed
from generator import GENERATOR_VERSION, Question, Shape, read_questions, write_inputs
from hyperhop import index_store, pipeline, retrieval
from hyperhop.config import AppConfig
from hyperhop.metrics import recall_at_k

# The sizes follow the ROADMAP Baseline graph and its inverse. The Zipf
# exponents (1.0 and 0.8) and the 10% share of entity-free questions are
# assumptions, not fitted to any corpus: no measured entity-degree skew of
# the target corpora is in the repository yet. The skew makes hubs, so the
# diffusion frontier is much wider than on the Baseline graph (see CHANGES.md).
WORKLOADS = {
    # ROADMAP Baseline graph: the 50k-entity catalog is large next to the 10k
    # passages, so x (entity similarity over the whole catalog) dominates.
    "query_multihop": Shape(10_000, 50_000, 8, 1.0, 12, 5, 100, 0.1),
    # Inverted ratio: 50k passages, 5k Zipf-popular entities, ~600k
    # incidences. p, diffusion and sorting dominate and x is small.
    "query_passage_heavy": Shape(50_000, 5_000, 12, 0.8, 8, 6, 100, 0.1),
}
ROUNDS = 2  # rounds of cold build, warm build, set-ups and queries per run
SETUP_PER_ROUND = 4
ORACLE_SCALE = 0.02  # the oracle instance: 2% of the workload, dense H fits in memory
RECALL_K = 10


def _inputs(cache: Path, shape: Shape, seed: int) -> Path:
    """Generated inputs for (generator version, seed, shape), made once."""
    key = json.dumps([GENERATOR_VERSION, seed, asdict(shape)], sort_keys=True)
    directory = cache / "inputs" / hashlib.sha256(key.encode()).hexdigest()[:16]
    if not directory.is_dir():
        tmp = directory.with_name(f"{directory.name}.tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        write_inputs(shape, seed, tmp)
        tmp.rename(directory)
    return directory


def _config(inputs: Path, work: Path) -> AppConfig:
    return AppConfig(
        corpus=str(inputs / "corpus.jsonl"),
        index_dir=str(work / "index"),
        cache_dir=str(work / "cache"),
        offline=True,
    )


def _dir_bytes(directory: Path) -> int:
    return sum(f.stat().st_size for f in directory.iterdir() if f.is_file())


def _dense_incidence(index) -> np.ndarray:
    inc = index.incidence
    dense = np.zeros((inc.n_entities, inc.n_passages))
    cols = np.repeat(np.arange(inc.n_passages), np.diff(inc.pas_offsets))
    dense[inc.pas_indices, cols] = 1.0
    return dense


def oracle_problem(root: Path, cache: Path, shape: Shape, seed: int, work: Path) -> str | None:
    """Compare p_tilde with tests/reference.py::dense_pipeline; None when it agrees."""
    spec = importlib.util.spec_from_file_location("reference", root / "tests" / "reference.py")
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)

    inputs = _inputs(cache, shape.scaled(ORACLE_SCALE), seed)
    config = _config(inputs, work)
    index, _ = pipeline.build_index_from_corpus(config)
    encoder, extractor = pipeline.make_encoder(config), pipeline.make_extractor(config)
    rc = config.retrieval
    dense = _dense_incidence(index)
    compared = 0
    for q in read_questions(inputs):
        x = retrieval.build_entity_similarity(q.text, index, encoder, extractor, rc.eta)
        if not x.any():
            continue  # dense fallback: no diffusion to compare
        p = retrieval.build_passage_similarity(q.text, index, encoder)
        got = retrieval.rank_passages(x, p, index, rc).artifacts.p_tilde
        want = reference.dense_pipeline(dense, x, p, rc.steps, rc.beta)
        if not np.allclose(got, want, rtol=1e-9, atol=1e-12):
            gap = np.abs(got - want).max()
            return f"{q.qid}: p_tilde differs from the dense oracle by {gap:.3e}"
        compared += 1
    return None if compared else "no oracle question reached the diffusion"


def _build(config: AppConfig, trace: bool):
    """One timed build: (measured s, reference s, its tracer or None)."""
    if not trace:
        return *bracketed(pipeline.build_index_from_corpus, config)[:2], None
    import tracing

    tracer = tracing.Tracer()
    with tracing.patched(tracer, "build"):
        seconds, reference, _ = bracketed(pipeline.build_index_from_corpus, config)
    return seconds, reference, tracer


def _answer_requests(conn) -> None:
    while (request := conn.recv()) is not None:
        fn, args = request
        try:
            conn.send((True, fn(*args)))
        except Exception as exc:
            conn.send((False, f"{fn.__name__}: {type(exc).__name__}: {exc}"))


class Builder:
    """A child process that generates inputs, checks the oracle and builds.

    These hold the whole corpus, its vectors and the index being built;
    doing them in a child keeps them out of this process's peak RSS. Calls
    are synchronous, so the closed loop stays single-client.
    """

    def __init__(self):
        ctx = multiprocessing.get_context("fork")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_answer_requests, args=(child,), daemon=True)
        self._proc.start()
        child.close()

    def call(self, fn, *args):
        self._conn.send((fn, args))
        ok, out = self._conn.recv()
        if not ok:
            raise RuntimeError(out)
        return out

    def close(self) -> None:
        try:
            self._conn.send(None)
        except OSError:
            pass
        self._proc.join(timeout=30)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
        self._conn.close()


class Gate:
    """Per-query checks, recall and the selection digest of the first pass."""

    def __init__(self, passage_ids: list[str], k1: int, k2: int):
        self.passage_ids, self.k1, self.k2 = passage_ids, k1, k2
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.first: dict[str, tuple[str, ...]] = {}  # qid -> selected ids
        self.recall: dict[str, float] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def check(self, q: Question, result) -> None:
        self.attempted += 1
        problem = self._problem(result)
        if problem is None:
            ids = tuple(self.passage_ids[c] for c, _ in result.selected)
            if q.qid not in self.first:
                self.first[q.qid] = ids
                ranked = [self.passage_ids[c] for c, _ in result.ranking]
                self.recall[q.qid] = recall_at_k(ranked, list(q.gold_ids), RECALL_K)
            elif self.first[q.qid] != ids:
                problem = "selection differs from the first pass"
        if problem:
            self.fail(f"{q.qid}: {problem}")

    def _problem(self, result) -> str | None:
        n = len(self.passage_ids)
        selected = [c for c, _ in result.selected]
        top = [c for c, _ in result.ranking[: self.k2]]
        scores = [s for _, s in result.ranking]
        if not self.k1 <= len(selected) <= self.k2:
            return f"{len(selected)} selected, outside [{self.k1}, {self.k2}]"
        if not set(selected) <= set(top):
            return "selection outside the top-k2"
        if any(b > a for a, b in zip(scores, scores[1:])):
            return "ranking scores increase"
        if any(not 0 <= c < n for c in selected + top):
            return "passage column outside the index"
        return None

    def digest(self, questions: list[Question]) -> str:
        h = hashlib.sha256()
        for q in questions:
            h.update(f"{q.qid}\t{','.join(self.first.get(q.qid, ()))}\n".encode())
        return h.hexdigest()


def _serve(questions: list[Question], seconds: float, ask, n: int, finish: bool) -> int:
    """Closed loop from question ``n`` on for ``seconds``; with ``finish``, also
    until the first pass over the questions is complete. Returns the next ``n``."""
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (finish and n < len(questions)):
        ask(n, questions[n % len(questions)])
        n += 1
    return n


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def run(root: Path, cache: Path, name: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0):
    """Run one workload; returns (metrics by name, gate, detail, spans or None).

    ``scale`` shrinks the workload's shape; only the benchmark's tests use it.
    """
    shape = WORKLOADS[name] if scale == 1.0 else WORKLOADS[name].scaled(scale)
    work = cache / "runs" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    builder = Builder()
    try:
        inputs = builder.call(_inputs, cache, shape, seed)
        metrics, gate, detail, spans = _run(
            root, cache, name, shape, seed, seconds, trace, inputs, work, builder
        )
    finally:
        builder.close()
        shutil.rmtree(work, ignore_errors=True)
    detail["scale"] = scale
    return metrics, gate, detail, spans


def _run(root, cache, name, shape, seed, seconds, trace, inputs, work, builder):
    if trace:
        import tracing
    tracers: dict[str, "tracing.Tracer"] = {}
    questions = read_questions(inputs)
    config = _config(inputs, work)
    rc = config.retrieval
    oracle = builder.call(oracle_problem, root, cache, shape, seed, work / "oracle")
    problems = [oracle] if oracle else []
    builds: dict[str, list[tuple[float, float]]] = {"cold": [], "warm": []}  # measured, reference
    setup_times: list[float] = []
    latencies: list[float] = []
    gate = first_build = None
    calibration = Calibration()
    if trace:
        loads, tracer = tracing.Tracer(), tracing.Tracer()
        traced_latencies: list[float] = []
        first_pass: list[tuple[str, int, int, bool]] = []  # query, x nonzero, selected, fallback

    def ask(n, q):
        calibration.sample()
        try:
            elapsed, result = _timed(retrieval.retrieve, q.text, index, rc, encoder, extractor)
        except Exception as exc:  # a query that raises is a failed operation
            gate.attempted += 1
            gate.fail(f"{q.qid}: {type(exc).__name__}: {exc}")
            return
        latencies.append(elapsed)
        gate.check(q, result)
        if not trace:
            return
        # Traced right after untraced: pairing keeps drift out of the overhead.
        tracer.query = key = f"{n}:{q.qid}"
        traced_extractor = tracing.QueryExtractor(tracer, extractor)
        with tracing.patched(tracer, "query"), tracer.span("query"):
            elapsed, result = _timed(
                retrieval.retrieve, q.text, index, rc, encoder, traced_extractor
            )
        tracer.query = None
        traced_latencies.append(elapsed)
        gate.check(q, result)
        if n < len(questions):
            diag = result.diagnostics
            first_pass.append(
                (key, diag.nonzero_entity_count, len(result.selected), diag.dense_fallback)
            )

    # A chain question, so that the warm-up runs the whole path, diffusion included.
    warm_up = next(q for q in questions if len(q.gold_ids) == 2)
    # Each round: a cold build into empty caches, a warm rebuild from the same
    # caches, set-ups (load the index, make the clients, answer one question),
    # then a share of the queries. Spreading every kind of sample over the
    # whole run keeps a slow spell of the machine out of the medians.
    n, query_wall = 0, 0.0
    for rnd in range(ROUNDS):
        shutil.rmtree(work / "index", ignore_errors=True)
        shutil.rmtree(work / "cache", ignore_errors=True)
        for phase in ("cold", "warm"):
            *times, tracers[f"{phase}{rnd}"] = builder.call(_build, config, trace)
            builds[phase].append(tuple(times))
            manifest = (work / "index" / index_store.MANIFEST_NAME).read_bytes()
            built = (manifest, _dir_bytes(work / "index"))
            first_build = first_build or built
            if built != first_build:
                problems.append(f"{phase} build of round {rnd} differs from the first build")
        for _ in range(SETUP_PER_ROUND):
            index = None  # one loaded index at a time, so peak RSS holds one
            calibration.sample()
            start = time.perf_counter()
            with loads.span("index_store.load") if trace else nullcontext():
                index = index_store.load_index(config.index_dir)
            encoder, extractor = pipeline.make_encoder(config), pipeline.make_extractor(config)
            retrieval.retrieve(warm_up.text, index, rc, encoder, extractor)
            setup_times.append(time.perf_counter() - start)
        gate = gate or Gate(index.passage_ids, rc.k1, rc.k2)
        start = time.perf_counter()
        n = _serve(questions, seconds / ROUNDS, ask, n, finish=rnd == ROUNDS - 1)
        query_wall += time.perf_counter() - start

    gate.attempted += 2 * ROUNDS + 1  # the builds and the oracle comparison
    for problem in problems:
        gate.fail(problem)
    index_bytes = first_build[1]
    detail = {
        "workload": name,
        "seed": seed,
        "questions": len(questions),
        "samples": len(latencies),
        "query_wall_s": query_wall,
        "digest": gate.digest(questions),
        # Reference seconds per measured second: over the run for the array
        # kernel, the median over the builds for the interpreter kernel.
        "speed": {
            "numpy": calibration.factor(),
            "python": statistics.median(r / t for t, r in builds["cold"] + builds["warm"]),
        },
    }

    if trace:
        tracers.update(setup=loads, query=tracer)
        spans = [r for key, t in tracers.items() for r in t.records(key)]
        metrics = {
            **_build_layers(tracers),
            **_query_layers(tracer, first_pass),
            "index_store.bytes_written": index_bytes,
            "index_store.load_s": statistics.median(s.end - s.start for s in loads.spans),
            "trace.query_ms": 1e3 * statistics.median(traced_latencies),
            "trace.overhead_ms": 1e3 * (
                statistics.median(traced_latencies) - statistics.median(latencies)
            ),
        }
        return metrics, gate, detail, spans

    ms = [1e3 * t for t in latencies] or [float("nan")]
    measured = {
        "setup_s": statistics.median(setup_times),
        "query_p50_ms": float(np.percentile(ms, 50)),
        "query_p90_ms": float(np.percentile(ms, 90)),
        "queries_per_s": len(latencies) / sum(latencies) if latencies else 0.0,
        "build_cold_s": statistics.median(t for t, _ in builds["cold"]),
        "build_warm_s": statistics.median(t for t, _ in builds["warm"]),
    }
    detail["measured"] = measured
    # The query path and the set-up stream large arrays. The builds are
    # interpreter-bound (extraction, hashing, the offline encoder) and each
    # is scaled by the kernel bursts around it.
    arrays = calibration.factor()
    metrics = {
        "setup_s": measured["setup_s"] * arrays,
        "query_p50_ms": measured["query_p50_ms"] * arrays,
        "query_p90_ms": measured["query_p90_ms"] * arrays,
        "queries_per_s": measured["queries_per_s"] / arrays,
        "recall_at_10": statistics.fmean(gate.recall.values()) if gate.recall else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "build_cold_s": statistics.median(r for _, r in builds["cold"]),
        "build_warm_s": statistics.median(r for _, r in builds["warm"]),
        "index_bytes": index_bytes,
    }
    return metrics, gate, detail, None


def _build_layers(tracers) -> dict[str, float]:
    """Per build phase, each layer's seconds and counts; medians over the rounds."""
    rounds: dict[str, list[float]] = {}
    for phase in ("cold", "warm"):
        for rnd in range(ROUNDS):
            t = tracers[f"{phase}{rnd}"]
            secs: dict[str, float] = {}
            for span in t.spans:
                secs[span.name] = secs.get(span.name, 0.0) + span.end - span.start
            c = t.counters
            for metric, value in (
                ("corpus.load_s", secs.get("corpus.load", 0.0)),
                ("entities.extract_s", secs.get("entities.extract", 0.0)),
                ("entities.extract_calls", c["entities.extract_calls"]),
                ("embeddings.embed_s", secs.get("embeddings.embed", 0.0)),
                ("embeddings.texts_encoded", c["embeddings.texts_encoded"]),
                ("embeddings.cache_hit_ratio",
                 c["embeddings.cache_hits"] / max(1, c["embeddings.cache_lookups"])),
                ("embeddings.cache_appends", c["embeddings.cache_appends"]),
                ("hypergraph.incidence_build_s", secs.get("hypergraph.incidence_build", 0.0)),
                ("index_store.build_index_s", secs.get("index_store.build_index", 0.0)),
                ("index_store.save_s", secs.get("index_store.save", 0.0)),
            ):
                rounds.setdefault(f"{metric}.{phase}", []).append(value)
    return {name: statistics.median(values) for name, values in rounds.items()}


def _query_layers(tracer, first_pass) -> dict[str, float]:
    """Per-layer numbers of the traced queries.

    Times are medians over traced queries of each layer's time in a query,
    including the layers it calls; counts are exact and come from the first
    pass over the questions, so they repeat run to run.
    """
    out: dict[str, float] = {}
    per_query: dict[str, dict[str, float]] = {}
    calls: dict[str, dict[str, int]] = {}
    for span in tracer.spans:
        times = per_query.setdefault(span.query, {})
        times[span.name] = times.get(span.name, 0.0) + span.end - span.start
        counts = calls.setdefault(span.query, {})
        counts[span.name] = counts.get(span.name, 0) + 1

    def median_ms(span_name: str) -> float:
        return 1e3 * statistics.median(t.get(span_name, 0.0) for t in per_query.values())

    for metric, span_name in (
        ("retrieval.x_ms", "retrieval.x"),
        ("retrieval.p_ms", "retrieval.p"),
        ("retrieval.rank_ms", "retrieval.rank"),
        ("retrieval.diffuse_ms", "retrieval.diffuse"),
        ("retrieval.select_ms", "retrieval.select"),
        ("retrieval.sort_ms", "retrieval.sort"),
        ("embeddings.max_sim_ms", "embeddings.max_sim"),
        ("embeddings.cosine_rows_ms", "embeddings.cosine_rows"),
        ("embeddings.query_embed_ms", "embeddings.query_embed"),
        ("entities.query_extract_ms", "entities.query_extract"),
    ):
        out[metric] = median_ms(span_name)
    steps = [s.end - s.start for s in tracer.spans if s.name == "hypergraph.diffusion_step"]
    out["hypergraph.diffusion_step_ms"] = 1e3 * statistics.median(steps) if steps else 0.0

    first = [qid for qid, *_ in first_pass]
    out["retrieval.sort_calls"] = statistics.fmean(calls[q].get("retrieval.sort", 0) for q in first)
    out["hypergraph.diffusion_calls"] = statistics.fmean(
        calls[q].get("hypergraph.diffusion_step", 0) for q in first
    )
    _, nonzero, selected, fallback = zip(*first_pass)
    out["retrieval.x_nonzero"] = statistics.fmean(nonzero)
    out["retrieval.selected_size"] = statistics.fmean(selected)
    out["retrieval.dense_fallback_share"] = statistics.fmean(fallback)
    diffusing = [tracer.frontier[q] for q in first if tracer.frontier.get(q)]
    for step in range(1, 5):  # RetrievalConfig().steps
        nnz = [f[step - 1] for f in diffusing if len(f) >= step]
        out[f"hypergraph.frontier_nnz.t{step}"] = statistics.fmean(nnz) if nnz else 0.0
    return out
