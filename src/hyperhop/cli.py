"""Command line interface: index, retrieve, answer, eval, stats.

Exit codes: 0 success, 1 partial failure (report still written), 2 failed
precondition (missing files, bad config).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .config import SETTING_TYPES, AppConfig, load_app_config
from .corpus import Corpus, load_corpus
from .errors import ContractError, HyperhopError, IndexIntegrityError
from .evaluate import load_qa_dataset, run_eval
from .hypergraph import graph_stats
from .index_store import load_index
from .pipeline import (
    answer_template,
    build_index_from_corpus,
    make_chat,
    make_encoder,
    make_extractor,
)
from .qa import answer as generate_answer
from .retrieval import RetrievalConfig, retrieve


def _add_setting_flags(parser: argparse.ArgumentParser, *configs: type) -> None:
    """``--config``, then a flag for each setting field of the ``configs``
    dataclasses, as the field's metadata spells and describes it (see
    ``retrieval.setting``). A bool flag stores the opposite of the field's
    default; every flag defaults to None, so an unset flag overrides nothing."""
    parser.add_argument("--config", help="JSON config file")
    for f in (f for config in configs for f in fields(config) if f.name in SETTING_TYPES):
        flag = f.metadata.get("flag") or "--" + f.name.replace("_", "-")
        kind = SETTING_TYPES[f.name]
        if kind is bool:
            how = {"action": "store_false" if f.default else "store_true", "default": None}
        else:
            how = {"type": kind}
        parser.add_argument(flag, dest=f.name, help=f.metadata.get("help"), **how)


def _check_utf8(query: str) -> None:
    """Raise ContractError unless UTF-8 can encode ``query``: argv carries
    bytes that are not UTF-8 as lone surrogates."""
    try:
        query.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ContractError(f"the query is not valid UTF-8 at character {exc.start}") from None


def _config_from_args(args: argparse.Namespace) -> AppConfig:
    flags = {name: getattr(args, name, None) for name in SETTING_TYPES}
    return load_app_config(flags, config_file=args.config)


def _load_indexed_corpus(config: AppConfig, index) -> Corpus:
    """The corpus, once the bytes it was parsed from are checked to be the
    ones the index was built from (its ``corpus_sha256``)."""
    path = config.require("corpus")
    corpus = load_corpus(path)
    built_from = (index.manifest or {}).get("corpus_sha256")
    if built_from is not None and corpus.sha256 != built_from:
        raise IndexIntegrityError(
            f"corpus {path} is not the one the index was built from; rebuild the index"
        )
    return corpus


def _open_index(config: AppConfig):
    """The index, encoder and extractor a query command uses. Querying with
    another encoder than the index's raises ContractError (exit 2) in
    ``retrieve`` and ``run_eval``, before the first query."""
    index = load_index(config.require("index_dir"))
    return index, make_encoder(config), make_extractor(config)


def cmd_index(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    _, manifest = build_index_from_corpus(config)
    print(json.dumps(manifest, sort_keys=True, indent=2))
    return 0


def cmd_retrieve(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    index, encoder, extractor = _open_index(config)
    result = retrieve(args.query, index, config.retrieval, encoder, extractor)
    print(json.dumps(result.to_payload(args.query, index.passage_ids), indent=2))
    return 0


def cmd_answer(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    index, encoder, extractor = _open_index(config)
    corpus = _load_indexed_corpus(config, index)
    result = retrieve(args.query, index, config.retrieval, encoder, extractor)
    context = corpus.passages(index.passage_ids[col] for col, _ in result.selected)
    reply = generate_answer(args.query, context, make_chat(config), answer_template(config))
    print(
        json.dumps(
            {
                "query": args.query,
                "answer": reply,
                "passages": [p.id for p in context],
            },
            indent=2,
        )
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    index, encoder, extractor = _open_index(config)
    dataset = load_qa_dataset(args.dataset)
    chat = make_chat(config) if args.qa else None
    corpus = _load_indexed_corpus(config, index) if args.qa else None
    report = run_eval(
        dataset,
        index,
        config.retrieval,
        encoder,
        extractor,
        chat=chat,
        corpus=corpus,
        answer_template=answer_template(config),
        max_workers=config.max_workers,
    )
    rendered = report.to_json(include_timing=args.timing)
    if args.output:
        Path(args.output).write_text(rendered, encoding="utf-8")
    else:
        print(rendered, end="")
    print(report.to_table(include_timing=args.timing), file=sys.stderr, end="")
    return 1 if report.errors else 0


def cmd_stats(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    index = load_index(config.require("index_dir"))
    stats = graph_stats(index.incidence)
    # A row of zero norm has cosine 0 with every query: x or p never reaches it.
    stats["zero_norm_entity_rows"] = int((index.entity_rows.norms == 0.0).sum())
    stats["zero_norm_passage_rows"] = int((index.passage_rows.norms == 0.0).sum())
    print(json.dumps(stats, sort_keys=True, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperhop",
        description="Entity-hypergraph diffusion retrieval for multi-hop QA",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build and persist the retrieval index")
    _add_setting_flags(p_index, AppConfig)
    p_index.set_defaults(func=cmd_index)

    p_retrieve = sub.add_parser("retrieve", help="rank passages for a query")
    p_retrieve.add_argument("query")
    _add_setting_flags(p_retrieve, AppConfig, RetrievalConfig)
    p_retrieve.set_defaults(func=cmd_retrieve)

    p_answer = sub.add_parser("answer", help="retrieve then answer a query")
    p_answer.add_argument("query")
    _add_setting_flags(p_answer, AppConfig, RetrievalConfig)
    p_answer.set_defaults(func=cmd_answer)

    p_eval = sub.add_parser("eval", help="score retrieval (and QA) on a dataset")
    p_eval.add_argument("--dataset", required=True, help="JSONL QA dataset")
    p_eval.add_argument("--output", help="write the JSON report here instead of stdout")
    p_eval.add_argument("--qa", action="store_true", help="also score generated answers")
    p_eval.add_argument("--timing", action="store_true",
                        help="include each example's retrieval wall-clock seconds in the report:"
                             " entity and passage similarity (query extraction and"
                             " embedding included), diffusion and selection; not the"
                             " answer call")
    _add_setting_flags(p_eval, AppConfig, RetrievalConfig)
    p_eval.set_defaults(func=cmd_eval)

    p_stats = sub.add_parser("stats", help="print graph-scale statistics")
    _add_setting_flags(p_stats, AppConfig)
    p_stats.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_utf8(getattr(args, "query", ""))
        return args.func(args)
    except (HyperhopError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
