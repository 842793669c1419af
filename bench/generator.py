"""Seeded synthetic multi-hop corpora for the benchmark.

A workload's inputs come from a ``Shape`` and a seed: a JSONL corpus whose
passages name capitalized two-word entities among lowercase filler words,
plus questions with their gold passage ids.

Most questions follow a planted 2-hop chain: passage G1 holds entities A and
B, passage G2 holds B and C, and the question names A plus up to two of B and
C, with a few filler words of each gold passage. The rest name no entity (a
few filler words of one gold passage), which exercises the dense fallback of
the retrieval pipeline. Entity popularity follows a Zipf law, so some
entities are hubs; the chain entities come from the unpopular half.

Nothing here imports the program: the inputs for a seed must be the same on
every commit that is compared. Name tokens have the form CVCVCVC, which no
English stopword has, so every name reads as one capitalized span.

The same (shape, seed) gives byte-identical files. Bump GENERATOR_VERSION
whenever the output for a given seed changes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

GENERATOR_VERSION = 1

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Shape:
    n_passages: int
    n_entities: int
    entities_per_passage: int  # target incidences per passage
    zipf_exponent: float
    fillers_per_passage: int
    hints_per_gold: int  # filler words a chain question shares with each gold passage
    n_questions: int
    entity_free_share: float  # share of questions that name no entity

    def scaled(self, factor: float) -> "Shape":
        """The same proportions at ``factor`` times the size."""
        return replace(
            self,
            n_passages=max(100, int(self.n_passages * factor)),
            n_entities=max(100, int(self.n_entities * factor)),
            n_questions=max(10, int(self.n_questions * factor)),
        )


@dataclass(frozen=True)
class Question:
    qid: str
    text: str
    gold_ids: tuple[str, ...]


def _pseudo_words(rng: np.random.Generator, count: int, syllables: int, coda: bool) -> list[str]:
    """``count`` distinct lowercase consonant-vowel words, optionally closed by a consonant."""
    words: dict[str, None] = {}
    while len(words) < count:
        cons = rng.integers(0, len(_CONSONANTS), size=(count, syllables + 1))
        vows = rng.integers(0, len(_VOWELS), size=(count, syllables))
        for c_row, v_row in zip(cons.tolist(), vows.tolist()):
            word = "".join(_CONSONANTS[c] + _VOWELS[v] for c, v in zip(c_row, v_row))
            words[word + _CONSONANTS[c_row[-1]] if coda else word] = None
            if len(words) == count:
                break
    return list(words)


def _entity_names(rng: np.random.Generator, count: int) -> list[str]:
    """``count`` distinct capitalized two-token names over a shared token pool."""
    tokens = [w.capitalize() for w in _pseudo_words(rng, max(64, int(4 * count**0.5)), 3, True)]
    names: dict[str, None] = {}
    while len(names) < count:
        for a, b in rng.integers(0, len(tokens), size=(count, 2)).tolist():
            if a != b:
                names[f"{tokens[a]} {tokens[b]}"] = None
                if len(names) == count:
                    break
    return list(names)


def _passage_text(names: list[str], fillers: list[str]) -> str:
    """Entities separated by filler runs and commas, so no two names merge."""
    per_gap = max(1, len(fillers) // max(1, len(names)))
    parts = [
        name + " " + " ".join(fillers[k * per_gap : (k + 1) * per_gap] or ["and"])
        for k, name in enumerate(names)
    ]
    return ", ".join(parts) + "."


def generate(shape: Shape, seed: int) -> tuple[list[dict], list[Question]]:
    """Passages (``id``/``title``/``text`` dicts) and questions for one seed."""
    rng = np.random.default_rng([GENERATOR_VERSION, seed])
    n_p, n_e = shape.n_passages, shape.n_entities
    names = _entity_names(rng, n_e)
    vocab = _pseudo_words(rng, 4000, 2, False) + _pseudo_words(rng, 1000, 3, False)

    popularity = rng.permutation(n_e)  # most popular first
    weights = np.empty(n_e)
    weights[popularity] = 1.0 / np.arange(1, n_e + 1) ** shape.zipf_exponent
    weights /= weights.sum()

    # One round-robin slot per entity makes the catalog complete; Zipf draws
    # top each passage up to the target incidence count.
    members: list[list[int]] = [[] for _ in range(n_p)]
    for ent, col in enumerate(rng.permutation(np.arange(n_e) % n_p).tolist()):
        members[col].append(ent)
    draws = rng.choice(n_e, size=(n_p, 2 * shape.entities_per_passage), p=weights)
    for col, row in enumerate(draws.tolist()):
        need = shape.entities_per_passage - len(members[col])
        if need > 0:
            fresh = [e for e in dict.fromkeys(row) if e not in members[col]]
            members[col].extend(fresh[:need])

    n_chain = int(round(shape.n_questions * (1.0 - shape.entity_free_share)))
    n_free = shape.n_questions - n_chain
    gold_cols = rng.choice(n_p, size=2 * n_chain + n_free, replace=False).tolist()
    chains = rng.choice(popularity[n_e // 2 :], size=(n_chain, 3), replace=False).tolist()
    for q, (a, b, c) in enumerate(chains):
        g1, g2 = gold_cols[2 * q], gold_cols[2 * q + 1]
        members[g1] = [a, b] + [e for e in members[g1] if e not in (a, b, c)]
        members[g2] = [b, c] + [e for e in members[g2] if e not in (a, b, c)]

    filler_idx = rng.integers(0, len(vocab), size=(n_p, shape.fillers_per_passage))
    fillers = [[vocab[i] for i in row] for row in filler_idx.tolist()]
    passages = []
    for col in range(n_p):
        order = rng.permutation(len(members[col])).tolist()
        text = _passage_text([names[members[col][k]] for k in order], fillers[col])
        passages.append({"id": f"p{col:06d}", "title": "", "text": text})

    questions = []
    h = shape.hints_per_gold
    for q, (a, b, c) in enumerate(chains):
        g1, g2 = gold_cols[2 * q], gold_cols[2 * q + 1]
        named = [names[e] for e in [a, b, c][: 1 + int(rng.integers(0, 3))]]
        hints = (
            rng.choice(fillers[g1], h, replace=False).tolist()
            + rng.choice(fillers[g2], h, replace=False).tolist()
        )
        words = [f"{n} {w}" for n, w in zip(named, hints)] + hints[len(named) :]
        gold = (f"p{g1:06d}", f"p{g2:06d}")
        questions.append(Question(f"q{q:05d}", "which " + " ".join(words) + "?", gold))
    for q in range(n_free):
        g = gold_cols[2 * n_chain + q]
        words = rng.choice(fillers[g], min(2 * h, len(fillers[g])), replace=False).tolist()
        text = "which " + " ".join(words) + "?"
        questions.append(Question(f"q{n_chain + q:05d}", text, (f"p{g:06d}",)))
    return passages, [questions[k] for k in rng.permutation(len(questions)).tolist()]


def write_inputs(shape: Shape, seed: int, directory: Path) -> None:
    """Write ``corpus.jsonl`` and ``questions.jsonl`` under ``directory``."""
    passages, questions = generate(shape, seed)
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / "corpus.jsonl").open("w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(p, sort_keys=True) + "\n" for p in passages)
    with (directory / "questions.jsonl").open("w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(asdict(q), sort_keys=True) + "\n" for q in questions)


def read_questions(directory: Path) -> list[Question]:
    with (directory / "questions.jsonl").open(encoding="utf-8") as fh:
        return [Question(o["qid"], o["text"], tuple(o["gold_ids"])) for o in map(json.loads, fh)]
