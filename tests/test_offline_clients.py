"""The offline encoder and extractor against their per-token definitions in
tests/reference.py: equal span lists, and float32 rows equal bit for bit,
over fixed cases and a seeded fuzz corpus."""

from __future__ import annotations

import re
import sys

import numpy as np
import pytest

from hyperhop.embeddings import OfflineEncoder, embed_batch
from hyperhop.entities import OfflineEntityExtractor, dedup_normalized, normalize_entity

from reference import encode_one, extract_spans

DIMS = (1, 16, 64, 256)

FIXED = [
    "",
    " ",
    "\t\n ",
    "  \x1c ",
    # Unicode capitals and a title-case letter (not upper: it starts no span)
    "Élodie Ωmega met ǅokić near Œuvre Ἀθῆναι and İstanbul, ÉCOLE Ωω",
    # tokens that start with a digit, an underscore or an upper-case numeral
    # (Roman numerals are upper case, not alphabetic: they start no span)
    "3rd Avenue and 42nd Street met 1999 Olympics 7Up _Private Name_ \u216b Legion",
    # apostrophes and hyphens inside tokens, and at their edges
    "O'Brien’s Jean-Luc Picard -Dash 'Quoted' Rock’n’Roll Anne- Marie X'",
    # capitalized stopwords end a span and start none
    "The Hague Of Orange And The Netherlands Is In Europe",
    # punctuation between capitalized words
    "Albert Einstein, Germany. Berlin; Paris: Rome! Brussels? Madrid (Spain) Lisbon—Porto",
    "Ulm/Munich Ulm&Munich Ulm...Munich Ulm . Munich",
    # non-ASCII whitespace joins a span
    "New\u00a0York Los\u2003Angeles San\x1cFrancisco Rio\u2028Janeiro Tokyo\u3000Tower",
    "Mixed \t\n  Space Run",
    # the name whose two words cancel on one coordinate at dim 256
    "menalif saposig",
    "Menalif Saposig",
    "ALL CAPS WORDS and lower words",
    "a b c d e f g h i j k l m n o p q r s t u v w x y z 0 1 2",
]

_WORDS = [
    "Albert", "einstein", "Germany", "the", "The", "Of", "of", "And", "berlin",
    "Élodie", "Ωmega", "ωmega", "ǅokić", "İstanbul", "straße", "STRASSE",
    "O'Brien", "Rock’n’Roll", "Jean-Luc", "-dash", "3rd", "42", "_x", "x_y",
    "menalif", "saposig", "Menalif", "Saposig", "中国", "Ἀθῆναι", "\u216bII",
]
_GAPS = [
    " ", "  ", "\t", "\n", "\u00a0", "\u2003", "\x1c", "\u2028", "\u3000",
    ", ", ". ", ";", "\u2014", " - ", "'", "\u2019", "(", ") ", "/", "...", "\u200b",
]  # the zero-width space U+200B is not whitespace
_CHARS = "".join(_WORDS) + "".join(_GAPS) + "aZ9_-'’.,"


def _fuzz(n: int, seed: int = 7) -> list[str]:
    """Texts of words and gaps, and texts of loose characters."""
    rng = np.random.default_rng(seed)
    texts = []
    for i in range(n):
        if i % 4 == 3:
            chars = rng.choice(list(_CHARS), size=int(rng.integers(0, 40)))
            texts.append("".join(chars))
            continue
        parts = []
        for _ in range(int(rng.integers(0, 16))):
            parts.append(_WORDS[int(rng.integers(len(_WORDS)))])
            parts.append(_GAPS[int(rng.integers(len(_GAPS)))])
        texts.append("".join(parts[: len(parts) - int(rng.integers(0, 2))]))
    return texts


CORPUS = FIXED + _fuzz(1500)


def test_extractor_matches_the_per_token_definition():
    extractor = OfflineEntityExtractor()
    for text in CORPUS:
        assert extractor.extract("", text) == extract_spans(text), repr(text)


def test_extractor_spans_of_the_fixed_cases():
    extract = OfflineEntityExtractor().extract
    assert extract("", FIXED[4]) == ["Élodie Ωmega", "Œuvre Ἀθῆναι", "İstanbul", "ÉCOLE Ωω"]
    assert extract("", FIXED[5]) == ["Avenue", "Street", "Olympics", "Name_", "Legion"]
    assert extract("", FIXED[7]) == ["Hague", "Orange", "Netherlands", "Europe"]
    assert extract("", FIXED[10]) == [
        "New York Los Angeles San Francisco Rio Janeiro Tokyo Tower"
    ]
    assert extract("", "") == extract("", "   ") == []


def test_dedup_matches_normalizing_each_string():
    spans = [span for text in CORPUS for span in extract_spans(text)]
    spans += [" Mixed  Case ", "mixed case", " ", "École", "École"]
    expected = list(dict.fromkeys(n for n in map(normalize_entity, spans) if n))
    assert dedup_normalized(spans) == expected
    assert dedup_normalized(spans) == expected  # the memo's second answers


def test_run_whitespace_is_str_isspace():
    """The extractor's runs join tokens on ``\\s`` and split them with
    ``str.split``; the per-token definition tests ``str.isspace``. All three
    take the same characters as whitespace."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = "".join(c for c in every if c.isspace())
    assert "".join(re.findall(r"\s", every)) == spaces
    assert ("x" + "x".join(spaces) + "x").split() == ["x"] * (len(spaces) + 1)
    assert not re.search(r"[\w'’\-]", spaces)


@pytest.mark.parametrize("dim", DIMS)
def test_encoder_rows_are_the_per_text_rows(dim):
    rows = OfflineEncoder(dim).encode_batch(CORPUS)
    expected = np.stack([encode_one(text, dim) for text in CORPUS])
    assert rows.dtype == np.float32 and rows.shape == (len(CORPUS), dim)
    assert rows.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim", DIMS)
def test_encoder_rows_do_not_depend_on_the_batch(dim):
    encoder = OfflineEncoder(dim)
    whole = encoder.encode_batch(CORPUS)
    for batch_size in (1, 7, 64):
        assert embed_batch(CORPUS, encoder, batch_size=batch_size).tobytes() == whole.tobytes()
    assert encoder.encode_batch([]).shape == (0, dim)


def test_zero_rows_stay_zero():
    rows = OfflineEncoder(256).encode_batch(["menalif saposig", "", "  ,. ", "menalif"])
    assert not rows[:3].any()
    assert np.linalg.norm(rows[3].astype(np.float64)) == pytest.approx(1.0)
