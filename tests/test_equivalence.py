"""The CLI's runs match the committed equivalence corpus (tests/equivalence.py)."""

import json

import equivalence


def test_cli_runs_match_the_equivalence_corpus():
    corpus = json.loads(equivalence.CORPUS.read_text(encoding="utf-8"))
    assert equivalence.mismatches(equivalence.compute(), corpus) == []
