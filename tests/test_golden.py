"""Golden outputs: every command in tests/golden/commands.txt, run through
sigmatau.cli.run, prints exactly what the corpus holds and exits as recorded.

A deliberate change of output is committed by rerunning
``PYTHONPATH=src python3 tests/golden/regen.py`` and reviewing the diff.
"""

import difflib

import pytest

from .golden.regen import CORPUS, Record, commands, parse, render, run_command

RECORDS = parse(CORPUS.read_text())
SUBCOMMANDS = sorted({r.argv[0] for r in RECORDS})


def test_corpus_lists_the_generated_commands():
    assert [(r.argv, r.stdin) for r in RECORDS] == [(tuple(a), s) for a, s in commands()]


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_outputs_match_the_corpus(subcommand):
    for want in (r for r in RECORDS if r.argv[0] == subcommand):
        got = Record(want.argv, want.stdin, *run_command(want.argv, want.stdin))
        if got != want:
            diff = difflib.unified_diff(
                render([want]).splitlines(), render([got]).splitlines(), "corpus", "now", lineterm=""
            )
            pytest.fail("\n".join(diff))
