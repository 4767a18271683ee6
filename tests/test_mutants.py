"""The mutation checks in ``tools/mutants.json`` stay runnable: every snippet
occurs exactly once in its file, and pytest collects every listed node ID.
Running the mutants themselves is ``python tools/mutate.py``."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutate", REPO / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

MUTANTS = mutate.load()


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant["name"] for mutant in MUTANTS])
def test_snippet_matches_once(mutant):
    source = (REPO / mutant["file"]).read_text()
    assert mutate.apply(source, mutant) != source


def test_listed_tests_are_collected():
    # Full node IDs, parameters included, so a listed case cannot go missing
    # while its test function stays.
    tests = sorted({test for mutant in MUTANTS for test in mutant["tests"]})
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *tests],
        cwd=REPO, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert set(tests) <= set(done.stdout.splitlines())


def test_snippet_that_does_not_match_is_an_error():
    mutant = dict(MUTANTS[0], snippet="no such line\n")
    with pytest.raises(mutate.MutationError, match="occurs 0 times"):
        mutate.apply((REPO / mutant["file"]).read_text(), mutant)
