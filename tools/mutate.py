"""Run the mutation checks listed in ``tools/mutants.json``.

Each entry names a source file (relative to the repository root), an exact
snippet of it, the replacement that makes the mutant, and the pytest node IDs
that must fail on the mutant. The runner copies the tree to a temporary
directory once, runs the listed tests there unmutated (they must pass), then
applies one mutant at a time, runs its tests and restores the file. A mutant
is killed when every listed test fails, and survives otherwise. A snippet that
does not occur exactly once in its file is an error, not a skip.

Run it from the repository root, with no arguments::

    python tools/mutate.py

Exit status: 0 when every mutant is killed, 1 when one survives, 2 on an
error (a snippet that does not match, a listed test that does not pass
unmutated or that pytest does not report).
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
MUTANTS = ROOT / "tools" / "mutants.json"
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info")


class MutationError(Exception):
    pass


def load() -> list[dict]:
    """The mutants of ``MUTANTS``, each with a name, file, snippet, replacement and tests."""
    mutants = json.loads(MUTANTS.read_text())
    for mutant in mutants:
        missing = {"name", "file", "snippet", "replacement", "tests"} - set(mutant)
        if missing:
            raise MutationError(f"{mutant.get('name', mutant)}: missing {sorted(missing)}")
        if not mutant["tests"]:
            raise MutationError(f"{mutant['name']}: lists no tests")
    return mutants


def apply(source: str, mutant: dict) -> str:
    """``source`` with the mutant's snippet replaced; MutationError unless the
    snippet occurs exactly once."""
    count = source.count(mutant["snippet"])
    if count != 1:
        raise MutationError(f"{mutant['name']}: snippet occurs {count} times in {mutant['file']}")
    return source.replace(mutant["snippet"], mutant["replacement"])


def run_tests(tree: pathlib.Path, tests: list[str]) -> dict[str, str]:
    """The outcome (PASSED, FAILED, ERROR...) pytest reports for each node ID."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        raise MutationError(f"pytest exited {done.returncode}:\n{done.stdout}{done.stderr}")
    outcomes = {}
    for line in done.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            outcomes[rest.split(" - ")[0]] = word
    return outcomes


def check(tree: pathlib.Path, mutant: dict) -> list[str]:
    """The listed tests that passed on the mutant (none: killed)."""
    path = tree / mutant["file"]
    original = path.read_text()
    path.write_text(apply(original, mutant))
    try:
        outcomes = run_tests(tree, mutant["tests"])
    finally:
        path.write_text(original)
    missing = [test for test in mutant["tests"] if test not in outcomes]
    if missing:
        raise MutationError(f"{mutant['name']}: pytest reported no outcome for {missing}")
    return [test for test in mutant["tests"] if outcomes[test] == "PASSED"]


def main() -> int:
    try:
        mutants = load()
        for mutant in mutants:  # every snippet must match before anything runs
            apply((ROOT / mutant["file"]).read_text(), mutant)
        with tempfile.TemporaryDirectory() as tmp:
            tree = pathlib.Path(tmp) / "tree"
            shutil.copytree(ROOT, tree, ignore=IGNORE)
            tests = sorted({test for mutant in mutants for test in mutant["tests"]})
            outcomes = run_tests(tree, tests)
            failing = [test for test in tests if outcomes.get(test) != "PASSED"]
            if failing:
                raise MutationError(f"listed tests do not pass without a mutant: {failing}")
            survived = 0
            for mutant in mutants:
                passed = check(tree, mutant)
                survived += bool(passed)
                status = f"survived ({len(passed)} listed tests passed: {passed})" if passed \
                    else f"killed ({len(mutant['tests'])} listed tests failed)"
                print(f"{mutant['name']}: {status}", flush=True)
    except MutationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{len(mutants) - survived} of {len(mutants)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
