"""The mutant catalogue (`tests/mutants.py`) still fits the code.

Running the mutants takes a while; this only checks that every snippet
occurs exactly once in `src/` and that every killer names a test that
exists, so a refactor that moves mutated code updates the catalogue.
"""

import os

import mutants


def test_every_mutant_snippet_occurs_once_and_its_killers_exist():
    assert len(mutants.BY_NAME) == len(mutants.MUTANTS)
    for mutant in mutants.MUTANTS:
        assert mutants.source(mutant).count(mutant.snippet) == 1, mutant.name
        assert mutant.replacement != mutant.snippet
        assert mutant.killers, mutant.name
        for node in mutant.killers:
            path, name = node.split("::")
            with open(os.path.join(mutants.ROOT, path),
                      encoding="utf-8") as fh:
                assert "\ndef %s(" % name in fh.read(), node
