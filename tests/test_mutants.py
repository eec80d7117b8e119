"""The mutant list in ``mutants`` still matches the code it mutates.

Running the mutants takes minutes (``python tests/mutants.py``); these
checks take milliseconds, so an edit that moves or rewrites guarded code
fails here until its entry is updated.
"""

import re

import pytest

from mutants import MUTANTS, ROOT, apply

SOURCES = {path: path.read_text(encoding="utf-8") for path in (ROOT / "src").rglob("*.py")}


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
class TestMutant:
    def test_old_text_occurs_once_under_src_in_its_file(self, mutant):
        where = {path: text.count(mutant.old) for path, text in SOURCES.items() if mutant.old in text}
        assert where == {ROOT / mutant.file: 1}

    def test_mutated_file_still_compiles(self, mutant, tmp_path):
        (tmp_path / mutant.file).parent.mkdir(parents=True)
        (tmp_path / mutant.file).write_text(SOURCES[ROOT / mutant.file], encoding="utf-8")
        apply(mutant, tmp_path)
        mutated = (tmp_path / mutant.file).read_text(encoding="utf-8")
        assert mutated != SOURCES[ROOT / mutant.file]
        compile(mutated, mutant.file, "exec")

    def test_killing_tests_are_named_and_defined(self, mutant):
        assert mutant.guards and mutant.killed_by
        for node in mutant.killed_by:
            file, *names = node.split("::")
            source = (ROOT / file).read_text(encoding="utf-8")
            assert file.startswith("tests/test_") and names
            function = re.sub(r"\[.*\]$", "", names[-1])
            assert re.search(rf"^\s*def {function}\(", source, re.M), node
            assert all(re.search(rf"^\s*class {name}\b", source, re.M) for name in names[:-1]), node
