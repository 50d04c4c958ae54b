"""Staleness check for the mutation gate in tests/mutants.py (the gate itself runs outside tier-1)."""

from __future__ import annotations

from mutants import MUTANTS, ROOT


def test_each_mutant_old_text_occurs_exactly_once_in_its_file():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        text = (ROOT / m.path).read_text()
        assert text.count(m.old) == 1, f"{m.name}: re-home this mutant, its old text occurs {text.count(m.old)} times in {m.path}"
        assert m.new != m.old
        # a mutant that does not compile is a collection error, never a kill
        compile(text.replace(m.old, m.new), m.path, "exec")
