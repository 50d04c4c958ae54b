"""Staleness and scope checks for the mutation gate in tests/mutants.py (the gate itself runs outside tier-1)."""

from __future__ import annotations

import builtins
import symtable

from mutants import MUTANTS, ROOT


def test_each_mutant_old_text_occurs_exactly_once_in_its_file():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        text = (ROOT / m.path).read_text()
        assert text.count(m.old) == 1, f"{m.name}: re-home this mutant, its old text occurs {text.count(m.old)} times in {m.path}"
        assert m.new != m.old
        # a mutant that does not compile is a collection error, never a kill
        compile(text.replace(m.old, m.new), m.path, "exec")


def _unbound_names(text: str, path: str) -> set[tuple[str, str]]:
    """(scope, name) for each name a scope reads that neither it, an enclosing function, the module nor the builtins defines."""
    module = symtable.symtable(text, path, "exec")
    defined = set(dir(builtins)) | {s.get_name() for s in module.get_symbols() if s.is_assigned() or s.is_imported() or s.is_namespace()}
    unbound, tables = set(), [module]
    while tables:
        table = tables.pop()
        # a name an enclosing function defines is free, not global, in the scopes nested in it
        unbound |= {(table.get_name(), s.get_name()) for s in table.get_symbols() if s.is_global() and s.is_referenced() and s.get_name() not in defined}
        tables += table.get_children()
    return unbound


def test_no_mutant_reads_a_name_its_scope_does_not_define():
    # such a mutant is killed by a NameError the first time its line runs, not by a test of the bug it names
    for m in MUTANTS:
        text = (ROOT / m.path).read_text()
        introduced = _unbound_names(text.replace(m.old, m.new), m.path) - _unbound_names(text, m.path)
        assert not introduced, f"{m.name}: its replacement reads {sorted(introduced)} (scope, name), defined nowhere it can see"
