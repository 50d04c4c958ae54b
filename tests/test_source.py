"""Source rules that no behaviour test can see.

Every array argument is coerced by core.as_real_array, which refuses
complex values; a hand-written np.asarray(..., dtype=np.float64) would
drop their imaginary part with only a ComplexWarning. So no module but
core.py casts an array to float64 by hand.

This file is left out of the mutation gate's subset: it reads the source
text, so it would kill mutants whose new text it happens to match.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "inpaintkit"
_COERCIONS = {"asarray", "array", "asanyarray"}


def _is_np_float64(node: ast.expr) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "float64" and isinstance(node.value, ast.Name) and node.value.id == "np"


def _hand_coercions(path: Path) -> list[str]:
    """file:line of every np.asarray, np.array or np.asanyarray call with dtype np.float64 in path."""
    sites = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _COERCIONS):
            continue
        if not (isinstance(node.func.value, ast.Name) and node.func.value.id == "np"):
            continue
        dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"] + node.args[1:2]
        if any(_is_np_float64(d) for d in dtypes):
            sites.append(f"{path.name}:{node.lineno}")
    return sites


def test_no_module_but_core_coerces_an_array_to_float64_by_hand():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "core.py")
    assert modules, f"no modules found under {PACKAGE}"
    sites = [site for path in modules for site in _hand_coercions(path)]
    assert not sites, f"coerce through core.as_real_array instead: {', '.join(sites)}"


def test_the_check_finds_each_spelling_of_a_hand_coercion(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "import numpy as np\n"
        "a = np.asarray(x, dtype=np.float64)\n"
        "b = np.array(x, np.float64)\n"
        "c = np.asanyarray(x, dtype=np.float64)\n"
        "d = np.asarray(x)\n"
        "e = np.array(x, dtype=np.uint8)\n"
        "f = np.empty(3, dtype=np.float64)\n"
    )
    assert _hand_coercions(source) == ["probe.py:2", "probe.py:3", "probe.py:4"]
