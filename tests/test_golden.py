"""The library's outputs over the golden matrix match `tests/golden.json` bit for bit."""

from __future__ import annotations

import json
import math

from make_golden import MANIFEST, golden_runs


def test_outputs_match_the_golden_manifest():
    expected = json.loads(MANIFEST.read_text())
    seen = []
    for run_id, got in golden_runs():
        seen.append(run_id)
        want = expected.get(run_id)
        assert want is not None, f"{run_id}: not in {MANIFEST.name}"
        delta, want_delta = got.pop("final_delta"), want.pop("final_delta")
        assert got == want, f"first run that differs: {run_id}: got {got}, expected {want}"
        assert math.isclose(delta, want_delta, rel_tol=1e-12, abs_tol=0.0), (
            f"first run that differs: {run_id}: final_delta {delta!r}, expected {want_delta!r}"
        )
    assert seen == list(expected), f"{MANIFEST.name} lists runs the matrix no longer makes"
