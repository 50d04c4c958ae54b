"""The library's and the CLI's outputs over the golden matrices match `tests/golden.json` and `tests/golden_cli.json` bit for bit."""

from __future__ import annotations

import json

import make_golden
import pytest
from make_golden import CLI_MANIFEST, MANIFEST, accepts, golden_cli_runs, golden_runs


def test_outputs_match_the_golden_manifest():
    expected = json.loads(MANIFEST.read_text())
    seen = []
    for run_id, got in golden_runs():
        seen.append(run_id)
        want = expected.get(run_id)
        assert want is not None, f"{run_id}: not in {MANIFEST.name}"
        assert accepts(want, got), f"first run that differs: {run_id}: got {got}, expected {want}"
    assert seen == list(expected), f"{MANIFEST.name} lists runs the matrix no longer makes"


def test_cli_outputs_match_the_cli_manifest(tmp_path):
    expected = json.loads(CLI_MANIFEST.read_text())
    seen = []
    for run_id, got in golden_cli_runs(tmp_path):
        seen.append(run_id)
        want = expected.get(run_id)
        assert want is not None, f"{run_id}: not in {CLI_MANIFEST.name}"
        for name in sorted(got["files"].keys() | want["files"].keys()):
            assert got["files"].get(name) == want["files"].get(name), f"first file that differs: {run_id}/{name}"
        assert got == want, f"first run that differs: {run_id}: got {got}, expected {want}"
    assert seen == list(expected), f"{CLI_MANIFEST.name} lists runs the matrix no longer makes"


def test_make_golden_writes_only_the_named_manifests(tmp_path, monkeypatch):
    targets = {name: (tmp_path / f"{name}.json", lambda name=name: {name: {}}) for name in make_golden.TARGETS}
    monkeypatch.setattr(make_golden, "TARGETS", targets)
    with pytest.raises(SystemExit) as exc:
        make_golden.main([])
    assert exc.value.code == 2 and not any(tmp_path.iterdir())
    make_golden.main(["cli"])
    assert [p.name for p in tmp_path.iterdir()] == ["cli.json"]
    assert json.loads((tmp_path / "cli.json").read_text()) == {"cli": {}}


def test_make_golden_keeps_the_entries_that_test_golden_accepts(tmp_path, monkeypatch, capsys):
    # a final_delta moved in its last digits keeps its recorded entry byte for
    # byte; a run whose image digest moved is rewritten
    delta = 0.0006197977527542801
    recorded = {"still": {"image": "a", "final_delta": delta}, "moved": {"image": "b", "final_delta": delta}}
    path = tmp_path / "library.json"
    path.write_text(json.dumps(recorded, indent=1) + "\n")
    before = path.read_text()
    runs = {"still": {"image": "a", "final_delta": delta * (1 + 1e-15)}, "moved": {"image": "c", "final_delta": delta}}
    assert runs["still"]["final_delta"] != delta
    monkeypatch.setattr(make_golden, "TARGETS", {"library": (path, lambda: runs)})
    make_golden.main(["library"])
    assert path.read_text() == before.replace('"b"', '"c"')
    assert "1 of them rewritten" in capsys.readouterr().out
