"""Golden-output manifest: digests of library results over a fixed matrix.

The matrix is the five `standard_suite(96)` images, whole and cropped to
45x38, 9x5, 2x2 and 1x90, under a text mask, a 0.5 random mask and an
all-missing mask (whose placeholders are the image itself, so the run
has something to diffuse). Each case runs `diffuse` with the diamond and
the diagonal kernel and `inpaint_directional` with patch sizes 2, 7, 16
and 200, capped at 300 iterations (60 under the all-missing mask, where
most runs hit the cap). Each run records the SHA-256 of
`.image.tobytes()`, `iterations`, `converged`, `final_delta` and, for the
directional runs, the SHA-256 of the patch angles.

The CLI section runs `inpaintkit.cli.main` in-process on the five
`standard_suite(48)` images written as PGM, under a "Lorem ipsum" text
mask that `genmask --text` writes. Each image runs `inpaint --algo
diffusion --kernel diag` and `inpaint --algo directional --patch 7
--overlay`, both with `--snapshot-every 3`; `genmask --random` runs once
more on its own. Every run writes into its own directory, and its record
holds the exit code, stdout with the directory and the wall time cut
out, and the SHA-256 of every file it wrote.

`tests/test_golden.py` recomputes both matrices against
`tests/golden.json` and `tests/golden_cli.json`. Write one manifest, or
both, by naming it:

    PYTHONPATH=src python tests/make_golden.py library   # golden.json
    PYTHONPATH=src python tests/make_golden.py cli       # golden_cli.json

Without a name nothing is written, so refreshing one manifest never
rewrites the other. A run whose recorded entry `tests/test_golden.py`
would accept (`accepts`) keeps that entry byte for byte, so only the
runs that moved are rewritten; the script prints how many. Write a
manifest only in a change that states why its outputs change and by
how much (max abs pixel difference, MSE per image); never to make a
failing change pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np

from inpaintkit.cli import main as cli_main
from inpaintkit.diffusion import DiffusionConfig, diffuse
from inpaintkit.directional import inpaint_directional
from inpaintkit.kernels import diag_kernel, diamond_kernel
from inpaintkit.image_io import write_image
from inpaintkit.masks import apply_damage, random_mask, text_mask
from inpaintkit.synth import standard_suite

MANIFEST = Path(__file__).with_name("golden.json")
CLI_MANIFEST = Path(__file__).with_name("golden_cli.json")
CONFIG = DiffusionConfig(max_iters=300)
CAPPED = DiffusionConfig(max_iters=60)
CROPS = {"96x96": (96, 96), "45x38": (45, 38), "9x5": (9, 5), "2x2": (2, 2), "1x90": (1, 90)}
PATCH_SIZES = (2, 7, 16, 200)


def accepts(want: dict, got: dict) -> bool:
    """True when a run's record got matches its recorded entry want: every field equal, final_delta within 1e-12 relative."""
    return want.keys() == got.keys() and all(
        math.isclose(got[k], v, rel_tol=1e-12, abs_tol=0.0) if k == "final_delta" else got[k] == v for k, v in want.items()
    )


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def _cases(img):
    """Yield (mask name, damaged, mask, config) for one image."""
    rows, cols = img.shape
    for name, mask in (("text", text_mask(rows, cols, "Lorem ipsum")), ("random", random_mask(rows, cols, 0.5, seed=7))):
        yield name, apply_damage(img, mask), mask, CONFIG
    # all-missing diffuses slowly from the image towards a constant; the low cap keeps the matrix fast
    yield "missing", img, np.zeros((rows, cols), dtype=np.uint8), CAPPED


def _record(result, angles=None) -> dict:
    out = {
        "image": _digest(result.image),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "final_delta": float(result.final_delta),
    }
    if angles is not None:
        out["angles"] = _digest(angles)
    return out


def golden_runs():
    """Yield (run id, record) for every run of the matrix, in a fixed order."""
    for name, full in standard_suite(96).items():
        for crop, (rows, cols) in CROPS.items():
            for mask_name, damaged, mask, config in _cases(full[:rows, :cols]):
                case = f"{name}/{crop}/{mask_name}"
                for kernel_name, kernel in (("diamond", diamond_kernel()), ("diag", diag_kernel())):
                    yield f"{case}/diffuse-{kernel_name}", _record(diffuse(damaged, mask, kernel, config))
                for n in PATCH_SIZES:
                    res = inpaint_directional(damaged, mask, patch_size=n, config=config)
                    yield f"{case}/directional-{n}", _record(res, res.grid.angles)


def _cli_record(out: Path, argv) -> dict:
    """Run the CLI with its outputs under out; record its exit code, stdout and the digest of every file written."""
    out.mkdir(parents=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main([str(arg).format(out=out) for arg in argv])
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return {
        "exit": code,
        "stdout": re.sub(r"wall_seconds=\S+", "wall_seconds=*", stdout.getvalue().replace(f"{out}/", "")),
        "files": {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
    }


def golden_cli_runs(work: Path):
    """Yield (run id, record) for every CLI run of the matrix, each writing into its own directory under work."""
    yield "genmask-random", _cli_record(work / "genmask-random", ["genmask", "--size", "48x40", "--random", "0.3", "--seed", "5", "--out", "{out}/mask.pgm"])
    mask = work / "genmask-text" / "mask.pgm"
    yield "genmask-text", _cli_record(mask.parent, ["genmask", "--size", "48x48", "--text", "Lorem ipsum", "--out", mask])
    algos = {
        "diffusion-diag": ["--algo", "diffusion", "--kernel", "diag"],
        "directional-7": ["--algo", "directional", "--patch", "7", "--overlay", "{out}/overlay.pgm"],
    }
    for name, img in standard_suite(48).items():
        write_image(img, work / f"{name}.pgm")
        for algo, args in algos.items():
            argv = ["inpaint", *args, "--in", work / f"{name}.pgm", "--mask", mask, "--out", "{out}/restored.pgm"]
            yield f"{name}/{algo}", _cli_record(work / name / algo, argv + ["--snapshot-every", "3", "--snapshot-dir", "{out}/snaps"])


def _cli_manifest_runs():
    with tempfile.TemporaryDirectory() as work:
        return dict(golden_cli_runs(Path(work)))


# target name -> (manifest file, function returning its runs)
TARGETS = {
    "library": (MANIFEST, lambda: dict(golden_runs())),
    "cli": (CLI_MANIFEST, _cli_manifest_runs),
}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Write the named golden manifests; nothing is written without a name.")
    parser.add_argument("targets", nargs="+", choices=tuple(TARGETS), help="manifest to write")
    for name in dict.fromkeys(parser.parse_args(argv).targets):
        path, make_runs = TARGETS[name]
        recorded = json.loads(path.read_text()) if path.exists() else {}
        runs = {
            run_id: recorded[run_id] if run_id in recorded and accepts(recorded[run_id], got) else got
            for run_id, got in make_runs().items()
        }
        rewritten = sum(runs[run_id] is not recorded.get(run_id) for run_id in runs)
        path.write_text(json.dumps(runs, indent=1, sort_keys=False) + "\n")
        print(f"wrote {len(runs)} {name} runs to {path}, {rewritten} of them rewritten")


if __name__ == "__main__":
    main()
