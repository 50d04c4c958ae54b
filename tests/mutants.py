"""Mutation gate: known bugs that the targeted tests must catch.

Each row of MUTANTS is one deliberate bug: a file, an exact text that
occurs once in it, the text that replaces it, and the bug it stands for.
Run from anywhere, with pytest installed:

    python tests/mutants.py

The runner copies src/, tests/ and pyproject.toml into a fresh temporary
directory per run, so the checkout is never edited and no stale bytecode
is reused. It first requires the unmutated copy to import inpaintkit from
the copy and to pass the targeted test files (SUBSET). It then applies
each mutant alone and runs SUBSET with -x. A mutant is killed only when
pytest exits 1, that is when a test fails; a collection error, a crash or
a run past the timeout is not a kill. The per-mutant timeout is five
times the unmutated run, and at least 30 s. Prints one line per mutant
with its outcome and seconds; exits 0 only if every mutant is killed.

tests/test_mutants.py checks in tier-1 that every old text still occurs
exactly once, so a refactor that moves the code has to re-home its
mutants.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUBSET = (
    "test_properties",
    "test_golden",
    "test_diffusion",
    "test_directional",
    "test_core",
    "test_masks",
    "test_cli",
    "test_image_io",
    "test_directionality",
    "test_kernels",
)


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    bug: str


# Left out as equivalent: pairing index i with (i - 1) mod n instead of
# (i + 1) mod n in patch_angles. A circular difference sum does not depend on
# the shift's direction, so only the summation order could tell them apart.
DIFFUSION = "src/inpaintkit/diffusion.py"
DIRECTIONAL = "src/inpaintkit/directional.py"
DIRECTIONALITY = "src/inpaintkit/directionality.py"
IMAGE_IO = "src/inpaintkit/image_io.py"
KERNELS = "src/inpaintkit/kernels.py"
MUTANTS = (
    Mutant(
        "tap-zero-in-any-kernel",
        DIFFUSION,
        "if weight.any():",
        "if weight.all():",
        "a tap that is zero in any kernel of a stack is skipped for every kernel",
    ),
    Mutant(
        "per-cell-state-kept-at-write-back",
        DIFFUSION,
        "cells = acc = x = tmp = term = step = keep = None",
        "pass",
        "the per-cell state is still live when the output image is allocated",
    ),
    Mutant(
        "stack-kept-past-write-back",
        DIFFUSION,
        "win = flat = centre = inner = None",
        "pass",
        "a written-back stack is still live while the next one is gathered and steps",
    ),
    Mutant(
        "no-freezing",
        DIFFUSION,
        "if not alive.all():",
        "if not alive.any():",
        "a stopped window keeps stepping until every window of its stack stops",
    ),
    Mutant(
        "overwrite-frozen-deltas",
        DIFFUSION,
        "deltas[owners] = np.sqrt(np.add.reduceat(step, starts))",
        "deltas[idx] = 0.0; deltas[owners] = np.sqrt(np.add.reduceat(step, starts))",
        "a step zeroes the final delta of windows that already stopped",
    ),
    Mutant(
        "windows-without-cells-step",
        DIFFUSION,
        "owners, sizes = idx[sizes > 0], sizes[sizes > 0]",
        "owners, sizes = idx, sizes",
        "a window without missing cells steps",
    ),
    Mutant(
        "stopped-count-keeps-rising",
        DIFFUSION,
        "iterations[owners] += 1",
        "iterations[idx] += 1",
        "a stopped window's count keeps rising",
    ),
    Mutant(
        "no-acc-x-swap",
        DIFFUSION,
        "acc, x = x, acc",
        "acc, x = acc, x",
        "the delta is measured against the first iterate, not the last one",
    ),
    Mutant(
        "no-x-compaction",
        DIFFUSION,
        "x[: len(cells)] = x[:m][keep]",
        "x[: len(cells)] = x[: len(cells)]",
        "after windows drop out, the kept cells' last values are misaligned",
    ),
    Mutant(
        "warm-start-fill-dropped",
        DIFFUSION,
        "win[free] = fill",
        "pass",
        "the directional estimate starts from the placeholders, not from the mean of the known pixels",
    ),
    Mutant(
        "window-ring-off-by-one",
        DIFFUSION,
        "np.arange(-1, h + 1)",
        "np.arange(0, h + 2)",
        "each window's rows are gathered one row low, so a region steps on the rows below it",
    ),
    Mutant(
        "largest-stack-last",
        DIFFUSION,
        "key=lambda g: -len(g[1])",
        "key=lambda g: len(g[1])",
        "the largest stack steps last, while the output image is already live beside it",
    ),
    Mutant(
        "solve-reports-region-zero",
        DIFFUSION,
        "int(iterations.sum())",
        "int(iterations[0])",
        "a solve of several regions reports the first region's iterations, not their sum",
    ),
    Mutant(
        "warm-start-mean-of-all-pixels",
        DIFFUSION,
        "image[mask == 1].mean()",
        "image.mean()",
        "the directional estimate's start is the mean of all pixels, placeholders included",
    ),
    Mutant(
        "diffuse-kernel-not-normalized",
        DIFFUSION,
        "kernels = normalize(kernel)[None]",
        "kernels = np.asarray(kernel, dtype=np.float64)[None]",
        "diffuse solves its kernel as given, so a kernel whose weights do not sum to 1 is not an average",
    ),
    Mutant(
        "grid-shape-unchecked",
        DIRECTIONAL,
        'require_same_shape(base, grid, "base and grid")',
        "pass",
        "diffuse_patches solves a base of another shape than its grid's, whose patches miss or run past it",
    ),
    Mutant(
        "overlay-shape-unchecked",
        DIRECTIONAL,
        'require_same_shape(out, grid, "image and grid")',
        "pass",
        "the overlay draws a grid on an image of another shape, running past it or leaving part of it undrawn",
    ),
    Mutant(
        "half-up-overlay-rounding",
        DIRECTIONAL,
        "r = np.rint((origins[:, :1] + (h - 1) / 2.0) + s * dy[idx, None]).astype(np.intp)\n"
        "        c = np.rint((origins[:, 1:] + (w - 1) / 2.0) + s * dx[idx, None]).astype(np.intp)",
        "r = np.floor((origins[:, :1] + (h - 1) / 2.0) + s * dy[idx, None] + 0.5).astype(np.intp)\n"
        "        c = np.floor((origins[:, 1:] + (w - 1) / 2.0) + s * dx[idx, None] + 0.5).astype(np.intp)",
        "overlay points round half up instead of half to even",
    ),
    Mutant(
        "as-mask-lets-nan-through",
        "src/inpaintkit/core.py",
        "if np.count_nonzero((m != 0) & (m != 1)):",
        "if np.count_nonzero((m != 0) & (m != 1) & (m == m)):",
        "a NaN mask value passes the 0/1 check",
    ),
    Mutant(
        "patch-clamp-to-shorter-side",
        "src/inpaintkit/core.py",
        "n = min(n, max(rows, cols))",
        "n = min(n, min(rows, cols))",
        "a patch past a non-square image is clamped to its shorter side and splits it",
    ),
    Mutant(
        "scale-clamp-to-shorter-side",
        "src/inpaintkit/masks.py",
        "scale = min(scale, max(rows, cols))",
        "scale = min(scale, min(rows, cols))",
        "a text scale past a non-square mask is clamped to its shorter side",
    ),
    Mutant(
        "patch-size-checked-after-estimate",
        DIRECTIONAL,
        "split_into_patches(*as_image(damaged).shape, patch_size)",
        "as_image(damaged).shape",
        "a patch size below 2 is refused only after the estimate pass has run",
    ),
    Mutant(
        "stale-snapshot-frame",
        "src/inpaintkit/cli.py",
        "frame_pixels[missing_flat] = quantize(current[missing])",
        "if iteration == args.snapshot_every: frame_pixels[missing_flat] = quantize(current[missing])",
        "the CLI's snapshot frame takes the missing pixels on the first snapshot only, so later snapshots repeat it",
    ),
    Mutant(
        "inpaint-input-kept-after-solve",
        "src/inpaintkit/cli.py",
        "del damaged, mask, callback",
        "pass",
        "the CLI keeps its input, mask and snapshot frame while it builds the overlay and the outputs",
    ),
    Mutant(
        "csv-written-without-quoting",
        "src/inpaintkit/bench.py",
        'csv.writer(text, lineterminator="\\n")',
        'csv.writer(text, lineterminator="\\n", quoting=csv.QUOTE_NONE, escapechar="\\\\")',
        "a bench CSV field holding a comma or a quote is escaped, not quoted, and splits into extra fields",
    ),
    Mutant(
        "main-exit-status-dropped",
        "src/inpaintkit/cli.py",
        "sys.exit(main())",
        "main()",
        "`python -m inpaintkit.cli` exits 0 whatever main returns",
    ),
    Mutant(
        "read-divides-by-255",
        IMAGE_IO,
        "return raster / float(maxval)",
        "return raster / 255.0",
        "a PGM with maxval below 255 reads too dark, its maxval ignored",
    ),
    Mutant(
        "no-sample-above-maxval-check",
        IMAGE_IO,
        "if maxval < 255:",
        "if maxval > 255:",
        "a PGM sample above its maxval reads as an intensity above 1",
    ),
    Mutant(
        "no-non-finite-write-check",
        IMAGE_IO,
        "quantize(require_finite(as_image(img)))",
        "quantize(as_image(img))",
        "write_image writes NaN as 0 and inf as 255 without an error",
    ),
    Mutant(
        "threshold-one-half",
        DIRECTIONALITY,
        "D_THRESHOLD = 0.6",
        "D_THRESHOLD = 0.5",
        "a patch with d in (0.5, 0.6] takes the high-d branch of the angle formula",
    ),
    Mutant(
        "theta1-from-v",
        DIRECTIONALITY,
        "theta1 = 90.0 * (h + 1.0) / (h + v + 1.0)",
        "theta1 = 90.0 * (v + 1.0) / (h + v + 1.0)",
        "theta1 is built from the column differences v instead of the row differences h",
    ),
    Mutant(
        "no-wrap-past-90",
        DIRECTIONALITY,
        "return np.where(theta > 90.0, theta - 180.0, theta)",
        "return theta",
        "an angle that rounding lifts past 90 is returned outside (-90, 90]",
    ),
    Mutant(
        "shift-wrap-block-dropped",
        DIRECTIONALITY,
        "return ((slice(0, n - shift), slice(shift, n)), (slice(n - shift, n), slice(0, shift)))",
        "return ((slice(0, n - shift), slice(shift, n)),)",
        "a shift's wrapped row or column is never written, so its differences are stale buffer contents",
    ),
    Mutant(
        "rotate-by-theta-minus-45",
        KERNELS,
        "np.radians(angles[start:stop] + 45.0)",
        "np.radians(angles[start:stop] - 45.0)",
        "the diagonal kernel is turned by theta - 45 degrees, a quarter turn off",
    ),
    Mutant(
        "rotate-forward-map",
        KERNELS,
        "cos_a, sin_a = np.cos(-angle), np.sin(-angle)",
        "cos_a, sin_a = np.cos(angle), np.sin(angle)",
        "target cells are sampled by the forward map, so the kernel turns the other way",
    ),
    Mutant(
        "cubic-a-three-quarters",
        KERNELS,
        "_CUBIC_A = -0.5",
        "_CUBIC_A = -0.75",
        "the bicubic sampler uses a = -0.75 instead of Catmull-Rom's -0.5",
    ),
    Mutant(
        "bicubic-column-tap-shifted",
        KERNELS,
        "bx - 1 + i",
        "bx + i",
        "the bicubic sampler's column taps start one column right, at floor(x) instead of floor(x) - 1",
    ),
    Mutant(
        "rotate-chunk-stop-off-by-one",
        KERNELS,
        "stop = start + _ANGLES_PER_CHUNK",
        "stop = start + _ANGLES_PER_CHUNK - 1",
        "the last angle of every full 4,096-angle chunk is never rotated, its kernel left uninitialized",
    ),
    Mutant(
        "rotate-lets-inf-angle-through",
        KERNELS,
        "np.count_nonzero(np.isfinite(theta))",
        "np.count_nonzero(~np.isnan(theta))",
        "an infinite angle passes the finiteness check and is rotated into an index error",
    ),
    Mutant(
        "normalize-lets-nan-sum-through",
        KERNELS,
        "if not (np.isfinite(total) & (total > 0.0)).all():",
        "if np.any(total <= 0.0):",
        "a kernel whose weights sum to NaN or inf normalizes to NaN weights without an error",
    ),
    Mutant(
        "normalize-lets-negative-weight-through",
        KERNELS,
        "k >= 0.0",
        "k >= -1.0",
        "a kernel with a weight in [-1, 0) is normalized and solved without an error",
    ),
)


def _run_subset(mutant: Mutant | None, timeout: float | None) -> tuple[str, float]:
    """Run SUBSET on a fresh copy, with the mutant applied if given; return (outcome, seconds)."""
    with tempfile.TemporaryDirectory(prefix="inpaintkit-mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        # PYTHONPATH replaces any outer one, so the copy shadows the checkout and any install
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        if mutant is None:
            probe = [sys.executable, "-c", "import inpaintkit; print(inpaintkit.__file__)"]
            imported = Path(subprocess.run(probe, cwd=copy, env=env, capture_output=True, text=True, check=True).stdout.strip())
            if copy.resolve() not in imported.resolve().parents:
                return f"imports {imported}, not the copy", 0.0
        else:
            target = copy / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                return "stale", 0.0
            target.write_text(text.replace(mutant.old, mutant.new))
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *(f"tests/{name}.py" for name in SUBSET)]
        start = time.perf_counter()
        # its own process group, so a timeout stops whatever the run started
        proc = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            code = proc.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timeout", time.perf_counter() - start
        seconds = time.perf_counter() - start
    if mutant is None:
        return ("passed" if code == 0 else f"failed (pytest exit {code})"), seconds
    return {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})"), seconds


def main() -> int:
    outcome, seconds = _run_subset(None, None)
    print(f"{'unmutated':<34} {outcome:<10} {seconds:6.1f} s")
    if outcome != "passed":
        return 1
    timeout = max(30.0, 5 * seconds)
    survivors = 0
    for mutant in MUTANTS:
        outcome, seconds = _run_subset(mutant, timeout)
        survivors += outcome != "killed"
        print(f"{mutant.name:<34} {outcome:<10} {seconds:6.1f} s  {mutant.bug}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
