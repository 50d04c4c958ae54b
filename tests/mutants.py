"""Mutation gate: known bugs that the targeted tests must catch.

Each row of MUTANTS is one deliberate bug: a file, an exact text that
occurs once in it, the text that replaces it, and the bug it stands for.
Run from anywhere, with pytest installed:

    python tests/mutants.py

The runner copies src/, tests/ and pyproject.toml into a fresh temporary
directory per run, so the checkout is never edited and no stale bytecode
is reused. It first requires the unmutated copy, run alone, to import
inpaintkit from the copy and to pass the targeted test files (SUBSET).
It then applies each mutant alone, in its own copy and pytest process,
and runs SUBSET with -x; the mutants run concurrently, one per CPU this
process may use. A mutant is killed only when pytest exits 1, that is
when a test fails; a collection error, a crash or a run past the timeout
is not a kill. The per-mutant timeout is five times the unmutated run,
and at least 30 s. Prints one line per mutant, in MUTANTS order, with its
outcome and seconds; exits 0 only if every mutant is killed.

tests/test_mutants.py checks in tier-1 that every old text still occurs
exactly once, so a refactor that moves the code has to re-home its
mutants.
"""

from __future__ import annotations

import concurrent.futures
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
    "test_synth",
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
CORE = "src/inpaintkit/core.py"
DIFFUSION = "src/inpaintkit/diffusion.py"
DIRECTIONAL = "src/inpaintkit/directional.py"
DIRECTIONALITY = "src/inpaintkit/directionality.py"
IMAGE_IO = "src/inpaintkit/image_io.py"
KERNELS = "src/inpaintkit/kernels.py"
SYNTH = "src/inpaintkit/synth.py"
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
        "cells = acc = x = tmp = term = step = None",
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
        'np.take(centre, cells, out=x[: len(cells)], mode="clip")',
        "pass",
        "after windows drop out, the kept cells' last values are misaligned",
    ),
    Mutant(
        "warm-start-fill-dropped",
        DIFFUSION,
        "centre[cells] = fill",
        "pass",
        "a whole-image solve starts from the placeholders, not from the mean of the known pixels",
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
        "int(self.region_iterations.sum())",
        "int(self.region_iterations[0])",
        "a solve of several regions reports the first region's iterations, not their sum",
    ),
    Mutant(
        "converged-strictly-below-epsilon",
        DIFFUSION,
        "self.region_deltas <= self.epsilon",
        "self.region_deltas < self.epsilon",
        "a solve whose final delta equals epsilon, such as 0 at epsilon=0, is reported as not converged",
    ),
    Mutant(
        "region-counts-writable",
        DIFFUSION,
        "iterations.flags.writeable = deltas.flags.writeable = False",
        "pass",
        "a caller can write into a solve's per-region counts and deltas and so change its derived totals",
    ),
    Mutant(
        "warm-start-mean-of-all-pixels",
        DIFFUSION,
        "image[mask == 1].mean()",
        "image.mean()",
        "a whole-image solve's start is the mean of all pixels, placeholders included",
    ),
    Mutant(
        "diffuse-starts-from-placeholders",
        DIFFUSION,
        "kernels, config, on_step, True)",
        "kernels, config, on_step, False)",
        "diffuse asks the engine for no warm start, so it starts from the placeholders and the estimate is not its run",
    ),
    Mutant(
        "diffuse-kernel-not-normalized",
        DIFFUSION,
        "kernels = normalize(kernel)[None]",
        "kernels = np.asarray(kernel, dtype=np.float64)[None]",
        "diffuse solves its kernel as given, so a kernel whose weights do not sum to 1 is not an average",
    ),
    Mutant(
        "result-compares-by-value",
        DIFFUSION,
        "@dataclass(frozen=True, eq=False)\nclass DiffusionResult:",
        "@dataclass(frozen=True)\nclass DiffusionResult:",
        "comparing two solves compares their image arrays and raises, and a solve cannot be hashed",
    ),
    Mutant(
        "grid-casts-by-hand",
        DIRECTIONAL,
        'np.array(as_real_array(self.angles, "angle"))',
        "np.array(self.angles, dtype=np.float64)",
        "a grid of complex angles is built with only a warning, their imaginary parts dropped",
    ),
    Mutant(
        "grid-rotates-before-shape-check",
        DIRECTIONAL,
        """        p = len(self.coords)
        if angles.shape != (p,):
            raise ValueError(f"{p} patches take ({p},) angles, got {angles.shape}")
        for name, value in (("angles", angles), ("kernels", rotate_kernel(angles))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
""",
        """        for name, value in (("angles", angles), ("kernels", rotate_kernel(angles))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        p = len(self.coords)
        if angles.shape != (p,):
            raise ValueError(f"{p} patches take ({p},) angles, got {angles.shape}")
""",
        "a grid rotates every angle it is given before it refuses angles of the wrong shape",
    ),
    Mutant(
        "grid-shape-unchecked",
        DIRECTIONAL,
        'require_same_shape(base, grid, "base and grid")',
        "pass",
        "diffuse_patches solves a base of another shape than its grid's, whose patches miss or run past it",
    ),
    Mutant(
        "directional-converged-either-pass",
        DIRECTIONAL,
        "self.estimate.converged and self.patches.converged",
        "self.estimate.converged or self.patches.converged",
        "a directional run is reported converged when only one of its two passes met epsilon",
    ),
    Mutant(
        "directional-delta-smaller-pass",
        DIRECTIONAL,
        "max(self.estimate.final_delta, self.patches.final_delta)",
        "min(self.estimate.final_delta, self.patches.final_delta)",
        "a directional run reports the smaller final delta of its two passes, hiding the one that missed epsilon",
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
        CORE,
        "require((m == 0) | (m == 1),",
        "require((m == 0) | (m == 1) | (m != m),",
        "a NaN mask value passes the 0/1 check",
    ),
    Mutant(
        "as-mask-casts-by-hand",
        CORE,
        'm = as_real_array(values, "mask", dtype=None)',
        "m = np.asarray(values)",
        "a complex mask is cast to uint8 with only a warning, its imaginary part dropped",
    ),
    Mutant(
        "require-misses-a-single-failure",
        CORE,
        "if bad:\n        raise ValueError(message.format(bad))",
        "if bad > 1:\n        raise ValueError(message.format(bad))",
        "a check with exactly one failing entry, such as one NaN pixel, passes",
    ),
    Mutant(
        "as-int-bound-inclusive",
        CORE,
        "if n < least:",
        "if n <= least:",
        "an integer argument equal to its lower bound, such as patch size 2 or max_iters 1, is refused",
    ),
    Mutant(
        "as-real-type-unchecked",
        CORE,
        "if not isinstance(value, numbers.Real):",
        "if False:",
        "a string, None, complex or array argument reaches its rule unchecked, to fail with numpy's unnamed error or pass as a real number",
    ),
    Mutant(
        "as-real-rule-ignored",
        CORE,
        "require(ok(value),",
        "require(True,",
        "a real argument that breaks its rule, such as epsilon inf or missing_fraction 1.5, is accepted",
    ),
    Mutant(
        "as-real-returns-its-input",
        CORE,
        "return float(value)",
        "return value",
        "a real argument comes back as given, so a config holds a numpy scalar or an int instead of a float",
    ),
    Mutant(
        "epsilon-rule-lets-inf-through",
        DIFFUSION,
        "lambda e: 0.0 <= e < np.inf",
        "lambda e: 0.0 <= e",
        "an infinite epsilon is accepted and stops every solve after one step",
    ),
    Mutant(
        "missing-fraction-unchecked",
        "src/inpaintkit/masks.py",
        "lambda f: 0.0 <= f <= 1.0",
        "lambda f: True",
        "a missing fraction past 1, such as 1.5, gives an all-missing mask without an error",
    ),
    Mutant(
        "woven-zones-swapped",
        SYNTH,
        "stripes(size, 12.0, angle_a), stripes(size, 12.0, angle_b)",
        "stripes(size, 12.0, angle_b), stripes(size, 12.0, angle_a)",
        "woven stripes put angle_b in the zone at the origin, and angle_a in the others",
    ),
    Mutant(
        "synth-size-unconverted",
        SYNTH,
        'size = as_int(size, "size", 1)',
        "pass",
        "a synthetic image of non-integer size, such as stripes(2.5, ...), is built as a 3x3 image without a word",
    ),
    Mutant(
        "synth-period-unchecked",
        SYNTH,
        '"period": (lambda v: np.isfinite(v) and v >= 2, "finite and >= 2"),',
        '"period": (lambda v: True, "finite and >= 2"),',
        "a synthetic image of period 0 or NaN, such as stripes(8, 0.0, 0.0), fails with a bare ZeroDivisionError or is all NaN",
    ),
    Mutant(
        "synth-sigma-overflow-unchecked",
        SYNTH,
        "0.0 < 2.0 * np.float64(v) ** 2 < np.inf",
        "0.0 < 2.0 * np.float64(v) ** 2",
        "a sigma whose 2 * sigma**2 overflows, such as blobs(8, [(0.5, 0.5)], 1e200), is accepted and gives an all-ones image",
    ),
    Mutant(
        "patch-clamp-to-shorter-side",
        CORE,
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
        "random-mask-seed-unconverted",
        "src/inpaintkit/masks.py",
        'as_int(seed, "seed", 0)',
        "seed",
        "a random mask's seed goes straight to numpy: None draws a different mask per call, and -1 or 1.5 fails without naming seed",
    ),
    Mutant(
        "patch-size-checked-after-estimate",
        DIRECTIONAL,
        'patch_size = as_int(patch_size, "patch_size", 2)',
        'patch_size = as_int(patch_size, "patch_size", 1)',
        "a patch size below 2 is refused only after the estimate pass has run, by split_into_patches",
    ),
    Mutant(
        "stale-snapshot-frame",
        "src/inpaintkit/cli.py",
        "frame.reshape(-1)[missing] = quantize(np.take(current, missing))",
        "if iteration == every: frame.reshape(-1)[missing] = quantize(np.take(current, missing))",
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
        "quantize-casts-by-hand",
        IMAGE_IO,
        'img = as_real_array(img, "image")',
        "img = np.asarray(img, dtype=np.float64)",
        "quantize writes the real part of a complex image with only a warning",
    ),
    Mutant(
        "raster-check-dropped",
        IMAGE_IO,
        "if raster.dtype != np.uint8 or raster.ndim != 2 or raster.size == 0:",
        "if False:",
        "a float or int64 raster is written as its raw bytes under an 8-bit header, and a 1-D one leaves an empty file",
    ),
    Mutant(
        "write-pgm-unchecked",
        IMAGE_IO,
        "np.ascontiguousarray(_require_raster(raster))",
        "np.ascontiguousarray(raster)",
        "write_pgm writes any raster it is given, so a float64 one reads back as zeros",
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
        "patch-angles-casts-by-hand",
        DIRECTIONALITY,
        'as_real_array(stack, "patch stack")',
        "np.asarray(stack, dtype=np.float64)",
        "a complex patch stack is measured with only a warning, its imaginary part dropped",
    ),
    Mutant(
        "patch-angles-lets-non-finite-through",
        DIRECTIONALITY,
        'require_finite(as_real_array(stack, "patch stack"))',
        'as_real_array(stack, "patch stack")',
        "a NaN pixel gives its patch a NaN angle in silence, later blamed on the angle",
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
        "require(np.isfinite(theta),",
        "require(~np.isnan(theta),",
        "an infinite angle passes the finiteness check and is rotated into an index error",
    ),
    Mutant(
        "rotate-casts-by-hand",
        KERNELS,
        'theta = as_real_array(theta_deg, "angle")',
        "theta = np.asarray(theta_deg, dtype=np.float64)",
        "a complex angle is rotated with only a warning, its imaginary part dropped",
    ),
    Mutant(
        "normalize-casts-by-hand",
        KERNELS,
        'k = as_real_array(kernel, "kernel")',
        "k = np.asarray(kernel, dtype=np.float64)",
        "a complex kernel is normalized and solved with only a warning, its imaginary part dropped",
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
    # each worker thread only waits on its mutant's pytest process
    with concurrent.futures.ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        runs = pool.map(lambda mutant: _run_subset(mutant, timeout), MUTANTS)
        for mutant, (outcome, seconds) in zip(MUTANTS, runs):
            survivors += outcome != "killed"
            print(f"{mutant.name:<34} {outcome:<10} {seconds:6.1f} s  {mutant.bug}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
