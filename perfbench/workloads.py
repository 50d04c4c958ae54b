"""The benchmark's three workloads: inputs from a seed, one call, output checks.

Every workload runs the five closed-form images of ``standard_suite(512)``
as a closed loop: one caller in one process issues the next call only
after the previous one returns. One call reconstructs one image. The
program under test receives only the generated inputs; the seed drives
the random mask and the order in which each pass visits the images.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import random
import re
import shutil
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

SIZE = 512
TEXT = "Lorem ipsum dolor sit amet"
TEXT_SCALE = 3
RANDOM_MISSING = 0.5
LAYERS = ("bench", "cli", "core", "diffusion", "directional", "directionality", "image_io", "kernels", "masks", "synth")


def import_program(root: Path):
    """Import inpaintkit from the checkout's src/, never from an installed copy."""
    src = (root / "src").resolve()
    if not (src / "inpaintkit" / "__init__.py").is_file():
        raise FileNotFoundError(f"no inpaintkit package under {src}")
    sys.path.insert(0, str(src))
    ik = importlib.import_module("inpaintkit")
    if Path(ik.__file__).resolve().parent != src / "inpaintkit":
        raise ImportError(f"imported inpaintkit from {ik.__file__}, not from {src}")
    for name in LAYERS:
        importlib.import_module(f"inpaintkit.{name}")
    return ik


def plain_call(name, fn, *args, **kwargs):
    """Untraced counterpart of ``tracing.Tracer.call``: just call fn."""
    return fn(*args, **kwargs)


class ResultTap:
    """Keeps the result object that ``bench.run_algorithm`` drops.

    ``run_algorithm`` returns only (image, iterations); the checker also
    needs the ``converged`` flag. The tap adds one Python call per image
    and does no timing.
    """

    def __init__(self, bench_module):
        self.last = None
        for attr in ("diffuse", "inpaint_directional"):
            setattr(bench_module, attr, self._keep(getattr(bench_module, attr)))

    def _keep(self, fn):
        def kept(*args, **kwargs):
            self.last = fn(*args, **kwargs)
            return self.last

        return kept


@dataclass
class Outcome:
    """What one call produced, as the checker sees it."""

    image_id: str
    seconds: float = 0.0
    output: np.ndarray | None = None  # float image, or the uint8 PGM raster for the CLI
    iterations: int | None = None
    converged: bool | None = None
    error: str | None = None
    fingerprint: str = ""  # sha256 over every byte the call produced
    mse: float | None = None
    failures: list = field(default_factory=list)


@dataclass
class Context:
    """Inputs of one workload, built once per process."""

    ik: object
    workload: str
    seed: int
    mask: np.ndarray
    images: dict  # image id -> original float image
    damaged: dict  # image id -> damaged float image
    reference: dict  # image id -> image the output is scored against
    known_values: dict  # image id -> values the known pixels must keep, bit for bit
    workdir: Path
    tap: ResultTap
    cli_paths: dict = field(default_factory=dict)


def setup(ik, workload: str, seed: int, workdir: Path, call=plain_call) -> Context:
    """Build suite, mask and damaged images; for the CLI workload also the PGM inputs.

    ``call(span_name, fn, *args)`` runs each library call; the traced run
    passes one that records a span.
    """
    kind, runner = WORKLOADS[workload]
    images = call("synth.standard_suite", ik.synth.standard_suite, SIZE)
    if kind == "text":
        mask = call("masks.text_mask", ik.masks.text_mask, SIZE, SIZE, TEXT, TEXT_SCALE)
    else:
        mask = call("masks.random_mask", ik.masks.random_mask, SIZE, SIZE, RANDOM_MISSING, seed)
    damaged = {i: call("masks.apply_damage", ik.masks.apply_damage, img, mask) for i, img in images.items()}
    known = mask == 1
    reference = dict(images)
    known_values = {i: img[known] for i, img in damaged.items()}
    cli_paths = {}
    if runner is call_cli:
        # the CLI sees the quantised PGM input, so outputs are scored against it
        workdir.mkdir(parents=True, exist_ok=True)
        mask_path = workdir / "mask.pgm"
        call("image_io.write_image", ik.image_io.write_image, call("masks.mask_to_image", ik.masks.mask_to_image, mask), mask_path)
        for i, img in images.items():
            path = workdir / f"{i}.pgm"
            call("image_io.write_image", ik.image_io.write_image, img, path)
            raster = read_pgm(path)
            reference[i] = raster / 255.0
            known_values[i] = raster[known]
            cli_paths[i] = path
        cli_paths["mask"] = mask_path
    return Context(ik, workload, seed, mask, images, damaged, reference, known_values, workdir, ResultTap(ik.bench), cli_paths)


def pass_orders(image_ids, seed: int, passes: int) -> list:
    """One seeded permutation of the image ids per pass."""
    rng = random.Random(seed)
    ids = sorted(image_ids)
    return [rng.sample(ids, len(ids)) for _ in range(passes)]


def _timed(outcome: Outcome, clock, fn, *args):
    """Call fn, store its duration; a raising call is a failed call, not a crashed run."""
    start = clock()
    try:
        return fn(*args)
    except Exception as exc:
        outcome.error = repr(exc)
        return None
    finally:
        outcome.seconds = clock() - start


def call_bench(algorithm: str, ctx: Context, image_id: str, clock, call) -> Outcome:
    outcome = Outcome(image_id)
    ctx.tap.last = None
    done = _timed(outcome, clock, call, "bench.run_algorithm", ctx.ik.bench.run_algorithm, algorithm, ctx.damaged[image_id], ctx.mask)
    if outcome.error is None:
        outcome.output = np.asarray(done[0])
        outcome.iterations = int(done[1])
        outcome.converged = None if ctx.tap.last is None else bool(ctx.tap.last.converged)
        outcome.fingerprint = hashlib.sha256(outcome.output.tobytes()).hexdigest()
    return outcome


def call_cli(ctx: Context, image_id: str, clock, call) -> Outcome:
    outcome = Outcome(image_id)
    out = ctx.workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    (out / "snapshots").mkdir(parents=True)
    argv = [
        "inpaint", "--algo", "directional", "--patch", "32",
        "--in", str(ctx.cli_paths[image_id]), "--mask", str(ctx.cli_paths["mask"]),
        "--out", str(out / "restored.pgm"), "--overlay", str(out / "overlay.pgm"),
        "--snapshot-every", "2", "--snapshot-dir", str(out / "snapshots"),
    ]  # fmt: skip
    printed = io.StringIO()
    with redirect_stdout(printed):
        code = _timed(outcome, clock, call, "cli.main", ctx.ik.cli.main, argv)
    found = re.search(r"iterations=(\d+) converged=(\w+)", printed.getvalue())
    if outcome.error is None and code != 0:
        outcome.error = f"exit code {code}"
    elif outcome.error is None and found is None:
        outcome.error = f"unexpected output {printed.getvalue()!r}"
    if outcome.error is not None:
        return outcome
    outcome.iterations = int(found.group(1))
    outcome.converged = found.group(2) == "True"
    produced = [out / "restored.pgm", out / "overlay.pgm", *sorted((out / "snapshots").iterdir())]
    digest = hashlib.sha256()
    for path in produced:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    outcome.fingerprint = digest.hexdigest()
    outcome.output = read_pgm(produced[0])
    return outcome


# name -> (mask kind, how one call runs). Why each workload exists, and which
# layers it loads and bypasses, is recorded in perfbench/baseline.json.
WORKLOADS = {
    "diamond-text": ("text", partial(call_bench, "diffusion-diamond")),
    "directional16-random50": ("random", partial(call_bench, "directional-16")),
    "cli-directional32-text": ("text", call_cli),
}


def run_call(ctx: Context, image_id: str, clock, call=plain_call) -> Outcome:
    """Run one call, timing only the call into the program."""
    return WORKLOADS[ctx.workload][1](ctx, image_id, clock, call)


def check(ctx: Context, outcome: Outcome, baseline: dict) -> Outcome:
    """Fill ``outcome.failures``; an empty list means the call is correct.

    ``baseline`` is this workload's entry of baseline.json: per-image MSE
    at its seed and the relative MSE tolerances.
    """
    fail = outcome.failures
    if outcome.error is not None:
        fail.append(f"raised or exited: {outcome.error}")
        return outcome
    if outcome.converged is not True:
        fail.append(f"converged={outcome.converged}")
    raw = outcome.output
    ref = ctx.reference[outcome.image_id]
    if raw.shape != ref.shape:
        fail.append(f"output shape {raw.shape}, expected {ref.shape}")
        return outcome
    out = raw / 255.0 if raw.dtype == np.uint8 else raw
    if not np.all(np.isfinite(out)) or out.min() < 0.0 or out.max() > 1.0:
        fail.append("non-finite value or value outside [0, 1]")
        return outcome
    expected_known = ctx.known_values[outcome.image_id]
    if raw.dtype != expected_known.dtype or raw[ctx.mask == 1].tobytes() != expected_known.tobytes():
        fail.append("a known pixel changed")
    outcome.mse = float(np.mean((out - ref) ** 2))
    expected = baseline["images"][outcome.image_id]["mse"]
    other_seed = WORKLOADS[ctx.workload][0] == "random" and ctx.seed != baseline["seed"]
    tol = baseline["mse_rel_tol_other_seed"] if other_seed else baseline["mse_rel_tol"]
    if abs(outcome.mse - expected) > tol * expected:
        fail.append(f"mse {outcome.mse:.6g} differs from seed value {expected:.6g} by more than {tol:g} of it")
    return outcome


_PGM_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+255\s")


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM raster; independent of the program's own reader."""
    data = Path(path).read_bytes()
    found = _PGM_HEADER.match(data)
    if found is None:
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    cols, rows = int(found.group(1)), int(found.group(2))
    raster = np.frombuffer(data, dtype=np.uint8, count=rows * cols, offset=found.end())
    return raster.reshape(rows, cols)
