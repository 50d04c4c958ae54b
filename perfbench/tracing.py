"""Outside-in tracing: timing wrappers on the attributes through which layers call each other.

Used only by the traced run. ``Tracer.install`` replaces module
attributes such as ``inpaintkit.directional.diffuse`` with wrappers that
record one span per call: name, parent span, call id, start and end (ns).
Spans stay in memory and are written out at the end of the run; self
time is derived from them. Per-layer metrics are averages per call (per
image) over the traced calls, unless their name says otherwise.
"""

from __future__ import annotations

import gzip
import json
import os
import statistics
import time
import tracemalloc

import numpy as np

# (module, attribute, span name). Only calls that cross a layer boundary are
# wrapped; intra-layer helpers (bicubic_sample, shift_diff, read_pgm) and the
# per-iteration as_image coercions are left alone to keep the overhead low.
BOUNDARIES = (
    ("bench", "diffuse", "diffusion.diffuse"),
    ("bench", "inpaint_directional", "directional.inpaint_directional"),
    ("bench", "diamond_kernel", "kernels.diamond_kernel"),
    ("directional", "diffuse", "diffusion.diffuse"),
    ("directional", "build_patch_grid", "directional.build_patch_grid"),
    ("directional", "diffuse_patches", "directional.diffuse_patches"),
    ("directional", "patch_metrics", "directionality.patch_metrics"),
    ("directional", "rotate_kernel", "kernels.rotate_kernel"),
    ("directional", "split_into_patches", "core.split_into_patches"),
    ("directional", "diamond_kernel", "kernels.diamond_kernel"),
    ("directional", "as_mask", "core.as_mask"),
    ("diffusion", "convolve", "diffusion.convolve"),
    ("diffusion", "normalize", "kernels.normalize"),
    ("diffusion", "as_mask", "core.as_mask"),
    ("masks", "as_mask", "core.as_mask"),
    ("cli", "diffuse", "diffusion.diffuse"),
    ("cli", "build_patch_grid", "directional.build_patch_grid"),
    ("cli", "diffuse_patches", "directional.diffuse_patches"),
    ("cli", "render_directionality_overlay", "directional.render_directionality_overlay"),
    ("cli", "diamond_kernel", "kernels.diamond_kernel"),
    ("cli", "read_image", "image_io.read_image"),
    ("cli", "write_image", "image_io.write_image"),
    ("cli", "apply_damage", "masks.apply_damage"),
    ("cli", "mask_from_image", "masks.mask_from_image"),
)

# spans whose tracemalloc peak (above the level at entry) the memory call records
PEAK_SPANS = ("diffusion.diffuse", "directional.diffuse_patches")


def _diffuse_info(args, kwargs, result):
    """(iterations, converged, missing pixels, pixels, kernel taps, bytes per iteration)."""
    image = np.asarray(args[0])
    mask = np.asarray(args[1])
    kernel = np.asarray(args[2])
    missing = mask.size - int(np.count_nonzero(mask))
    # computed, not measured: one whole-array update reads the iterate, the
    # original and the mask and writes the new iterate
    bytes_per_iter = 3 * image.size * 8 + mask.size
    return (result.iterations, bool(result.converged), missing, image.size, int(np.count_nonzero(kernel)), bytes_per_iter)


def _write_info(args, kwargs, result):
    return os.path.getsize(args[1])


INFO = {"diffusion.diffuse": _diffuse_info, "image_io.write_image": _write_info}


class Tracer:
    """Records spans for the calls that pass through installed wrappers."""

    def __init__(self, memory: bool = False):
        self.spans = []  # (name, parent, call id, start ns, end ns, info)
        self.call_id = -1  # -1 marks set-up
        self.memory = memory
        self.peaks = []  # (name, call id, bytes above entry level)
        self._stack = []
        self._saved = []
        self._peak_open = False

    def wrap(self, name, fn):
        info = INFO.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        may_track_peak = self.memory and name in PEAK_SPANS

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            # reset_peak is global, so only the outermost peak span may use it:
            # the per-patch diffuse runs inside diffuse_patches are skipped
            track_peak = may_track_peak and not self._peak_open
            if track_peak:
                self._peak_open = True
                entry_level = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, self.call_id, start, end, None)
                if track_peak:
                    self._peak_open = False
                    self.peaks.append((name, self.call_id, tracemalloc.get_traced_memory()[1] - entry_level))
            if info is not None:
                spans[idx] = (name, parent, self.call_id, start, end, info(args, kwargs, result))
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def call_next(self, name, fn, *args, **kwargs):
        """Like ``call``, as the root span of a new call id."""
        self.call_id += 1
        return self.call(name, fn, *args, **kwargs)

    def install(self, ik):
        """Wrap every boundary the program has; returns the ones it lacks."""
        absent = []
        for module_name, attr, span in BOUNDARIES:
            module = getattr(ik, module_name)
            original = getattr(module, attr, None)
            if original is None:
                absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original))
        return absent

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path):
        """Write all spans as gzip'd JSON: a name table and one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in self.spans]
        doc = {"fields": ["name", "parent", "call", "start_ns", "end_ns", "info"], "names": names, "spans": rows}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_metrics(spans, calls, peaks=()) -> dict:
    """Per-layer metrics from the spans of ``calls`` (a set of call ids) and of set-up.

    Durations are in seconds per call and counts per call, except the
    set-up times (per set-up) and the patch iteration p50/max (per patch).
    The estimate time excludes image_io work done inside it (snapshots).
    """
    n_calls = len(calls)
    child = [0] * len(spans)
    io_child = [0] * len(spans)  # image_io spans directly below, e.g. the CLI's snapshot writes
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += s[4] - s[3]
            if s[0].startswith("image_io."):
                io_child[s[1]] += s[4] - s[3]
    total = {}
    self_ns = {}
    count = {}
    setup_ns = {}
    estimate = []  # (ns, info) of whole-image diffuse runs
    patches = []  # info of per-patch diffuse runs
    io_bytes = 0
    for i, (name, parent, call, start, end, info) in enumerate(spans):
        if call == -1:
            setup_ns[name] = setup_ns.get(name, 0) + end - start
            continue
        if call not in calls:
            continue
        total[name] = total.get(name, 0) + end - start
        self_ns[name] = self_ns.get(name, 0) + end - start - child[i]
        count[name] = count.get(name, 0) + 1
        if name == "diffusion.diffuse":
            if parent >= 0 and spans[parent][0] == "directional.diffuse_patches":
                patches.append(info)
            else:
                estimate.append((end - start - io_child[i], info))
        elif name == "image_io.write_image":
            io_bytes += info

    def per_call_s(name, table=total):
        return table.get(name, 0) / 1e9 / n_calls

    def per_call(name):
        return count.get(name, 0) / n_calls

    est_iters = sum(r[0] for _, r in estimate)
    est_px_iters = sum(r[0] * r[3] for _, r in estimate)
    runs = [r for _, r in estimate] + patches
    patch_iters = [r[0] for r in patches]
    peak = {}
    for name, _, nbytes in peaks:
        peak[name] = max(peak.get(name, 0), nbytes)
    return {
        "diffusion.estimate_s": sum(ns for ns, _ in estimate) / 1e9 / n_calls,
        "diffusion.estimate_iters": est_iters / n_calls,
        "diffusion.convolve_s": per_call_s("diffusion.convolve"),
        "diffusion.convolve_calls": per_call("diffusion.convolve"),
        "diffusion.ns_per_px_iter": sum(ns for ns, _ in estimate) / max(est_px_iters, 1),
        "diffusion.useful_px_frac": sum(r[0] * r[2] for r in runs) / max(sum(r[0] * r[3] for r in runs), 1),
        "diffusion.computed_madds_per_iter": sum(r[0] * r[3] * r[4] for _, r in estimate) / max(est_iters, 1),
        "diffusion.computed_bytes_per_iter": sum(r[0] * r[5] for _, r in estimate) / max(est_iters, 1),
        "diffusion.peak_mb": peak.get("diffusion.diffuse", 0) / 2**20,
        "directional.diffuse_patches_s": per_call_s("directional.diffuse_patches"),
        "directional.patch_loop_self_s": per_call_s("directional.diffuse_patches", self_ns),
        "directional.patch_calls": len(patches) / n_calls,
        "directional.patch_iters_total": sum(patch_iters) / n_calls,
        "directional.patch_iters_p50": statistics.median(patch_iters) if patch_iters else 0,
        "directional.patch_iters_max": max(patch_iters, default=0),
        "directional.empty_patch_frac": sum(r[2] == 0 for r in patches) / max(len(patches), 1),
        "directional.unconverged_patches": sum(not r[1] for r in patches) / n_calls,
        "directional.build_patch_grid_s": per_call_s("directional.build_patch_grid"),
        "directional.peak_mb": peak.get("directional.diffuse_patches", 0) / 2**20,
        "directionality.patch_metrics_s": per_call_s("directionality.patch_metrics"),
        "directionality.calls": per_call("directionality.patch_metrics"),
        "kernels.rotate_kernel_s": per_call_s("kernels.rotate_kernel"),
        "kernels.calls": per_call("kernels.rotate_kernel"),
        "core.as_mask_s": per_call_s("core.as_mask"),
        "core.as_mask_calls": per_call("core.as_mask"),
        "image_io.read_s": per_call_s("image_io.read_image"),
        "image_io.write_s": per_call_s("image_io.write_image"),
        "image_io.writes": per_call("image_io.write_image"),
        "image_io.bytes_written": io_bytes / n_calls,
        "cli.self_s": per_call_s("cli.main", self_ns),
        "synth.standard_suite_s": setup_ns.get("synth.standard_suite", 0) / 1e9,
        "masks.build_s": sum(ns for name, ns in setup_ns.items() if name.startswith("masks.")) / 1e9,
        "trace.spans": sum(count.values()) / n_calls,
    }
