"""In-memory span recorder that measures voxelreg's layers from outside.

The package is not edited: the tracer replaces the module attributes that
``pipeline``, ``regcore``, ``cli`` and ``evaluation`` look up at call time
with timing wrappers, records one span per call (name, start, end, parent,
thread and a few size-derived attributes) and puts the originals back when
it is closed. ``layer_metrics`` turns the spans of one timed operation into
the per-layer metrics listed in ``BENCHMARK.json``.

A target whose attribute no longer exists, because a later change renamed
or fused it, is skipped. Every metric that needs it is then reported as
missing, never as 0, and the run goes on.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import statistics
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

MB = 1024.0 * 1024.0


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)
    overhead: float = 0.0  # time the tracer spent after ``end`` on this span

    @property
    def duration(self) -> float:
        return self.end - self.start


# --- span attributes, computed from argument and result sizes -------------

def _sad_attrs(a: dict, result) -> dict:
    """Computed bytes of one per-label SAD call: the float64 fixed features,
    each moving sample it blends (1 for an integer shift, 2**k corners for k
    fractional components) and the cost map it writes."""
    fixed = a["fixed64"]
    voxels = fixed.shape[0] * fixed.shape[1] * fixed.shape[2]
    channels = fixed.shape[3]
    fractional = sum(not float(v).is_integer() for v in a["d"])
    corners = 2 ** fractional
    nbytes = fixed.itemsize * voxels * (channels * (1 + corners) + 1)
    return {"bytes": nbytes, "fractional": fractional > 0}


def _chunked_attrs(a: dict, result) -> dict:
    """Work and outcome of one level's search, from its arguments and field."""
    disp = a["disp"]
    dims = a["f_fixed"].dims
    voxels = dims[0] * dims[1] * dims[2]
    per_batch = a["memory_budget_bytes"] // (voxels * 8)
    u = result.data.reshape(-1, 3)
    absu = np.abs(u)
    # candidates lie on the q-grid within +-l_max: give each one an integer code
    steps = np.rint((u + disp.l_max) / disp.q).astype(np.int64)
    side = 2 * int(round(disp.l_max / disp.q)) + 1
    codes = steps[:, 0] + side * (steps[:, 1] + side * steps[:, 2])
    return {
        "voxels": voxels,
        "labels": disp.count,
        "l_max": disp.l_max,
        # the documented sizing rule: as many float64 maps as fit the budget
        "batches": -(-disp.count // per_batch) if per_batch > 0 else 0,
        "max_abs": float(absu.max()),
        "won": int(np.count_nonzero(np.bincount(codes, minlength=side**3))),
        "pinned": int((absu >= disp.l_max - 1e-6).any(axis=1).sum()),
    }


def _featurize_attrs(a: dict, result) -> dict:
    digest = hashlib.blake2b(np.ascontiguousarray(a["vol"].data).tobytes(), digest_size=16)
    return {"input": f"{a['feature']}:{digest.hexdigest()}"}


def _io_attrs(a: dict, result) -> dict:
    h = result.header
    return {"bytes": h.n_voxels * h.channels * np.dtype(h.dtype).itemsize}


# (module, attribute, span name, attribute function, stage of register())
TARGETS = (
    ("pipeline", "register", "pipeline.register", None, False),
    ("cli", "register", "pipeline.register", None, False),
    ("pipeline", "chunked_dsv_execution", "pipeline.chunked", _chunked_attrs, True),
    ("pipeline", "compose_fields", "pipeline.compose", None, True),
    ("pipeline", "zero_field", "pipeline.zero_field", None, True),
    ("regcore", "build_displacement_set", "pipeline.candidates", None, True),
    ("pipeline", "downsample", "volume.downsample", None, True),
    ("pipeline", "downsample_features", "volume.downsample", None, True),
    ("pipeline", "warp_scalar", "volume.warp", None, True),
    ("pipeline", "warp_features", "volume.warp", None, True),
    ("pipeline", "upsample_field", "volume.upsample", None, True),
    ("pipeline", "_featurize", "features.featurize", _featurize_attrs, True),
    ("regcore", "_label_cost_map", "regcore.sad", _sad_attrs, False),
    ("regcore", "_box_sum_map", "regcore.box", None, False),
    ("regcore", "_smooth_map", "regcore.gauss", None, False),
    ("cli", "cmd_batch", "cli.batch", None, False),
    ("cli", "_run_batch_pair", "cli.pair", None, False),
    ("cli", "load_volume", "volume.io", _io_attrs, False),
    ("cli", "warp_labels", "volume.warp", None, False),
    ("evaluation", "mean_jc_pair", "evaluation.jc", None, False),
)


class Tracer:
    """Wraps the targets, records spans in memory, restores on ``close``.

    With ``memory=True`` every stage of ``register()`` resets the
    tracemalloc peak when it starts and stores the peak when it ends, so a
    level's peak is the largest of its stages. tracemalloc is process-wide:
    with concurrent pairs the figure covers whatever ran at the same time.
    """

    def __init__(self, modules: dict, memory: bool = False):
        self.spans: list[Span] = []
        self.memory = memory
        self.missing: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        for mod_name, attr, name, attrs, stage in TARGETS:
            module = modules[mod_name]
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(name)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, attrs, stage))
        if memory:
            tracemalloc.start()

    def close(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        if self.memory:
            tracemalloc.stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, original, name, attrs_fn, stage):
        signature = inspect.signature(original) if attrs_fn else None
        track_peak = stage and self.memory

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            if track_peak:
                tracemalloc.reset_peak()
            ok = False
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = {}
                if track_peak:
                    attrs["peak_b"] = tracemalloc.get_traced_memory()[1]
                if not ok:
                    attrs["error"] = True
                elif attrs_fn is not None:
                    try:
                        attrs.update(attrs_fn(signature.bind(*args, **kwargs).arguments, result))
                    except (KeyError, AttributeError, TypeError, IndexError, ValueError):
                        # the target's signature or result changed: its
                        # size-derived metrics cannot be trusted any more
                        self.missing.add(name)
                span = Span(span_id, name, start, end, parent, threading.get_ident(), attrs)
                span.overhead = time.perf_counter() - end
                self.spans.append(span)

        return wrapper


# --- per-layer metrics ------------------------------------------------------

MAX_LEVELS = 2

# metric -> span names it needs; a metric is missing when any of them is
NEEDS = {
    "regcore.sad_s": ("regcore.sad",),
    "regcore.label_maps": ("regcore.sad",),
    "regcore.frac_label_maps": ("regcore.sad",),
    "regcore.sad_gb_computed": ("regcore.sad",),
    "regcore.sad_gbps_computed": ("regcore.sad",),
    "regcore.box_s": ("regcore.box",),
    "regcore.gauss_s": ("regcore.gauss",),
    "pipeline.merge_s": ("pipeline.chunked", "regcore.sad", "regcore.box", "regcore.gauss"),
    "pipeline.batches": ("pipeline.chunked",),
    "pipeline.register_self_s": tuple(sorted({t[2] for t in TARGETS if t[4]} | {"pipeline.register"})),
    "pipeline.labels_won_frac": ("pipeline.chunked",),
    "pipeline.pinned_frac": ("pipeline.chunked",),
    "volume.downsample_s": ("volume.downsample",),
    "volume.warp_s": ("volume.warp",),
    "volume.upsample_s": ("volume.upsample",),
    "features.featurize_s": ("features.featurize",),
    "features.calls": ("features.featurize",),
    "features.distinct_input_frac": ("features.featurize",),
    "volume.io_s": ("volume.io",),
    "volume.io_mb": ("volume.io",),
    "evaluation.jc_s": ("evaluation.jc",),
    "cli.pair_p50_s": ("cli.pair",),
    "cli.pair_wait_s": ("cli.pair", "cli.batch"),
    "cli.parallel_eff": ("cli.pair", "cli.batch"),
    "cli.pairs_failed": ("cli.pair",),
}
for _i in range(MAX_LEVELS):
    NEEDS[f"pipeline.level{_i}_s"] = NEEDS["pipeline.register_self_s"]
    NEEDS[f"pipeline.level{_i}_traced_peak_mb"] = NEEDS["pipeline.register_self_s"]


def children(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def _self_time(span: Span, kids: dict[int, list[Span]]) -> float:
    return span.duration - sum(c.duration for c in kids.get(span.id, ()))


def register_levels(register: Span, kids: dict[int, list[Span]]) -> list[list[Span]]:
    """Split one ``register()`` call's stage spans into its levels.

    A level runs from the first stage after the previous level's search up
    to its own search, plus the composition and upsampling that follow it.
    The final warp after the last level belongs to no level.
    """
    levels: list[list[Span]] = [[]]
    for s in sorted(kids.get(register.id, ()), key=lambda s: s.start):
        if s.name in ("pipeline.compose", "volume.upsample") and len(levels) > 1:
            levels[-2].append(s)
        else:
            levels[-1].append(s)
            if s.name == "pipeline.chunked":
                levels.append([])
    return levels[:-1]


def layer_metrics(spans: list[Span], wall_s: float, jobs: int = 1) -> dict[str, float]:
    """Per-layer metrics of one timed operation from its spans.

    Times are busy time summed over the operation (over all pairs and
    threads of a batch). A layer the operation never entered reads 0.
    """
    kids = children(spans)
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def total(name):
        return sum((s.duration for s in by.get(name, ())), 0.0)

    sad = by.get("regcore.sad", [])
    chunked = by.get("pipeline.chunked", [])
    registers = by.get("pipeline.register", [])
    feats = by.get("features.featurize", [])
    pairs = by.get("cli.pair", [])
    batch = by.get("cli.batch", [])

    sad_s = total("regcore.sad")
    sad_gb = sum(s.attrs.get("bytes", 0) for s in sad) / 1e9
    labels = sum(s.attrs.get("labels", 0) for s in chunked)
    voxel_checks = sum(s.attrs.get("voxels", 0) for s in chunked)
    m = {
        "regcore.sad_s": sad_s,
        "regcore.label_maps": float(len(sad)),
        "regcore.frac_label_maps": float(sum(s.attrs.get("fractional", False) for s in sad)),
        "regcore.sad_gb_computed": sad_gb,
        "regcore.sad_gbps_computed": sad_gb / sad_s if sad_s > 0 else 0.0,
        "regcore.box_s": total("regcore.box"),
        "regcore.gauss_s": total("regcore.gauss"),
        "pipeline.merge_s": sum(_self_time(s, kids) for s in chunked),
        "pipeline.batches": float(sum(s.attrs.get("batches", 0) for s in chunked)),
        "pipeline.register_self_s": sum(_self_time(s, kids) for s in registers),
        "pipeline.labels_won_frac": (
            sum(s.attrs.get("won", 0) for s in chunked) / labels if labels else 0.0
        ),
        "pipeline.pinned_frac": (
            sum(s.attrs.get("pinned", 0) for s in chunked) / voxel_checks if voxel_checks else 0.0
        ),
        "volume.downsample_s": total("volume.downsample"),
        "volume.warp_s": total("volume.warp"),
        "volume.upsample_s": total("volume.upsample"),
        "features.featurize_s": total("features.featurize"),
        "features.calls": float(len(feats)),
        "features.distinct_input_frac": (
            len({s.attrs["input"] for s in feats if "input" in s.attrs}) / len(feats) if feats else 0.0
        ),
        "volume.io_s": total("volume.io"),
        "volume.io_mb": sum(s.attrs.get("bytes", 0) for s in by.get("volume.io", ())) / MB,
        "evaluation.jc_s": total("evaluation.jc"),
        "cli.pair_p50_s": statistics.median(s.duration for s in pairs) if pairs else 0.0,
        "cli.pair_wait_s": (
            statistics.fmean(s.start - batch[0].start for s in pairs) if pairs and batch else 0.0
        ),
        "cli.parallel_eff": (
            sum(s.duration for s in pairs) / (jobs * wall_s) if pairs and wall_s > 0 else 0.0
        ),
        "cli.pairs_failed": float(sum(bool(s.attrs.get("error")) for s in pairs)),
    }
    level_s = [0.0] * MAX_LEVELS
    level_peak = [0.0] * MAX_LEVELS
    for reg in registers:
        for i, lv in enumerate(register_levels(reg, kids)[:MAX_LEVELS]):
            level_s[i] += max(s.end for s in lv) - min(s.start for s in lv)
            peaks = [s.attrs["peak_b"] for s in lv if "peak_b" in s.attrs]
            if peaks:
                level_peak[i] = max(level_peak[i], max(peaks) / MB)
    for i in range(MAX_LEVELS):
        m[f"pipeline.level{i}_s"] = level_s[i]
        m[f"pipeline.level{i}_traced_peak_mb"] = level_peak[i]
    return m


def available(metrics: dict[str, float], missing_spans: set[str]) -> tuple[dict, list[str]]:
    """Drop every metric whose spans could not be recorded; name them."""
    dropped = sorted(k for k in metrics if set(NEEDS[k]) & missing_spans)
    return {k: v for k, v in metrics.items() if k not in dropped}, dropped


def level_checks(spans: list[Span]) -> list[str]:
    """Each level's search increment must stay within that level's +-l_max."""
    return [
        f"level increment |u|={s.attrs['max_abs']} exceeds l_max={s.attrs['l_max']}"
        for s in spans
        if s.name == "pipeline.chunked" and s.attrs.get("max_abs", 0.0) > s.attrs["l_max"] + 1e-6
    ]
