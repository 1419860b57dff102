"""Span tracing of limitalg from outside the package.

A ``Tracer`` replaces chosen public functions with timing wrappers in every
``limitalg`` module namespace that binds them (``cli`` and the package
``__init__`` import names directly, so patching the defining module alone
would miss those calls), records one span per call, and puts the originals
back on ``uninstall``. Nothing under ``src/`` is edited.

Spans are kept in memory as ``(name, start, end, parent)`` with ``parent``
the index of the enclosing span or -1, and are written out by the caller
at the end of the run. Self time is a span's duration minus the durations
of its direct child spans. Counter hooks run after a span has closed, so
their cost is not charged to the function they describe.
"""

from __future__ import annotations

import sys
import time

from limitalg.errors import LimitalgError

import sizes

LAYERS = ("core", "homs", "conjugacy", "detect", "intertwine", "spectrum",
          "dimmod", "io", "cli")

# public functions wrapped per layer; each is a boundary a later change is
# likely to move (see the per-layer table in BENCHMARK.json and CHANGES.md)
TRACED = {
    "core": ("build_digraph_algebra",),
    "homs": ("validate_numeric", "map_distance", "numeric_compose",
             "to_numeric", "compose", "same_action", "conjugate_numeric",
             "conjugate_standard", "apply_to_unitary", "strictify"),
    "conjugacy": ("standard_witness", "restandardize_triangle"),
    "detect": ("is_regular", "summand_census", "test_product",
               "close_conjugacy"),
    "intertwine": ("verify_diagram", "exact_intertwine", "approx_intertwine"),
    "spectrum": ("cylinder_relation", "path_space",
                 "relation_isomorphic_at_depth"),
    "dimmod": ("limit_presentation", "class_of_map"),
    "io": ("load_object", "canonical_dumps", "parse_workspace"),
    "cli": ("main",),
}

COUNTERS = ("detect.census_candidates", "detect.census_found",
            "detect.kernel_rows", "detect.kernel_params",
            "detect.kernel_u_bytes", "homs.envelope_units",
            "homs.sweep_pairs", "spectrum.pairs", "spectrum.paths",
            "io.bytes_out")

_MARK = "__limitalg_bench_wrapper__"


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "limitalg"
                                  or name.startswith("limitalg."))]


def leftover_wrappers() -> list:
    """Names in limitalg namespaces still bound to a benchmark wrapper."""
    return [f"{m.__name__}.{attr}" for m in _package_modules()
            for attr, val in vars(m).items() if hasattr(val, _MARK)]


def _count_validate(tr, args, kwargs, result):
    units = sizes.envelope_units(args[1] if len(args) > 1
                                 else kwargs["source"])
    tr.counts["homs.envelope_units"] += units
    tr.counts["homs.sweep_pairs"] += units * units


def _count_census(tr, args, kwargs, result):
    phi = args[0] if args else kwargs["phi"]
    tr.counts["detect.census_candidates"] += tr.candidates(phi.source,
                                                           phi.target)
    tr.counts["detect.census_found"] += len(result.classes)


def _count_regular(tr, args, kwargs, result):
    # the seed algorithm builds its kernel exactly when the census explains
    # the whole image rank; the shape is computed from the input, not read
    if result.census is None or result.residual_rank != 0:
        return
    phi = args[0] if args else kwargs["phi"]
    k = sizes.kernel_shape(phi.source, phi.target)
    tr.counts["detect.kernel_rows"] = max(tr.counts["detect.kernel_rows"],
                                          k["kernel_rows"])
    tr.counts["detect.kernel_params"] = max(
        tr.counts["detect.kernel_params"], k["kernel_params"])
    tr.counts["detect.kernel_u_bytes"] = max(
        tr.counts["detect.kernel_u_bytes"], k["kernel_u_bytes"])


def _count_cylinder(tr, args, kwargs, result):
    tr.counts["spectrum.pairs"] += len(result.pairs)
    tr.counts["spectrum.paths"] += len({p[0] for p in result.pairs})


def _count_dumps(tr, args, kwargs, result):
    tr.counts["io.bytes_out"] += len(result.encode("utf-8"))


_HOOKS = {
    "homs.validate_numeric": _count_validate,
    "detect.summand_census": _count_census,
    "detect.is_regular": _count_regular,
    "spectrum.cylinder_relation": _count_cylinder,
    "io.canonical_dumps": _count_dumps,
}


class Tracer:
    """Wrap the TRACED functions, record spans while ``active``."""

    def __init__(self):
        self.spans = []
        self.active = False
        self.counts = {name: 0 for name in COUNTERS}
        self._stack = []  # [span index, child seconds, layer]
        self._saved = []  # (module, attribute, original)
        self._candidates = {}
        self._errors = {layer: 0 for layer in LAYERS}

    def candidates(self, src, tgt) -> int:
        key = (src, tgt)
        if key not in self._candidates:
            self._candidates[key] = sizes.candidate_count(src, tgt)
        return self._candidates[key]

    def install(self) -> None:
        if leftover_wrappers():
            raise RuntimeError("limitalg is already wrapped")
        modules = _package_modules()
        for layer, names in TRACED.items():
            home = sys.modules[f"limitalg.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", layer, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._saved.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._saved):
            setattr(m, attr, orig)
        self._saved = []
        self.active = False

    def _wrap(self, name: str, layer: str, orig):
        hook = _HOOKS.get(name)
        spans, stack, errors = self.spans, self._stack, self._errors
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            parent, _, caller = stack[-1] if stack else (-1, 0.0, "")
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0, layer]
            stack.append(frame)
            start = clock()

            def close():
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent,
                                end - start - frame[1])
                if stack:
                    stack[-1][1] += end - start

            try:
                result = orig(*args, **kwargs)
            except LimitalgError:
                close()
                # a typed error leaves the layer when its caller is outside
                if caller != layer:
                    errors[layer] += 1
                raise
            except BaseException:
                close()
                raise
            close()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(orig, "__name__", name)
        wrapper.__doc__ = getattr(orig, "__doc__", None)
        wrapper.__wrapped__ = orig
        setattr(wrapper, _MARK, True)
        return wrapper

    def summary(self) -> dict:
        """Per-function and per-layer calls, busy and self seconds."""
        out = {}
        for layer, names in TRACED.items():
            for fname in names:
                for key in ("calls", "busy_s", "self_s"):
                    out[f"{layer}.{fname}.{key}"] = 0
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.errors"] = self._errors[layer]
        for name, start, end, _parent, self_s in self.spans:
            layer = name.split(".", 1)[0]
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += end - start
            out[f"{name}.self_s"] += self_s
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += self_s
        out.update(self.counts)
        found = self.counts["detect.census_found"]
        cands = self.counts["detect.census_candidates"]
        out["detect.census_hit_ratio"] = found / cands if cands else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def span_rows(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for (n, s, e, p, _self) in self.spans]
