"""Per-layer spans around the public functions of each covsearch module.

`Tracer.install` swaps every listed function for a wrapper in each
covsearch module that binds its name (modules import them with
`from .gp import log_marginal_and_chol`, so patching the defining module
alone would miss most calls). A wrapper records a span (layer, start,
end, parent) in memory plus the counts its layer reports. Spans are
written out only after the traced run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (module, public function) -> layer. A layer's `_s` metric is the self
# time of its spans, its call count the spans not nested in the same layer.
LAYERS = {
    ("kernels", "build_cov_matrix"): "kernels.cov_build",
    ("kernels", "cross_cov_matrix"): "kernels.cov_build",
    ("kernels", "cov_matrices"): "kernels.cov_build",
    ("kernels", "leaf_cov_grads"): "kernels.jacobian",
    ("kernels", "replace_subtree"): "kernels.tree_edit",
    ("kernels", "with_hyper"): "kernels.tree_edit",
    ("gp", "log_marginal_and_chol"): "gp.loglik",
    ("gp", "log_marginal"): "gp.loglik",
    ("gp", "chol_with_jitter"): "gp.chol",
    ("gp", "predict"): "gp.predict",
    ("prior", "sample_subtree"): "prior.sample",
    ("prior", "sample_ast"): "prior.sample",
    ("prior", "sample_hyper"): "prior.sample",
    ("prior", "ast_log_prior"): "prior.score",
    ("inference", "mh_structure_step"): "inference.structure_step",
    ("inference", "mh_hyper_step"): "inference.hyper_step",
    ("inference", "gradient_step_hypers"): "inference.gradient",
    ("inference", "hyper_gradients"): "inference.gradient",
    ("inference", "averaged_prediction"): "inference.averaging",
    ("clustering", "reassign_series_step"): "clustering.reassign",
    ("baseline", "blr_baseline"): "baseline.blr",
    ("data", "ingest_csv"): "data.ingest",
    ("results", "emit_results"): "results.emit",
}

# Per-layer metric -> (unit, better), in the order they are reported.
METRICS = {
    "kernels.cov_build_s": ("s", "lower"),
    "kernels.cov_build_calls": ("count", "lower"),
    "kernels.cov_entries": ("count", "lower"),
    "kernels.jacobian_s": ("s", "lower"),
    "kernels.jacobian_calls": ("count", "lower"),
    "kernels.tree_edit_s": ("s", "lower"),
    "kernels.tree_edit_calls": ("count", "lower"),
    "gp.loglik_s": ("s", "lower"),
    "gp.loglik_calls": ("count", "lower"),
    "gp.chol_s": ("s", "lower"),
    "gp.chol_calls": ("count", "lower"),
    "gp.jitter_retries": ("count", "lower"),
    "gp.predict_s": ("s", "lower"),
    "gp.predict_calls": ("count", "lower"),
    "prior.sample_s": ("s", "lower"),
    "prior.sample_calls": ("count", "lower"),
    "prior.score_s": ("s", "lower"),
    "prior.score_calls": ("count", "lower"),
    "inference.structure_step_s": ("s", "lower"),
    "inference.structure_steps": ("count", "higher"),
    "inference.structure_accept_ratio": ("ratio", "higher"),
    "inference.hyper_step_s": ("s", "lower"),
    "inference.hyper_steps": ("count", "higher"),
    "inference.hyper_accept_ratio": ("ratio", "higher"),
    "inference.numeric_rejects": ("count", "lower"),
    "inference.gradient_steps": ("count", "higher"),
    "inference.gradient_s": ("s", "lower"),
    "inference.averaging_s": ("s", "lower"),
    "clustering.reassign_s": ("s", "lower"),
    "clustering.reassign_steps": ("count", "higher"),
    "baseline.blr_s": ("s", "lower"),
    "data.ingest_s": ("s", "lower"),
    "results.emit_s": ("s", "lower"),
    "results.bytes_written": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Metric name of each layer's call count, where it is not `<layer>_calls`.
_CALL_METRICS = {
    "inference.structure_step": "inference.structure_steps",
    "inference.hyper_step": "inference.hyper_steps",
    "inference.gradient": "inference.gradient_steps",
    "clustering.reassign": "clustering.reassign_steps",
}


def _covsearch_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "covsearch" or name.startswith("covsearch."))
    ]


def _mh_counts(state, kind: str) -> tuple[int, int]:
    stats = state.stats
    return stats.get(f"{kind}_accept", 0), stats.get(f"{kind}_numeric_reject", 0)


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self):
        # Each span is [layer, function, start, end, parent span or -1].
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _observe(self, name: str, result, before) -> None:
        counts = self.counts
        if name in ("build_cov_matrix", "cross_cov_matrix"):
            counts["kernels.cov_entries"] += result.size
        elif name == "cov_matrices":
            counts["kernels.cov_entries"] += sum(m.size for m in result.values())
        elif name == "chol_with_jitter":
            counts["gp.jitter_retries"] += result[1] > 0.0
        elif name in ("mh_structure_step", "mh_hyper_step"):
            kind = "structure" if name == "mh_structure_step" else "hyper"
            accepts, rejects = _mh_counts(result, kind)
            counts[f"inference.{kind}_accepts"] += accepts - before[0]
            counts["inference.numeric_rejects"] += rejects - before[1]
        elif name == "emit_results":
            counts["results.bytes_written"] += sum(p.stat().st_size for p in result)

    def _wrap(self, layer: str, fn):
        spans, open_spans, name = self.spans, self._open, fn.__name__
        clock = time.perf_counter
        mh_kind = {"mh_structure_step": "structure", "mh_hyper_step": "hyper"}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = _mh_counts(args[0], mh_kind) if mh_kind else None
            span = [layer, name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_spans.pop()
            self._observe(name, result, before)
            return result

        return traced

    def install(self) -> None:
        modules = _covsearch_modules()
        for (module_name, name), layer in LAYERS.items():
            original = getattr(sys.modules[f"covsearch.{module_name}"], name)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its children."""
        durations = np.array([end - start for _, _, start, end, _ in self.spans])
        own = durations.copy()
        for index, span in enumerate(self.spans):
            if span[4] >= 0:
                own[span[4]] -= durations[index]
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric but the tracing overhead."""
        own = self.self_times()
        metrics = {name: 0.0 for name in METRICS if name != "trace.overhead_s"}
        for index, (layer, _, _, _, parent) in enumerate(self.spans):
            metrics[f"{layer}_s"] += own[index]
            if parent < 0 or self.spans[parent][0] != layer:
                calls = _CALL_METRICS.get(layer, f"{layer}_calls")
                if calls in metrics:
                    metrics[calls] += 1
        for name in ("kernels.cov_entries", "gp.jitter_retries",
                     "inference.numeric_rejects", "results.bytes_written"):
            metrics[name] = self.counts[name]
        for kind in ("structure", "hyper"):
            steps = metrics[f"inference.{kind}_steps"]
            accepts = self.counts[f"inference.{kind}_accepts"]
            metrics[f"inference.{kind}_accept_ratio"] = accepts / steps if steps else 0.0
        return metrics

    def write_spans(self, path) -> None:
        own = self.self_times()
        with open(path, "w") as handle:
            handle.write("index,layer,function,start_s,end_s,parent,self_s\n")
            origin = self.spans[0][2] if self.spans else 0.0
            for index, (layer, name, start, end, parent) in enumerate(self.spans):
                handle.write(
                    f"{index},{layer},{name},{start - origin:.9f},"
                    f"{end - origin:.9f},{parent},{own[index]:.9f}\n"
                )
