"""Span tracing of qimpute's public functions, done from outside the library.

A traced function is replaced in every ``qimpute`` module (and on its class,
for a method) that refers to it, so a call is recorded however its caller
looks the function up: ``qimpute.encoding.iqp_embed`` inside ``embed``,
``qimpute.experiment.train`` inside ``run_method``, and so on. Each span is
(name, start, end, parent); spans stay in memory until the run ends, then
``Tracer.layer_metrics`` folds them into per-layer numbers and
``Tracer.dump`` writes them out.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Layers are qimpute's modules. Every span name is "<layer>.<function>";
# the benchmark's own root spans use the layer "bench".
LAYERS = (
    "quantum", "encoding", "datasets", "tabular", "model",
    "training", "baselines", "experiment", "metrics",
)

# (defining module, attribute) of each traced function. "Class.method"
# patches the method on the class.
TRACED = (
    ("qimpute.datasets", "synth_healthcare_generate"),
    ("qimpute.tabular", "inject_mcar"),
    ("qimpute.tabular", "apply_mask"),
    ("qimpute.tabular", "missing_mask"),
    ("qimpute.encoding", "fit_preprocessor"),
    ("qimpute.encoding", "CellEmbedder.embed_table"),
    ("qimpute.quantum", "iqp_embed"),
    ("qimpute.model", "forward"),
    ("qimpute.model", "loss_and_gradients"),
    ("qimpute.model", "predict_masked"),
    ("qimpute.training", "train"),
    ("qimpute.training", "adam_step"),
    ("qimpute.training", "impute_table"),
    ("qimpute.baselines", "mean_mode_impute"),
    ("qimpute.baselines", "knn_impute"),
    ("qimpute.baselines", "iterative_ridge_impute"),
    ("qimpute.baselines", "iterative_ridge_with_trace"),
    ("qimpute.experiment", "run_experiment"),
    ("qimpute.experiment", "prepare_split"),
    ("qimpute.experiment", "run_method"),
    ("qimpute.experiment", "export_embeddings"),
    ("qimpute.metrics", "rmse_numeric"),
    ("qimpute.metrics", "rmse_raw_per_column"),
    ("qimpute.metrics", "macro_f1_categorical"),
)


def _embedded_cells(args, kwargs, result) -> dict:
    """Cells ``CellEmbedder.embed_table(table, mask)`` embedded: observed and unmasked."""
    table = args[1]
    mask = args[2] if len(args) > 2 else kwargs.get("mask")
    observed = sum(cell is not None for row in table.rows for cell in row)
    if mask is not None:
        observed -= sum(
            1
            for r, c in zip(*mask.matrix.nonzero())
            if table.rows[r][c] is not None
        )
    return {"encoding.cells_embedded": observed}


def _amplitude_ops(args, kwargs, result) -> dict:
    """Computed, not measured: each layer touches 2^n amplitudes in each of
    2n Hadamard butterfly stages and once in the diagonal phase."""
    params = args[0]
    n = params.n_qubits
    return {"quantum.amplitude_ops": params.n_layers * (2 * n + 1) * 2**n}


# Counts read off a traced call's arguments or result, by span name.
COUNT_HOOKS = {
    "quantum.iqp_embed": _amplitude_ops,
    "encoding.embed_table": _embedded_cells,
    "training.train": lambda a, k, r: {"training.empty_batches": r.empty_batches},
    "baselines.iterative_ridge_with_trace": lambda a, k, r: {"baselines.ridge_sweeps": len(r[1])},
    "experiment.prepare_split": lambda a, k, r: {"split": r.mask_hash},
}


def replace_everywhere(original, replacement) -> list:
    """Point every qimpute module attribute holding ``original`` at ``replacement``.

    Returns the (module, attribute) pairs changed, for ``restore``.
    """
    changed = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "qimpute" or name.startswith("qimpute.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr))
    return changed


def restore(changed: list, original) -> None:
    for owner, attr in changed:
        setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder; ``install`` wraps TRACED, ``uninstall`` undoes it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.span_counts: dict[int, dict] = {}
        self._stack = [-1]
        self._undo: list = []

    def _open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Root span around the benchmark's own code, e.g. ``bench.job``."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                self.span_counts[idx] = hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr in TRACED:
            module = sys.modules[module_name]
            layer = module_name.split(".")[-1]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(f"{layer}.{method}", original))
                self._undo.append(([(cls, method)], original))
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                self._undo.append((replace_everywhere(original, wrapper), original))

    def uninstall(self) -> None:
        while self._undo:
            restore(*self._undo.pop())

    def mark(self) -> int:
        """Index of the next span; spans from a mark onwards form one window."""
        return len(self.starts)

    def layer_metrics(self, windows: list[tuple[int, int]]) -> dict[str, float]:
        """Per-layer totals over the spans in ``windows`` (half-open index ranges).

        Every window must start at a root span, so parents stay inside it.
        """
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        counts: Counter = Counter()
        splits: set[str] = set()
        steps: list[float] = []
        adam: list[float] = []
        for lo, hi in windows:
            child = [0.0] * (hi - lo)
            for i in range(lo, hi):
                if self.parents[i] >= lo:
                    child[self.parents[i] - lo] += self.ends[i] - self.starts[i]
            for i in range(lo, hi):
                name = self.names[i]
                duration = self.ends[i] - self.starts[i]
                total[name] += duration
                self_time[name] += duration - child[i - lo]
                calls[name] += 1
                extra = dict(self.span_counts.get(i, {}))
                if "split" in extra:
                    splits.add(extra.pop("split"))
                counts.update(extra)
                parent = self.parents[i]
                if name == "model.loss_and_gradients" and parent >= 0 and self.names[parent] == "training.train":
                    steps.append(duration)
                elif name == "training.adam_step":
                    adam.append(duration)

        step_ms = [1e3 * (g + a) for g, a in zip(steps, adam)]
        circuits = calls["quantum.iqp_embed"]
        cells = counts["encoding.cells_embedded"]
        prepare_calls = calls["experiment.prepare_split"]
        out = {
            "quantum.iqp_embed_calls": circuits,
            "quantum.iqp_embed_s": total["quantum.iqp_embed"],
            "quantum.us_per_circuit": 1e6 * total["quantum.iqp_embed"] / circuits if circuits else 0.0,
            "quantum.amplitude_ops": counts["quantum.amplitude_ops"],
            "encoding.embed_table_s": total["encoding.embed_table"],
            "encoding.cells_embedded": cells,
            "encoding.embed_us_per_cell": 1e6 * total["encoding.embed_table"] / cells if cells else 0.0,
            "encoding.fit_preprocessor_s": total["encoding.fit_preprocessor"],
            "datasets.generate_s": total["datasets.synth_healthcare_generate"],
            "tabular.inject_mcar_s": total["tabular.inject_mcar"],
            "tabular.apply_mask_s": total["tabular.apply_mask"],
            "tabular.missing_mask_s": total["tabular.missing_mask"],
            "tabular.missing_mask_calls": calls["tabular.missing_mask"],
            "model.loss_and_gradients_s": total["model.loss_and_gradients"],
            "model.forward_s": total["model.forward"],
            "model.backward_s": self_time["model.loss_and_gradients"],
            "model.predict_masked_s": total["model.predict_masked"],
            "training.train_s": total["training.train"],
            "training.steps": len(steps),
            "training.step_ms_p50": _quantile(step_ms, 0.5),
            "training.step_ms_p90": _quantile(step_ms, 0.9),
            "training.adam_step_s": total["training.adam_step"],
            "training.batch_prep_s": self_time["training.train"],
            "training.impute_table_s": total["training.impute_table"],
            "training.empty_batches": counts["training.empty_batches"],
            "baselines.mean_mode_s": total["baselines.mean_mode_impute"],
            "baselines.knn_s": total["baselines.knn_impute"],
            "baselines.iterative_ridge_s": total["baselines.iterative_ridge_impute"],
            "baselines.ridge_sweeps": counts["baselines.ridge_sweeps"],
            "experiment.prepare_split_s": total["experiment.prepare_split"],
            "experiment.prepare_split_calls": prepare_calls,
            "experiment.split_reuse": len(splits) / prepare_calls if prepare_calls else 0.0,
            "experiment.run_method_s": total["experiment.run_method"],
            "experiment.export_write_s": self_time["experiment.export_embeddings"],
            "metrics.score_s": sum(
                total[n] for n in ("metrics.rmse_numeric", "metrics.rmse_raw_per_column",
                                   "metrics.macro_f1_categorical")
            ),
            "trace.unattributed_s": sum(t for n, t in self_time.items() if n.startswith("bench.")),
            "trace.spans": sum(calls.values()),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                t for n, t in self_time.items() if n.startswith(layer + ".")
            )
        return out

    def dump(self, path, meta: dict) -> None:
        """Write every recorded span as JSON: name, start, end, parent index."""
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [n, round(s - t0, 9), round(e - t0, 9), p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": spans}, fh, separators=(",", ":"))
            fh.write("\n")


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
