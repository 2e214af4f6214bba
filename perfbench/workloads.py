"""The three benchmark workloads: inputs from a seed, the timed job, output checks.

Each workload is an object with

* ``setup()``: makes the inputs from the seed (timed as part of ``setup_s``);
* ``job()``: the timed call into qimpute, from its first call to its result;
* ``output(result)``: turns the result into something checkable, untimed;
* ``fingerprints(output)``: one comparable value per operation, so that
  repeated iterations can be checked against the first;
* ``check(output)``: failure messages keyed by operation, empty when correct;
* ``quality(output)``: the end-to-end ``macro_f1`` plus the per-method
  ``rmse.<method>`` and ``macro_f1.<method>`` of the methods it ran;
* ``properties(output)``: input properties (observed, held-out and distinct
  cells) computed from the generated inputs.

qimpute is reached only through module attributes (``training.train``, not
``from qimpute.training import train``) so that the tracer's wrappers see
every call.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from qimpute import datasets, encoding, experiment, metrics, model, quantum, tabular, training

from tracer import replace_everywhere, restore

# Recording precision (decimal places) of the numeric vitals; unlisted ones
# are recorded as integers.
RECORDING_DECIMALS = {"temperature": 1, "bmi": 1, "lactate": 1, "wbc_count": 1, "creatinine": 2}
MCAR_RATE = 0.2
N_QUBITS = 8
N_LAYERS = 2
BASELINE_METHODS = ("mean_mode", "knn", "iterative_ridge")
# Methods with per-method quality metrics; a workload reports 0 for those it does not run.
QUALITY_METHODS = ("quantum_iqp",) + BASELINE_METHODS
ORACLE_TOL = 1e-10
CLAMP_TOL = 1e-9  # relative slack on the ±10% fill range, for float rounding


def input_properties(tables: list, heldout: int) -> dict:
    """Observed, held-out and distinct (column, value) cells of the given inputs."""
    observed = distinct = 0
    for table in tables:
        cells = [(j, v) for row in table.rows for j, v in enumerate(row) if v is not None]
        observed += len(cells)
        distinct += len(set(cells))
    return {
        "input.observed_cells": observed,
        "input.heldout_cells": heldout,
        "encoding.distinct_cells": distinct,
        "encoding.reuse_ratio": 1.0 - distinct / observed,
    }


def check_imputed(working, imputed, op: str, stats=None) -> list[tuple[str, str]]:
    """Observed cells unchanged and every missing non-text cell filled.

    With ``stats``, numeric fills must also lie in the fitted range widened by
    10% on each side.
    """
    failures = []
    schema = working.schema
    if imputed.n_rows != working.n_rows:
        return [(op, f"{imputed.n_rows} rows back for {working.n_rows}")]
    for r, (before, after) in enumerate(zip(working.rows, imputed.rows)):
        for j, spec in enumerate(schema.columns):
            if before[j] is not None:
                if after[j] != before[j]:
                    failures.append((op, f"observed cell ({r}, {spec.name}) changed"))
            elif spec.kind != tabular.ColumnKind.TEXT:
                if after[j] is None:
                    failures.append((op, f"held-out cell ({r}, {spec.name}) not filled"))
                elif stats is not None and spec.kind == tabular.ColumnKind.NUMERIC:
                    col = stats.for_column(spec.name)
                    span = col.vmax - col.vmin
                    slack = training.IMPUTE_CLAMP_MARGIN * span * (1.0 + CLAMP_TOL)
                    if not col.vmin - slack <= after[j] <= col.vmax + slack:
                        failures.append((op, f"fill ({r}, {spec.name}) = {after[j]} out of range"))
    return failures


def round_to_recording_precision(table):
    rows = []
    for row in table.rows:
        rows.append([
            float(round(v, RECORDING_DECIMALS.get(spec.name, 0)))
            if spec.kind == tabular.ColumnKind.NUMERIC and v is not None else v
            for spec, v in zip(table.schema.columns, row)
        ])
    return tabular.Table(table.schema, rows)


def _macro_f1(truth: list, pred: list) -> float:
    scores = []
    for cls in sorted(set(truth)):
        tp = sum(t == cls and p == cls for t, p in zip(truth, pred))
        fp = sum(t != cls and p == cls for t, p in zip(truth, pred))
        fn = sum(t == cls and p != cls for t, p in zip(truth, pred))
        scores.append(2 * tp / (2 * tp + fp + fn) if tp else 0.0)
    return float(np.mean(scores))


class EmbedFresh:
    """Export row-mean quantum embeddings of a freshly generated table."""

    name = "embed_fresh"
    label_column = "diagnosis"

    def __init__(self, seed: int, work_dir: Path, rows: int = 1000, oracle_rows: int = 4):
        self.seed = seed
        self.rows = rows
        self.oracle_rows = oracle_rows
        self.path = work_dir / f"embed_fresh_seed{seed}.csv"
        self.operations = 1
        self.env = {"rows": rows, "seeds": [seed], "oracle_rows": oracle_rows}

    def setup(self) -> None:
        self.data = datasets.synth_healthcare_generate(self.rows, seed=self.seed)
        self.stats = encoding.fit_preprocessor(self.data.table, self.data.schema)

    def job(self):
        experiment.export_embeddings(
            self.data.table, self.data.schema, self.stats, encoding.EmbedderVariant.QUANTUM_IQP,
            seed=self.seed, label_column=self.label_column, path=self.path, mode="row_mean",
            n_qubits=N_QUBITS, n_layers=N_LAYERS,
        )

    def output(self, result) -> str:
        return self.path.read_text(encoding="utf-8")

    def fingerprints(self, output: str) -> list:
        return [output]

    def _parse(self, output: str):
        records = list(csv.reader(io.StringIO(output)))
        header, body = records[0], records[1:]
        return header, body

    def check(self, output: str) -> list[tuple[str, str]]:
        op = "export"
        header, body = self._parse(output)
        if header != ["row_id", "label"] + [f"e_{i}" for i in range(N_QUBITS)]:
            return [(op, f"unexpected header {header}")]
        if len(body) != self.data.table.n_rows:
            return [(op, f"{len(body)} CSV rows for {self.data.table.n_rows} table rows")]
        values = np.array([[float(x) for x in rec[2:]] for rec in body])
        failures = []
        if not np.all(np.abs(values) <= 1.0):
            failures.append((op, "embedding value outside [-1, 1]"))
        rng = np.random.default_rng([self.seed, 0xBE7C])
        sample = rng.choice(len(body), size=min(self.oracle_rows, len(body)), replace=False)
        embedder = encoding.CellEmbedder(
            self.data.schema, self.stats, encoding.EmbedderVariant.QUANTUM_IQP,
            seed=self.seed, n_qubits=N_QUBITS, n_layers=N_LAYERS,
        )
        for r in sorted(int(i) for i in sample):
            z = []
            for c, value in enumerate(self.data.table.rows[r]):
                if value is None:
                    continue
                x_c = embedder.classical_vector(r, c, value)
                proj = encoding.make_angle_projection(self.seed, x_c.size, N_QUBITS, c)
                state = quantum.oracle_apply(encoding.project_to_angles(x_c, proj, N_LAYERS))
                z.append(quantum.z_expectations(state).values)
            err = float(np.max(np.abs(np.mean(z, axis=0) - values[r])))
            if err > ORACLE_TOL:
                failures.append((op, f"row {r} differs from the dense oracle by {err:.3g}"))
        return failures

    def quality(self, output: str) -> tuple[dict, dict]:
        """Macro F1 of a linear probe for the label, on the exported vectors.

        The probe is a least-squares fit to the one-hot label on even rows,
        scored by argmax on odd rows.
        """
        _, body = self._parse(output)
        x = np.array([[float(v) for v in rec[2:]] + [1.0] for rec in body])
        labels = [rec[1] for rec in body]
        classes = sorted(set(labels))
        onehot = np.array([[float(label == c) for c in classes] for label in labels])
        train = np.arange(len(body)) % 2 == 0
        beta = np.linalg.lstsq(x[train], onehot[train], rcond=None)[0]
        picks = np.argmax(x[~train] @ beta, axis=1)
        test_labels = [label for label, t in zip(labels, train) if not t]
        return {"macro_f1": _macro_f1(test_labels, [classes[i] for i in picks])}, {}

    def cells(self, output) -> int:
        return sum(v is not None for row in self.data.table.rows for v in row)

    def properties(self, output) -> dict:
        return input_properties([self.data.table], self.data.mnar_mask.count)


class TrainImpute:
    """The library-tour pipeline on recording-precision values with 20% MCAR."""

    name = "train_impute"

    def __init__(self, seed: int, work_dir: Path, rows: int = 1000, epochs: int = 4):
        self.seed = seed
        self.rows = rows
        self.model_config = model.ModelConfig()
        self.train_config = training.TrainConfig(
            epochs=epochs, batch_size=32, learning_rate=1e-3, seed=seed
        )
        self.operations = 1
        self.env = {"rows": rows, "seeds": [seed], "epochs": epochs, "mcar_rate": MCAR_RATE}

    def setup(self) -> None:
        data = datasets.synth_healthcare_generate(self.rows, seed=self.seed)
        self.schema = data.schema
        self.truth = round_to_recording_precision(data.truth)
        table = round_to_recording_precision(data.table)
        self.mcar = tabular.inject_mcar(table, MCAR_RATE, seed=self.seed)
        self.working = tabular.apply_mask(table, self.mcar)
        self.eval_mask = tabular.Mask.union(self.mcar, data.mnar_mask)
        self.stats = encoding.fit_preprocessor(self.working, self.schema)

    def job(self):
        embedder = encoding.CellEmbedder(
            self.schema, self.stats, encoding.EmbedderVariant.QUANTUM_IQP,
            seed=self.seed, n_qubits=N_QUBITS, n_layers=N_LAYERS,
        )
        result = training.train(
            self.working, self.mcar, self.schema, self.stats, embedder,
            self.model_config, self.train_config,
        )
        imputed = training.impute_table(
            self.working, self.mcar, self.schema, self.stats, embedder, result.params
        )
        rmse = metrics.rmse_numeric(imputed, self.truth, self.eval_mask, self.stats)
        f1 = metrics.macro_f1_categorical(imputed, self.truth, self.eval_mask)
        return imputed, rmse, f1

    def output(self, result):
        return result

    def fingerprints(self, output) -> list:
        imputed, rmse, f1 = output
        return [(imputed.content_hash(), rmse, f1)]

    def check(self, output) -> list[tuple[str, str]]:
        return check_imputed(self.working, output[0], "quantum_iqp", self.stats)

    def quality(self, output) -> tuple[dict, dict]:
        _, rmse, f1 = output
        return {"macro_f1": f1}, {
            "rmse.quantum_iqp": rmse, "macro_f1.quantum_iqp": f1,
        }

    def cells(self, output) -> int:
        return self.eval_mask.count

    def properties(self, output) -> dict:
        return input_properties([self.working], self.eval_mask.count)


class EvalBaselines:
    """``run_experiment`` over the three classical baselines and three seeds.

    The experiment generates its own splits, so ``setup`` only builds the
    config; the splits and imputed tables are captured at ``run_method`` for
    the output checks and the input properties.
    """

    name = "eval_baselines"

    def __init__(self, seed: int, work_dir: Path, rows: int = 800, n_seeds: int = 3):
        self.seed = seed
        self.rows = rows
        self.seeds = tuple(range(seed, seed + n_seeds))
        self.operations = len(BASELINE_METHODS) * n_seeds
        self.env = {"rows": rows, "seeds": list(self.seeds), "methods": list(BASELINE_METHODS)}
        self.captured: list = []

    def setup(self) -> None:
        self.config = experiment.ExperimentConfig(
            n_rows=self.rows, methods=BASELINE_METHODS, seeds=self.seeds, threads=1
        )

    def capture(self):
        """Record (method, seed, split, imputed) of every ``run_method`` call until undone."""
        original = experiment.run_method

        def capturing(method, split, config, seed):
            imputed = original(method, split, config, seed)
            self.captured.append((method, seed, split, imputed))
            return imputed

        changed = replace_everywhere(original, capturing)
        return lambda: restore(changed, original)

    def job(self):
        self.captured = []
        return experiment.run_experiment(self.config)

    def output(self, report):
        return report, self.captured

    def fingerprints(self, output) -> list:
        report, _ = output
        return [
            (result.method, s.seed, s.rmse, s.macro_f1, s.mask_hash, s.error)
            for result in report.results for s in result.per_seed
        ]

    def check(self, output) -> list[tuple[str, str]]:
        report, captured = output
        failures = []
        for result in report.results:
            for s in result.per_seed:
                if s.error is not None:
                    failures.append((f"{result.method}/{s.seed}", s.error))
        for seed_idx, seed in enumerate(self.seeds):
            hashes = {r.per_seed[seed_idx].mask_hash for r in report.results}
            if len(hashes) != 1:
                failures.append((f"*/{seed}", f"mask hashes differ across methods: {hashes}"))
        if len(captured) != self.operations:
            failures.append(("*", f"{len(captured)} imputations for {self.operations} tasks"))
        for method, seed, split, imputed in captured:
            failures += check_imputed(split.working, imputed, f"{method}/{seed}")
        return failures

    def quality(self, output) -> tuple[dict, dict]:
        report, _ = output
        per_method = {}
        for result in report.results:
            per_method[f"rmse.{result.method}"] = result.aggregate("rmse")[0]
            per_method[f"macro_f1.{result.method}"] = result.aggregate("macro_f1")[0]
        scores = [s for r in report.results for s in r.per_seed if s.error is None]
        return {"macro_f1": float(np.mean([s.macro_f1 for s in scores]))}, per_method

    def _splits(self, output) -> dict:
        return {seed: split for _, seed, split, _ in output[1]}

    def cells(self, output) -> int:
        return len(BASELINE_METHODS) * sum(s.eval_mask.count for s in self._splits(output).values())

    def properties(self, output) -> dict:
        splits = self._splits(output).values()
        return input_properties(
            [s.working for s in splits], sum(s.eval_mask.count for s in splits)
        )


WORKLOADS = {w.name: w for w in (EmbedFresh, TrainImpute, EvalBaselines)}
