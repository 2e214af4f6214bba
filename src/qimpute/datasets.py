"""Synthetic dataset generators.

The healthcare generator produces a 20-column mixed-type table whose
numeric vitals are drawn from diagnosis-conditioned Gaussian mixtures.
For several vitals the mixture component is selected by nonlinear,
context-dependent rules over other vitals in the same row (a feverish
temperature pushes the white-cell count into its high component, a fast
heart rate with low oxygen pushes lactate up, and so on), so recovering a
hidden value requires reading subtle interactions, not just the diagnosis.
Missingness is not at random: blood pressure is blanked whenever the
diagnosis is ``stable``. The blanked values still exist in the
ground-truth sidecar so MNAR imputation error stays measurable.

A smaller fully-deterministic toy table supports training-sanity checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rng import DATAGEN, substream
from .tabular import (
    ColumnKind,
    ColumnSpec,
    DatasetSchema,
    Mask,
    MaskProvenance,
    Table,
    apply_mask,
)

DIAGNOSES = ("stable", "guarded", "critical")
_DIAGNOSIS_PROBS = (0.5, 0.3, 0.2)

# Base vitals: per-diagnosis (mean, std) pairs indexed by DIAGNOSES order.
# These are drawn first and provide the context the dependent vitals read.
_BASE_VITALS: dict[str, tuple[tuple[float, float], ...]] = {
    "age": ((52.0, 14.0), (61.0, 13.0), (67.0, 12.0)),
    "bmi": ((26.0, 4.0), (28.0, 4.5), (29.0, 5.0)),
    "blood_pressure": ((118.0, 8.0), (135.0, 10.0), (162.0, 12.0)),
    "heart_rate": ((72.0, 8.0), (95.0, 9.0), (124.0, 10.0)),
    "resp_rate": ((14.0, 2.0), (19.0, 3.0), (27.0, 4.0)),
    "temperature": ((36.8, 0.3), (37.8, 0.5), (38.9, 0.7)),
    "spo2": ((98.0, 1.0), (94.0, 2.0), (87.0, 4.0)),
}

# Dependent vitals: two-component per-diagnosis Gaussian mixtures whose
# component is picked by a nonlinear rule over the base vitals, so the
# relationship between columns is context-dependent, not just a class
# shift. Entries are (low (mean, std) per class, high (mean, std) per
# class, rule over the base-vital arrays).
_DEPENDENT_VITALS: dict[str, tuple] = {
    "glucose": (
        ((95.0, 10.0), (108.0, 14.0), (125.0, 18.0)),
        ((165.0, 25.0), (185.0, 30.0), (215.0, 35.0)),
        lambda base: base["bmi"] > 29.0,
    ),
    "wbc_count": (
        ((6.8, 1.2), (9.0, 1.6), (12.0, 2.0)),
        ((11.5, 2.0), (14.0, 2.4), (18.5, 3.0)),
        lambda base: base["temperature"] > 37.6,
    ),
    "creatinine": (
        ((0.85, 0.12), (1.1, 0.2), (1.5, 0.3)),
        ((1.5, 0.3), (1.9, 0.4), (2.8, 0.6)),
        lambda base: (base["age"] > 62.0) & (base["blood_pressure"] > 145.0),
    ),
    "lactate": (
        ((0.9, 0.25), (1.6, 0.4), (2.6, 0.6)),
        ((2.4, 0.6), (3.4, 0.8), (5.2, 1.2)),
        lambda base: (base["heart_rate"] > 105.0) & (base["spo2"] < 93.0),
    ),
    "pain_score": (
        ((1.5, 1.0), (3.5, 1.2), (5.0, 1.5)),
        ((5.0, 1.5), (6.5, 1.5), (8.5, 1.0)),
        lambda base: (base["resp_rate"] > 22.0) | (base["heart_rate"] > 115.0),
    ),
}

# Per-diagnosis category probabilities, same class order.
_CATEGORICAL_TABLES: dict[str, tuple[tuple[str, ...], tuple[tuple[float, ...], ...]]] = {
    "sex": (("female", "male"), ((0.5, 0.5), (0.5, 0.5), (0.5, 0.5))),
    "smoker": (
        ("no", "former", "yes"),
        ((0.6, 0.25, 0.15), (0.5, 0.3, 0.2), (0.45, 0.3, 0.25)),
    ),
    "med_adherence": (
        ("good", "partial", "poor"),
        ((0.7, 0.2, 0.1), (0.5, 0.3, 0.2), (0.35, 0.35, 0.3)),
    ),
}

# Context-escalated categoricals: a severity rule over the vitals switches
# between the calm and escalated per-diagnosis probability tables, so these
# columns carry within-class signal that lives in numeric interactions.
_CONTEXT_CATEGORICALS: dict[str, tuple] = {
    "admission_type": (
        ("elective", "emergency", "transfer"),
        ((0.65, 0.2, 0.15), (0.45, 0.35, 0.2), (0.2, 0.6, 0.2)),
        ((0.15, 0.7, 0.15), (0.08, 0.77, 0.15), (0.02, 0.86, 0.12)),
        lambda vitals: (vitals["pain_score"] > 5.5) | (vitals["resp_rate"] > 21.0),
    ),
    "ward": (
        ("general", "observation", "icu"),
        ((0.75, 0.22, 0.03), (0.55, 0.35, 0.1), (0.2, 0.3, 0.5)),
        ((0.3, 0.4, 0.3), (0.15, 0.3, 0.55), (0.03, 0.12, 0.85)),
        lambda vitals: (vitals["lactate"] > 1.8) | (vitals["spo2"] < 92.5),
    ),
}

_TRIAGE_TEMPLATES = (
    (
        "patient resting comfortably vitals steady no acute distress",
        "routine observation planned discharge expected soon",
        "stable presentation mild complaints follow up scheduled",
    ),
    (
        "moderate symptoms under watch repeat assessment ordered",
        "guarded condition labs pending monitoring continued",
        "symptoms persisting response to treatment uncertain",
    ),
    (
        "acute deterioration rapid response called immediate intervention",
        "critical presentation unstable vitals escalation required",
        "severe distress high acuity continuous monitoring started",
    ),
)

_NURSING_TEMPLATES = (
    (
        "ambulating independently tolerating diet well",
        "no new complaints overnight slept well",
        "reviewed discharge instructions with patient",
    ),
    (
        "intermittent discomfort reported analgesia given",
        "fluctuating readings rechecked within the hour",
        "family updated plan of care discussed",
    ),
    (
        "frequent reassessment ongoing pressors titrated",
        "marked distress physician at bedside repeatedly",
        "one to one observation maintained all shift",
    ),
)

HEALTHCARE_COLUMNS: tuple[ColumnSpec, ...] = (
    ColumnSpec("age", ColumnKind.NUMERIC),
    ColumnSpec("bmi", ColumnKind.NUMERIC),
    ColumnSpec("sex", ColumnKind.CATEGORICAL),
    ColumnSpec("smoker", ColumnKind.CATEGORICAL),
    ColumnSpec("admission_type", ColumnKind.CATEGORICAL),
    ColumnSpec("ward", ColumnKind.CATEGORICAL),
    ColumnSpec("diagnosis", ColumnKind.CATEGORICAL),
    ColumnSpec("med_adherence", ColumnKind.CATEGORICAL),
    ColumnSpec("blood_pressure", ColumnKind.NUMERIC),
    ColumnSpec("heart_rate", ColumnKind.NUMERIC),
    ColumnSpec("resp_rate", ColumnKind.NUMERIC),
    ColumnSpec("temperature", ColumnKind.NUMERIC),
    ColumnSpec("spo2", ColumnKind.NUMERIC),
    ColumnSpec("glucose", ColumnKind.NUMERIC),
    ColumnSpec("wbc_count", ColumnKind.NUMERIC),
    ColumnSpec("creatinine", ColumnKind.NUMERIC),
    ColumnSpec("lactate", ColumnKind.NUMERIC),
    ColumnSpec("pain_score", ColumnKind.NUMERIC),
    ColumnSpec("triage_note", ColumnKind.TEXT),
    ColumnSpec("nursing_note", ColumnKind.TEXT),
)

HEALTHCARE_SCHEMA = DatasetSchema(HEALTHCARE_COLUMNS, name="synthetic_healthcare")


@dataclass
class SyntheticDataset:
    """Working table (MNAR holes applied), complete truth sidecar, MNAR mask."""

    table: Table
    truth: Table
    mnar_mask: Mask

    @property
    def schema(self) -> DatasetSchema:
        return self.table.schema


def _draw_base(rng, params, class_idx) -> np.ndarray:
    """Per-class Gaussian draw, vectorized over rows."""
    means = np.array([m for m, _ in params])[class_idx]
    stds = np.array([s for _, s in params])[class_idx]
    return means + stds * rng.standard_normal(class_idx.size)


def _draw_dependent(rng, low, high, rule, base, class_idx) -> np.ndarray:
    """Two-component mixture; the context rule picks the component per row."""
    in_high = rule(base)
    low_mean = np.array([m for m, _ in low])[class_idx]
    low_std = np.array([s for _, s in low])[class_idx]
    high_mean = np.array([m for m, _ in high])[class_idx]
    high_std = np.array([s for _, s in high])[class_idx]
    means = np.where(in_high, high_mean, low_mean)
    stds = np.where(in_high, high_std, low_std)
    return means + stds * rng.standard_normal(class_idx.size)


def synth_healthcare_generate(n_rows: int, seed: int) -> SyntheticDataset:
    """Generate the synthetic healthcare dataset.

    Returns the working table (blood pressure missing for every
    stable-diagnosis row), the complete ground-truth table, and the MNAR
    mask. Deterministic per seed.
    """
    if n_rows < 1:
        raise ConfigError(f"n_rows must be >= 1, got {n_rows}")
    rng = substream(seed, DATAGEN)
    class_idx = rng.choice(len(DIAGNOSES), size=n_rows, p=_DIAGNOSIS_PROBS)

    numeric_values: dict[str, np.ndarray] = {}
    for col, params in _BASE_VITALS.items():
        numeric_values[col] = _draw_base(rng, params, class_idx)
    for col, (low, high, rule) in _DEPENDENT_VITALS.items():
        numeric_values[col] = _draw_dependent(
            rng, low, high, rule, numeric_values, class_idx
        )

    categorical_values: dict[str, list[str]] = {}
    for col, (vocab, probs) in _CATEGORICAL_TABLES.items():
        u = rng.random(n_rows)
        idx = np.empty(n_rows, dtype=int)
        for ci in range(len(DIAGNOSES)):
            edges = np.cumsum(probs[ci])
            sel = class_idx == ci
            idx[sel] = np.searchsorted(edges, u[sel], side="right")
        idx = np.minimum(idx, len(vocab) - 1)
        categorical_values[col] = [vocab[i] for i in idx]
    for col, (vocab, calm, escalated, rule) in _CONTEXT_CATEGORICALS.items():
        u = rng.random(n_rows)
        fired = rule(numeric_values)
        idx = np.empty(n_rows, dtype=int)
        for ci in range(len(DIAGNOSES)):
            for esc in (False, True):
                sel = (class_idx == ci) & (fired == esc)
                edges = np.cumsum((escalated if esc else calm)[ci])
                idx[sel] = np.searchsorted(edges, u[sel], side="right")
        idx = np.minimum(idx, len(vocab) - 1)
        categorical_values[col] = [vocab[i] for i in idx]

    triage_pick = rng.integers(0, 3, size=n_rows)
    nursing_pick = rng.integers(0, 3, size=n_rows)

    truth_rows: list[list] = []
    for r in range(n_rows):
        ci = int(class_idx[r])
        row: list = []
        for spec in HEALTHCARE_COLUMNS:
            if spec.name == "diagnosis":
                row.append(DIAGNOSES[ci])
            elif spec.name == "triage_note":
                row.append(_TRIAGE_TEMPLATES[ci][triage_pick[r]])
            elif spec.name == "nursing_note":
                row.append(_NURSING_TEMPLATES[ci][nursing_pick[r]])
            elif spec.kind == ColumnKind.NUMERIC:
                row.append(float(numeric_values[spec.name][r]))
            else:
                row.append(categorical_values[spec.name][r])
        truth_rows.append(row)

    truth = Table(HEALTHCARE_SCHEMA, truth_rows)

    bp_col = HEALTHCARE_SCHEMA.index("blood_pressure")
    matrix = np.zeros((n_rows, HEALTHCARE_SCHEMA.n_columns), dtype=bool)
    matrix[class_idx == 0, bp_col] = True
    mnar = Mask(matrix, MaskProvenance.INJECTED_MNAR)
    return SyntheticDataset(table=apply_mask(truth, mnar), truth=truth, mnar_mask=mnar)


TOY_SCHEMA = DatasetSchema(
    (
        ColumnSpec("x1", ColumnKind.NUMERIC),
        ColumnSpec("x2", ColumnKind.NUMERIC),
        ColumnSpec("x3", ColumnKind.NUMERIC),
        ColumnSpec("level", ColumnKind.CATEGORICAL),
        ColumnSpec("band", ColumnKind.CATEGORICAL),
    ),
    name="toy_separable",
)


def make_toy_table(n_rows: int = 200, seed: int = 0) -> Table:
    """Small separable table: every column is a deterministic function of x1."""
    rng = substream(seed, DATAGEN)
    x1 = rng.random(n_rows)
    rows = []
    for v in x1:
        rows.append(
            [
                float(v),
                float(0.8 * v + 0.1),
                float(1.0 - v),
                "hi" if v > 0.5 else "lo",
                "in" if 0.25 < v < 0.75 else "out",
            ]
        )
    return Table(TOY_SCHEMA, rows)
