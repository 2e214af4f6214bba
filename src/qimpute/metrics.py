"""Imputation quality metrics: normalized RMSE and pooled macro F1.

Both metrics score imputed values against a truth table at the positions
selected by a mask, never anywhere else. RMSE operates in min-max
normalized space using the fitted preprocessing stats (raw-unit RMSE per
column is available separately for transparency). Macro F1 pools masked
categorical cells across columns, treating each (column, category) pair
as one class, and averages per-class F1 over the classes present in the
truth, with F1 = 0 whenever precision + recall = 0.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .encoding import NumericColumnStats, PreprocessStats
from .tabular import ColumnKind, Mask, Table, held_out


def _scored_cells(imputed: Table, truth: Table, mask: Mask, kind: ColumnKind):
    """Per column of ``kind``: (column, imputed values, true values) at the
    masked cells that have a truth value.

    A mask of another shape than either table's is a
    :class:`ContractViolation` (see :func:`held_out`); an imputation that
    left such a cell missing raises ValueError.
    """
    held = held_out(imputed, mask)
    held_out(truth, mask)
    for j in imputed.schema.indices_of(kind):
        masked = np.flatnonzero(held[:, j])
        rows = masked[[t is not None for t in truth.column(j, masked)]]
        preds = imputed.column(j, rows)
        if None in preds:
            raise ValueError(
                f"imputed table still missing cell (row {rows[preds.index(None)]}, "
                f"column {imputed.schema.columns[j].name!r})"
            )
        yield j, preds, truth.column(j, rows)


def rmse_numeric(
    imputed: Table, truth: Table, mask: Mask, stats: PreprocessStats
) -> float | None:
    """Root mean squared error over masked numeric cells, normalized space.

    Cells where the truth itself is missing are skipped. Returns None when
    no masked numeric cell has a truth value (absent, not zero).
    """
    schema = imputed.schema
    diffs = []
    for j, preds, trues in _scored_cells(imputed, truth, mask, ColumnKind.NUMERIC):
        col_stats = stats.for_column(schema.columns[j].name)
        assert isinstance(col_stats, NumericColumnStats)
        diffs.append(col_stats.normalize(preds) - col_stats.normalize(trues))
    diff = np.concatenate([np.zeros(0), *diffs])
    if diff.size == 0:
        return None
    return float(np.sqrt(np.mean(diff * diff)))


def rmse_raw_per_column(
    imputed: Table, truth: Table, mask: Mask
) -> dict[str, float]:
    """Raw-unit RMSE per numeric column over masked cells with truth.

    Raises ValueError, as :func:`rmse_numeric` does, when the imputation
    left a scored cell missing.
    """
    schema = imputed.schema
    out: dict[str, float] = {}
    for j, preds, trues in _scored_cells(imputed, truth, mask, ColumnKind.NUMERIC):
        if preds:
            sq = [(p - t) ** 2 for p, t in zip(preds, trues)]
            out[schema.columns[j].name] = float(np.sqrt(np.mean(sq)))
    return out


def macro_f1_categorical(imputed: Table, truth: Table, mask: Mask) -> float | None:
    """Unweighted mean of per-class F1 over masked categorical cells.

    Classes are (column, category) pairs pooled across columns; only
    classes present in the truth enter the macro average. Returns None
    when no masked categorical cell has a truth value.
    """
    pairs = []  # (predicted class, true class) per scored cell
    for j, preds, trues in _scored_cells(imputed, truth, mask, ColumnKind.CATEGORICAL):
        pairs += [((j, str(p)), (j, str(t))) for p, t in zip(preds, trues)]
    if not pairs:
        return None
    predicted = Counter(p for p, _ in pairs)
    actual = Counter(t for _, t in pairs)
    hits = Counter(t for p, t in pairs if p == t)
    f1_values = []
    for key in sorted(actual):
        precision = hits[key] / predicted[key] if predicted[key] else 0.0
        recall = hits[key] / actual[key]
        f1_values.append(
            2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
    return float(np.mean(f1_values))
