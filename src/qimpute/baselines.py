"""Classical imputation baselines: mean/mode, k-NN, and iterative ridge.

All three are deterministic, leave observed cells untouched cell-exact,
and ignore text columns entirely (text is neither predictor nor target).
Numeric features are min-max normalized internally from observed cells.

The iterative ridge baseline is a deterministic single-pass stand-in for
chained-equation imputation: columns are swept in schema order, each
fitted by closed-form ridge regression on the rows observed in the target,
until the mean absolute change falls below tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import NumericColumnStats, fit_column
from .tabular import ColumnKind, Mask, Table, missing_mask


@dataclass(frozen=True)
class BaselineConfig:
    k: int = 5
    ridge_lambda: float = 1.0
    max_sweeps: int = 10
    tolerance: float = 1e-4

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.ridge_lambda <= 0.0:
            raise ValueError(f"ridge_lambda must be > 0, got {self.ridge_lambda}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {self.max_sweeps}")


_KNN_BLOCK_ROWS = 8  # k-NN query rows per distance block: (8, n_rows, n_numeric) temporaries


class _Frame:
    """Numeric/categorical views of a masked table, shared by the baselines.

    Slot ``s`` of the numeric (categorical) arrays holds schema column
    ``numeric_cols[s]`` (``categorical_cols[s]``); unobserved cells are nan
    (code -1).
    """

    def __init__(self, table: Table, mask: Mask):
        schema = table.schema
        self.table = table
        self.observed = ~(missing_mask(table).matrix | mask.matrix)
        self.numeric_cols = list(schema.indices_of(ColumnKind.NUMERIC))
        self.categorical_cols = list(schema.indices_of(ColumnKind.CATEGORICAL))
        n_rows = table.n_rows

        self.num_stats: list[NumericColumnStats] = []
        self.num_values = np.full((n_rows, len(self.numeric_cols)), np.nan)
        self.num_norm = np.full((n_rows, len(self.numeric_cols)), np.nan)
        for slot, j in enumerate(self.numeric_cols):
            rows, values = self._observed_cells(j)
            stats = fit_column(schema.columns[j], values)
            self.num_stats.append(stats)
            self.num_values[rows, slot] = values
            self.num_norm[rows, slot] = stats.normalize(values)

        self.vocabularies: list[tuple[str, ...]] = []
        self.cat_idx = np.full((n_rows, len(self.categorical_cols)), -1, dtype=int)
        for slot, j in enumerate(self.categorical_cols):
            rows, values = self._observed_cells(j)
            stats = fit_column(schema.columns[j], values)
            self.vocabularies.append(stats.vocabulary)
            self.cat_idx[rows, slot] = stats.codes(values)

    def _observed_cells(self, j: int) -> tuple[np.ndarray, list]:
        rows = np.flatnonzero(self.observed[:, j])
        return rows, [self.table.rows[r][j] for r in rows]

    def column_fills(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays shaped like ``num_values`` and ``cat_idx`` that hold, in
        every row, each column's observed mean and mode code (ties:
        vocabulary order)."""
        means = [np.nanmean(self.num_values[:, s]) for s in range(len(self.numeric_cols))]
        modes = [_mode(self.cat_idx[:, s], len(v)) for s, v in enumerate(self.vocabularies)]
        n_rows = self.table.n_rows
        return (
            np.tile(np.array(means, dtype=np.float64), (n_rows, 1)),
            np.tile(np.array(modes, dtype=int), (n_rows, 1)),
        )

    def completed(self, num_fill: np.ndarray, cat_fill: np.ndarray) -> Table:
        """Copy of the table with every unobserved numeric/categorical cell
        set from the same position of ``num_fill`` (column units) or
        ``cat_fill`` (codes), arrays shaped like ``num_values``/``cat_idx``."""
        out = self.table.copy()
        for slot, j in enumerate(self.numeric_cols):
            for r in np.flatnonzero(~self.observed[:, j]):
                out.rows[r][j] = float(num_fill[r, slot])
        for slot, j in enumerate(self.categorical_cols):
            vocab = self.vocabularies[slot]
            for r in np.flatnonzero(~self.observed[:, j]):
                out.rows[r][j] = vocab[int(cat_fill[r, slot])]
        return out


def _mode(codes: np.ndarray, width: int) -> int:
    """Most frequent non-negative code; ties resolve to the lowest code."""
    return int(np.argmax(np.bincount(codes[codes >= 0], minlength=width)))


def mean_mode_impute(table: Table, mask: Mask) -> Table:
    """Numeric missing cells get the observed column mean, categorical the mode."""
    frame = _Frame(table, mask)
    return frame.completed(*frame.column_fills())


def knn_impute(table: Table, mask: Mask, k: int = 5) -> Table:
    """Neighbor-based imputation over mixed-type row distances.

    Distance between two rows is the Euclidean distance over mutually
    observed normalized numeric features plus the Hamming distance over
    mutually observed categoricals, divided by the number of shared
    observed features; rows sharing nothing are infinitely far. Neighbors
    are the k nearest rows observed in the target column (ties broken by
    row index); numeric targets take the neighbor mean, categorical the
    neighbor mode. With no candidate rows the value falls back to the
    column mean/mode.

    Distances are computed for a block of query rows at a time (counts by gemm).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    frame = _Frame(table, mask)
    num_obs = ~np.isnan(frame.num_norm)
    cat_obs = frame.cat_idx >= 0
    num_fill, cat_fill = frame.column_fills()

    num_zeroed = np.where(num_obs, frame.num_norm, 0.0)
    num_w, cat_w = num_obs.astype(np.float64), cat_obs.astype(np.float64)
    widths = [len(v) for v in frame.vocabularies]
    onehot = np.zeros((table.n_rows, sum(widths)))
    rows, slots = np.nonzero(cat_obs)
    onehot[rows, np.cumsum([0] + widths)[slots] + frame.cat_idx[rows, slots]] = 1.0

    # A row's distances do not depend on the target column, which is never
    # mutually observed; nor is a row ever a candidate for its own missing cells.
    queries = np.flatnonzero(~num_obs.all(axis=1) | ~cat_obs.all(axis=1))
    for start in range(0, queries.size, _KNN_BLOCK_ROWS):
        rs = queries[start : start + _KNN_BLOCK_ROWS]
        diffs = num_zeroed[rs, None, :] - num_zeroed  # (block, n, p_num)
        diffs *= num_obs[rs, None, :] & num_obs
        euclid = np.sqrt((diffs**2).sum(axis=2))
        counts = num_w[rs] @ num_w.T + cat_w[rs] @ cat_w.T
        hamming = cat_w[rs] @ cat_w.T - onehot[rs] @ onehot.T
        with np.errstate(divide="ignore", invalid="ignore"):
            d = np.where(counts > 0, (euclid + hamming) / counts, np.inf)
        # Stable: equal distances keep row order; infinite ones sort last.
        order = np.argsort(d, axis=1, kind="stable")
        for r, row_order, n_finite in zip(rs, order, np.isfinite(d).sum(axis=1)):
            near = row_order[:n_finite]
            for s in np.flatnonzero(~num_obs[r]):
                neighbors = near[num_obs[near, s]][:k]
                if neighbors.size:
                    num_fill[r, s] = np.mean(frame.num_values[neighbors, s])
            for s in np.flatnonzero(~cat_obs[r]):
                neighbors = near[cat_obs[near, s]][:k]
                if neighbors.size:
                    cat_fill[r, s] = _mode(frame.cat_idx[neighbors, s], widths[s])
    return frame.completed(num_fill, cat_fill)


def iterative_ridge_impute(table: Table, mask: Mask, config: BaselineConfig) -> Table:
    """Chained closed-form ridge sweeps; see :func:`iterative_ridge_with_trace`."""
    completed, _, _ = iterative_ridge_with_trace(table, mask, config)
    return completed


def iterative_ridge_with_trace(
    table: Table, mask: Mask, config: BaselineConfig
) -> tuple[Table, list[float], bool]:
    """Ridge sweeps plus the mean-absolute-change sequence and convergence flag.

    Starts from mean/mode fills, then repeatedly re-fits each incomplete
    column (schema order, Gauss-Seidel style) on the rows observed in that
    column, predicting its missing cells from normalized numeric and
    one-hot categorical predictors. Intercepts are handled by centering,
    so a column with no informative predictors falls back to its mean.
    """
    frame = _Frame(table, mask)
    n_rows = table.n_rows

    # Working state in normalized space, initialized with mean/mode.
    work_num = frame.num_norm.copy()
    for s, col in enumerate(work_num.T):  # column views
        col[np.isnan(col)] = np.nanmean(frame.num_norm[:, s])
    work_cat = np.where(frame.cat_idx < 0, frame.column_fills()[1], frame.cat_idx)

    schema_order = sorted(frame.numeric_cols + frame.categorical_cols)
    target_cols = [j for j in schema_order if not frame.observed[:, j].all()]

    def predictor_matrix(exclude: int) -> np.ndarray:
        parts = [work_num[:, s : s + 1] for s, j in enumerate(frame.numeric_cols) if j != exclude]
        parts += [
            np.eye(len(frame.vocabularies[s]))[work_cat[:, s]]  # one-hot rows
            for s, j in enumerate(frame.categorical_cols)
            if j != exclude
        ]
        return np.concatenate(parts, axis=1) if parts else np.zeros((n_rows, 0))

    def ridge_predict(x_train, y_train, x_all):
        """Centered closed-form ridge; multi-target when y has 2 dims."""
        x_mean = x_train.mean(axis=0)
        y_mean = y_train.mean(axis=0)
        xc = x_train - x_mean
        yc = y_train - y_mean
        gram = xc.T @ xc + config.ridge_lambda * np.eye(x_train.shape[1])
        beta = np.linalg.solve(gram, xc.T @ yc)
        return y_mean + (x_all - x_mean) @ beta

    changes: list[float] = []
    converged = False
    for _ in range(config.max_sweeps):
        deltas: list[float] = []
        for j in target_cols:
            missing_rows = np.flatnonzero(~frame.observed[:, j])
            train_rows = np.flatnonzero(frame.observed[:, j])
            x = predictor_matrix(exclude=j)
            if j in frame.numeric_cols:
                s = frame.numeric_cols.index(j)
                if x.shape[1] == 0:
                    preds = np.full(n_rows, frame.num_norm[train_rows, s].mean())
                else:
                    preds = ridge_predict(x[train_rows], frame.num_norm[train_rows, s], x)
                new = preds[missing_rows]
                deltas.extend(np.abs(new - work_num[missing_rows, s]).tolist())
                work_num[missing_rows, s] = new
            else:
                s = frame.categorical_cols.index(j)
                onehot = np.eye(len(frame.vocabularies[s]))[frame.cat_idx[train_rows, s]]
                if x.shape[1] == 0:
                    scores = np.tile(onehot.mean(axis=0), (n_rows, 1))
                else:
                    scores = ridge_predict(x[train_rows], onehot, x)
                new = np.argmax(scores[missing_rows], axis=1)
                deltas.extend((new != work_cat[missing_rows, s]).astype(float).tolist())
                work_cat[missing_rows, s] = new
        change = float(np.mean(deltas)) if deltas else 0.0
        changes.append(change)
        if change < config.tolerance:
            converged = True
            break

    num_fill = np.empty_like(work_num)
    for s, stats in enumerate(frame.num_stats):
        num_fill[:, s] = stats.denormalize(work_num[:, s])
    return frame.completed(num_fill, work_cat), changes, converged
