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

import math
from dataclasses import dataclass

import numpy as np

from .encoding import NumericColumnStats, fit_column
from .errors import ConfigError
from .tabular import ColumnKind, Mask, Table, observed_cells


@dataclass(frozen=True)
class BaselineConfig:
    k: int = 5
    ridge_lambda: float = 1.0
    max_sweeps: int = 10
    tolerance: float = 1e-4

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not 0.0 < self.ridge_lambda < math.inf:  # also rejects nan
            raise ConfigError(f"ridge_lambda must be finite and > 0, got {self.ridge_lambda}")
        if self.max_sweeps < 1:
            raise ConfigError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if not 0.0 <= self.tolerance < math.inf:  # also rejects nan
            raise ConfigError(f"tolerance must be finite and >= 0, got {self.tolerance}")


_KNN_GROUP_ROWS = 64  # k-NN query rows whose distances and orders are held at once: (64, n_rows)


class _Frame:
    """Numeric/categorical views of a masked table, shared by the baselines.

    Slot ``s`` of the numeric (categorical) arrays holds schema column
    ``numeric_cols[s]`` (``categorical_cols[s]``); unobserved cells are nan
    (code -1).
    """

    def __init__(self, table: Table, mask: Mask):
        schema = table.schema
        self.table = table
        self.observed = observed_cells(table, mask)
        self.numeric_cols = list(schema.indices_of(ColumnKind.NUMERIC))
        self.categorical_cols = list(schema.indices_of(ColumnKind.CATEGORICAL))
        n_rows = table.n_rows

        self.num_stats: list[NumericColumnStats] = []
        self.num_values = np.full((n_rows, len(self.numeric_cols)), np.nan)
        self.num_norm = np.full((n_rows, len(self.numeric_cols)), np.nan)
        for slot, j in enumerate(self.numeric_cols):
            rows = np.flatnonzero(self.observed[:, j])
            values = table.column(j, rows)
            stats = fit_column(schema.columns[j], values)
            self.num_stats.append(stats)
            self.num_values[rows, slot] = values
            self.num_norm[rows, slot] = stats.normalize(values)

        self.vocabularies: list[tuple[str, ...]] = []
        self.cat_idx = np.full((n_rows, len(self.categorical_cols)), -1, dtype=int)
        for slot, j in enumerate(self.categorical_cols):
            rows = np.flatnonzero(self.observed[:, j])
            values = table.column(j, rows)
            stats = fit_column(schema.columns[j], values)
            self.vocabularies.append(stats.vocabulary)
            self.cat_idx[rows, slot] = stats.codes(values)

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
        cells = []
        for slot, j in enumerate(self.numeric_cols):
            rows = np.flatnonzero(~self.observed[:, j])
            cells.append((j, rows, num_fill[rows, slot].tolist()))
        for slot, j in enumerate(self.categorical_cols):
            rows = np.flatnonzero(~self.observed[:, j])
            cells.append((j, rows, [self.vocabularies[slot][c] for c in cat_fill[rows, slot]]))
        return self.table.filled(cells)


def _mode(codes: np.ndarray, width: int) -> int:
    """Most frequent non-negative code; ties resolve to the lowest code."""
    return int(np.argmax(np.bincount(codes[codes >= 0], minlength=width)))


def _neighbour_order(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's stable argsort (equal distances keep row order, infinite
    ones last) and its number of finite distances.

    The default sort is much faster than the stable one; its order differs
    only among equal values, so only rows with a tie among their finite
    distances are sorted again stably.
    """
    order = np.argsort(d, axis=1)
    ordered = np.take_along_axis(d, order, axis=1)
    finite = np.isfinite(ordered)
    tied = ((ordered[:, 1:] == ordered[:, :-1]) & finite[:, 1:]).any(axis=1)
    order[tied] = np.argsort(d[tied], axis=1, kind="stable")
    return order, finite.sum(axis=1)


def _nearest(
    order: np.ndarray, n_finite: np.ndarray, candidate: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``order``, the first ``k`` rows it lists that are
    candidates and among its ``n_finite`` nearest: an (m, k) array of row
    indices padded with -1, and the number found per row.

    A short prefix of each order is scanned first; only rows that found
    fewer than ``k`` there while finite distances remain scan it all.
    """
    m, n = order.shape
    picks = np.full((m, k), -1)
    found = np.zeros(m, dtype=int)
    todo, width = np.arange(m), min(n, 4 * k)
    while todo.size:
        head = order[todo, :width]
        hit = candidate[head] & (np.arange(width) < n_finite[todo, None])
        rank = np.cumsum(hit, axis=1)
        rows, cols = np.nonzero(hit & (rank <= k))
        picks[todo[rows], rank[rows, cols] - 1] = head[rows, cols]
        found[todo] = np.minimum(rank[:, -1], k)
        if width == n:
            break
        todo = todo[(found[todo] < k) & (n_finite[todo] > width)]
        width = n
    return picks, found


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

    Distances are computed for a group of query rows at a time: squared
    differences added one numeric column at a time in schema order, counts
    and Hamming terms by gemm; neighbours are then picked per target column.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    # A row is never its own candidate, so no group reaches n_rows neighbours.
    k = min(k, table.n_rows)
    frame = _Frame(table, mask)
    num_obs = ~np.isnan(frame.num_norm)
    cat_obs = frame.cat_idx >= 0
    num_fill, cat_fill = frame.column_fills()

    num_cols = np.ascontiguousarray(frame.num_norm.T)  # nan: unobserved
    num_w, cat_w = num_obs.astype(np.float64), cat_obs.astype(np.float64)
    widths = [len(v) for v in frame.vocabularies]
    onehot = np.zeros((table.n_rows, sum(widths)))
    rows, slots = np.nonzero(cat_obs)
    onehot[rows, np.cumsum([0] + widths)[slots] + frame.cat_idx[rows, slots]] = 1.0

    # A row's distances do not depend on the target column, which is never
    # mutually observed; nor is a row ever a candidate for its own missing cells.
    queries = np.flatnonzero(~num_obs.all(axis=1) | ~cat_obs.all(axis=1))
    for first in range(0, queries.size, _KNN_GROUP_ROWS):
        group = queries[first : first + _KNN_GROUP_ROWS]
        d = np.zeros((group.size, table.n_rows))  # the Euclidean part first
        sq = np.empty_like(d)
        for col in num_cols:
            np.square(np.subtract(col[group, None], col, out=sq), out=sq)
            d += np.fmax(sq, 0.0, out=sq)  # nan (not both observed) adds +0
        np.sqrt(d, out=d)
        counts = num_w[group] @ num_w.T
        hamming = np.matmul(cat_w[group], cat_w.T, out=sq)  # shared categoricals
        counts += hamming
        d += np.subtract(hamming, onehot[group] @ onehot.T, out=hamming)  # minus equal ones
        with np.errstate(divide="ignore", invalid="ignore"):
            d /= counts
        d[counts == 0] = np.inf
        order, n_finite = _neighbour_order(d)
        for s, values in enumerate(frame.num_values.T):
            at = np.flatnonzero(~num_obs[group, s])
            picks, found = _nearest(order[at], n_finite[at], num_obs[:, s], k)
            full = found == k
            # Row sums of the (m, k) gather add in np.mean's order; shorter
            # groups take np.mean itself (its summation order depends on length).
            num_fill[group[at[full]], s] = values[picks[full]].sum(axis=1) / k
            for i in np.flatnonzero((found > 0) & ~full):
                num_fill[group[at[i]], s] = np.mean(values[picks[i, : found[i]]])
        for s, width in enumerate(widths):
            at = np.flatnonzero(~cat_obs[group, s])
            picks, found = _nearest(order[at], n_finite[at], cat_obs[:, s], k)
            rows, ranks = np.nonzero(picks >= 0)
            cells = rows * width + frame.cat_idx[picks[rows, ranks], s]
            tally = np.bincount(cells, minlength=at.size * width).reshape(at.size, width)
            has = found > 0
            cat_fill[group[at[has]], s] = tally[has].argmax(axis=1)  # ties: lowest code
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
    p_num = len(frame.numeric_cols)
    widths = [len(v) for v in frame.vocabularies]
    offsets = np.cumsum([p_num] + widths)

    # Working state in normalized space, initialized with mean/mode: the
    # design matrix holds the numeric slots, then each categorical's one-hot
    # block, and is updated in place after each column's prediction.
    design = np.zeros((n_rows, offsets[-1]))
    work_num = design[:, :p_num]  # view
    work_num[:] = frame.num_norm
    for s, col in enumerate(work_num.T):  # column views
        col[np.isnan(col)] = np.nanmean(frame.num_norm[:, s])
    work_cat = np.where(frame.cat_idx < 0, frame.column_fills()[1], frame.cat_idx)
    for s, offset in enumerate(offsets[:-1]):
        design[np.arange(n_rows), offset + work_cat[:, s]] = 1.0
    # Each column's design columns: its numeric slot or its one-hot block.
    blocks = {j: range(s, s + 1) for s, j in enumerate(frame.numeric_cols)}
    for s, j in enumerate(frame.categorical_cols):
        blocks[j] = range(offsets[s], offsets[s + 1])
    all_cols = np.arange(offsets[-1])

    schema_order = sorted(frame.numeric_cols + frame.categorical_cols)
    target_cols = [j for j in schema_order if not frame.observed[:, j].all()]

    def ridge_predict(x_train, y_train, x_all):
        """Centered closed-form ridge (the y mean when x has no columns); y may be 2-d."""
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
            # np.take, not design[:, keep]: BLAS results depend on the memory
            # layout, and np.take gives C-contiguous predictors.
            x = np.take(design, np.delete(all_cols, blocks[j]), axis=1)
            if j in frame.numeric_cols:
                s = frame.numeric_cols.index(j)
                new = ridge_predict(x[train_rows], frame.num_norm[train_rows, s], x)[missing_rows]
                deltas.extend(np.abs(new - work_num[missing_rows, s]).tolist())
                work_num[missing_rows, s] = new
            else:
                s = frame.categorical_cols.index(j)
                onehot = np.eye(widths[s])[frame.cat_idx[train_rows, s]]
                new = np.argmax(ridge_predict(x[train_rows], onehot, x)[missing_rows], axis=1)
                deltas.extend((new != work_cat[missing_rows, s]).astype(float).tolist())
                work_cat[missing_rows, s] = new
                design[missing_rows, blocks[j].start : blocks[j].stop] = 0.0
                design[missing_rows, blocks[j].start + new] = 1.0
        change = float(np.mean(deltas)) if deltas else 0.0
        changes.append(change)
        if change < config.tolerance:
            converged = True
            break

    num_fill = np.empty_like(work_num)
    for s, stats in enumerate(frame.num_stats):
        num_fill[:, s] = stats.denormalize(work_num[:, s])
    return frame.completed(num_fill, work_cat), changes, converged
