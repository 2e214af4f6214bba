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
    (code -1). The arrays are read-only, so one frame can serve every
    baseline run on the same table and mask.
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
        for array in (self.observed, self.num_values, self.num_norm, self.cat_idx):
            array.flags.writeable = False

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


def mean_mode_impute(table: Table, mask: Mask) -> Table:
    """Numeric missing cells get the observed column mean, categorical the mode."""
    return _mean_mode(_Frame(table, mask))


def _mean_mode(frame: _Frame) -> Table:
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
    and Hamming terms by gemm. The neighbours of every (query row, target
    column) pair of the group are then picked in one pass over a short
    prefix of the rows' orders; only pairs left short of k scan the whole
    order.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    return _knn(_Frame(table, mask), k)


def _knn(frame: _Frame, k: int) -> Table:
    n_rows = frame.table.n_rows
    # A row is never its own candidate, so no group reaches n_rows neighbours.
    k = min(k, n_rows)
    # Target columns: the numeric slots, then the categorical ones.
    observed = frame.observed[:, frame.numeric_cols + frame.categorical_cols]
    p_num = len(frame.numeric_cols)
    num_obs, cat_obs = observed[:, :p_num], observed[:, p_num:]
    num_fill, cat_fill = frame.column_fills()

    num_cols = np.ascontiguousarray(frame.num_norm.T)  # nan: unobserved
    num_w, cat_w = num_obs.astype(np.float64), cat_obs.astype(np.float64)
    widths = [len(v) for v in frame.vocabularies]
    top = max(widths, default=1)  # every column's codes fit, and padding counts stay 0
    onehot = np.zeros((n_rows, sum(widths)))
    rows, slots = np.nonzero(cat_obs)
    onehot[rows, np.cumsum([0] + widths)[slots] + frame.cat_idx[rows, slots]] = 1.0

    # A row's distances do not depend on the target column, which is never
    # mutually observed; nor is a row ever a candidate for its own missing cells.
    queries = np.flatnonzero(~observed.all(axis=1))
    for first in range(0, queries.size, _KNN_GROUP_ROWS):
        group = queries[first : first + _KNN_GROUP_ROWS]
        d = np.zeros((group.size, n_rows))  # the Euclidean part first
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

        # picks[i, s]: the first k rows of order[i] that are finite and
        # observed in target s, padded with -1; found[i, s]: how many. Each
        # order's prefix is read first, and the whole order only by the pairs
        # that found fewer than k there while finite distances remain.
        need = ~observed[group]
        picks = np.full(need.shape + (k,), -1)
        found = np.zeros(need.shape, dtype=int)
        pairs = np.nonzero(need)
        for width in (min(n_rows, 4 * k), n_rows):
            # No (pairs, width) array outgrows the (64, n_rows) distances.
            step = _KNN_GROUP_ROWS * n_rows // width
            for start in range(0, pairs[0].size, step):
                i, s = (p[start : start + step] for p in pairs)
                head = order[i, :width]
                hit = observed[head, s[:, None]] & (np.arange(width) < n_finite[i, None])
                rank = np.cumsum(hit, axis=1)
                a, r = np.nonzero(hit & (rank <= k))
                picks[i[a], s[a], rank[a, r] - 1] = head[a, r]
                found[i, s] = np.minimum(rank[:, -1], k)
            pairs = np.nonzero(need & (found < k) & (n_finite[:, None] > width))

        i, s = np.nonzero(need[:, :p_num])
        values = frame.num_values[picks[i, s], s[:, None]]  # (pairs, k); a -1 pick is unused
        full = found[i, s] == k
        # Row sums of the (pairs, k) gather add in np.mean's order; shorter
        # groups take np.mean itself (its summation order depends on length).
        num_fill[group[i[full]], s[full]] = values[full].sum(axis=1) / k
        for a in np.flatnonzero((found[i, s] > 0) & ~full):
            num_fill[group[i[a]], s[a]] = np.mean(values[a, : found[i[a], s[a]]])

        i, s = np.nonzero(need[:, p_num:])
        cat_picks, cat_found = picks[i, p_num + s], found[i, p_num + s]
        pair, ranks = np.nonzero(cat_picks >= 0)
        codes = frame.cat_idx[cat_picks[pair, ranks], s[pair]]
        tally = np.bincount(pair * top + codes, minlength=i.size * top).reshape(i.size, top)
        has = cat_found > 0
        cat_fill[group[i[has]], s[has]] = tally[has].argmax(axis=1)  # ties: lowest code
    return frame.completed(num_fill, cat_fill)


def iterative_ridge_impute(table: Table, mask: Mask, config: BaselineConfig) -> Table:
    """Chained closed-form ridge sweeps; see :func:`iterative_ridge_with_trace`."""
    return iterative_ridge_with_trace(table, mask, config)[0]


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
    return _ridge(_Frame(table, mask), config)


def _ridge(frame: _Frame, config: BaselineConfig) -> tuple[Table, list[float], bool]:
    n_rows = frame.table.n_rows
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
    all_cols = np.arange(offsets[-1])

    # What no sweep changes, per incomplete column in schema order: its slot,
    # missing and training rows, own design columns (its numeric slot or
    # one-hot block), its predictors' design columns and its centered target.
    plans = []
    for j in sorted(frame.numeric_cols + frame.categorical_cols):
        observed = frame.observed[:, j]
        if observed.all():
            continue
        train_rows = np.flatnonzero(observed)
        if j in frame.numeric_cols:
            s = frame.numeric_cols.index(j)
            block, y = range(s, s + 1), frame.num_norm[train_rows, s]
        else:
            s = frame.categorical_cols.index(j)
            block = range(offsets[s], offsets[s + 1])
            y = np.eye(widths[s])[frame.cat_idx[train_rows, s]]
        y_mean = y.mean(axis=0)
        plans.append((s, np.flatnonzero(~observed), train_rows, block,
                      np.delete(all_cols, block), y_mean, y - y_mean))

    changes: list[float] = []
    converged = False
    for _ in range(config.max_sweeps):
        deltas: list[np.ndarray] = []
        for s, missing_rows, train_rows, block, keep, y_mean, yc in plans:
            # Centered closed-form ridge (the y mean when x has no columns).
            # np.take, not design[:, keep]: BLAS results depend on the memory
            # layout, and np.take gives C-contiguous predictors.
            x = np.take(design, keep, axis=1)
            x_train = x[train_rows]
            x_mean = x_train.mean(axis=0)
            xc = x_train - x_mean
            gram = xc.T @ xc + config.ridge_lambda * np.eye(keep.size)
            beta = np.linalg.solve(gram, xc.T @ yc)
            predicted = (y_mean + (x - x_mean) @ beta)[missing_rows]
            if block.start < p_num:  # a numeric slot
                deltas.append(np.abs(predicted - work_num[missing_rows, s]))
                work_num[missing_rows, s] = predicted
            else:
                new = np.argmax(predicted, axis=1)
                deltas.append((new != work_cat[missing_rows, s]).astype(float))
                work_cat[missing_rows, s] = new
                design[missing_rows, block.start : block.stop] = 0.0
                design[missing_rows, block.start + new] = 1.0
        change = float(np.mean(np.concatenate(deltas))) if deltas else 0.0
        changes.append(change)
        if change < config.tolerance:
            converged = True
            break

    num_fill = np.empty_like(work_num)
    for s, stats in enumerate(frame.num_stats):
        num_fill[:, s] = stats.denormalize(work_num[:, s])
    return frame.completed(num_fill, work_cat), changes, converged
