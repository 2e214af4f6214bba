"""Tests for the synthetic healthcare generator and the toy table."""

import numpy as np
import pytest

from qimpute.datasets import (
    DIAGNOSES,
    HEALTHCARE_SCHEMA,
    make_toy_table,
    synth_healthcare_generate,
)
from qimpute.tabular import ColumnKind, load_csv, save_csv


def test_full_scale_shape():
    data = synth_healthcare_generate(10_000, seed=0)
    assert data.table.n_rows == 10_000
    assert data.table.schema.n_columns == 20


def test_shape_and_column_split():
    data = synth_healthcare_generate(50, seed=4)
    assert data.table.n_rows == 50
    assert data.table.schema.n_columns == 20
    kinds = [c.kind for c in data.schema.columns]
    assert kinds.count(ColumnKind.NUMERIC) == 12
    assert kinds.count(ColumnKind.CATEGORICAL) == 6
    assert kinds.count(ColumnKind.TEXT) == 2


def test_mnar_rule_blood_pressure_missing_iff_stable():
    data = synth_healthcare_generate(500, seed=11)
    diag = HEALTHCARE_SCHEMA.index("diagnosis")
    bp = HEALTHCARE_SCHEMA.index("blood_pressure")
    for row in data.table.rows:
        if row[diag] == "stable":
            assert row[bp] is None
        else:
            assert row[bp] is not None


def test_truth_sidecar_is_complete():
    data = synth_healthcare_generate(200, seed=2)
    for row in data.truth.rows:
        assert all(v is not None for v in row)


def test_mnar_mask_alignment():
    data = synth_healthcare_generate(120, seed=6)
    bp = HEALTHCARE_SCHEMA.index("blood_pressure")
    got = {r for r in range(120) if data.table.rows[r][bp] is None}
    expected = set(np.flatnonzero(data.mnar_mask.matrix[:, bp]).tolist())
    assert got == expected
    # nothing else masked
    other = data.mnar_mask.matrix.copy()
    other[:, bp] = False
    assert not other.any()


def test_generator_deterministic():
    a = synth_healthcare_generate(80, seed=13)
    b = synth_healthcare_generate(80, seed=13)
    assert a.truth.content_hash() == b.truth.content_hash()
    assert a.table.content_hash() == b.table.content_hash()
    c = synth_healthcare_generate(80, seed=14)
    assert a.truth.content_hash() != c.truth.content_hash()


# (truth, working table, MNAR mask) digests of the generator's output: a
# reordered draw, a changed cell or a moved hole changes one of them.
PINNED_DIGESTS = {
    (50, 0): (
        "3d0b82b064e007a0d8b3d254cf8e3d6e769f0fc587b24b4e1340f5208dc3a696",
        "fa046f1980c501d1af7dfe8176b6d06a049d180d54ed6c302bb63104378a6ef0",
        "08b91a03845c16d4a9533ef428c45472725e0da31df11a977e6da3c8b97cebb1",
    ),
    (1000, 3): (
        "760eaeffd1527d53b52ab43006b620b4b1de0157b435fe3020d3a8c6f979cec4",
        "a471283541cdcb3e6d52d23ac9c1a26144a7950a4b3dbf95deb25cf5dd170268",
        "6a15927f0c7c0d0e4b57c0de8950b52d38404cdbb2ea4731882326d70231156d",
    ),
}


@pytest.mark.parametrize("n_rows, seed", sorted(PINNED_DIGESTS))
def test_generator_output_matches_pinned_digests(n_rows, seed):
    data = synth_healthcare_generate(n_rows, seed=seed)
    digests = (data.truth.content_hash(), data.table.content_hash(), data.mnar_mask.content_hash())
    assert digests == PINNED_DIGESTS[n_rows, seed]


def test_class_conditional_heart_rate_separation():
    data = synth_healthcare_generate(1500, seed=1)
    diag = HEALTHCARE_SCHEMA.index("diagnosis")
    hr = HEALTHCARE_SCHEMA.index("heart_rate")
    stable = [r[hr] for r in data.truth.rows if r[diag] == "stable"]
    critical = [r[hr] for r in data.truth.rows if r[diag] == "critical"]
    pooled_std = np.sqrt((np.var(stable) + np.var(critical)) / 2)
    assert np.mean(critical) - np.mean(stable) >= 2 * pooled_std


def test_diagnosis_values_only_expected():
    data = synth_healthcare_generate(300, seed=8)
    diag = HEALTHCARE_SCHEMA.index("diagnosis")
    assert {r[diag] for r in data.truth.rows} <= set(DIAGNOSES)


def test_generated_round_trip(tmp_path):
    data = synth_healthcare_generate(60, seed=3)
    path = tmp_path / "hc.csv"
    save_csv(data.table, path)
    back = load_csv(path, HEALTHCARE_SCHEMA)
    assert back.content_hash() == data.table.content_hash()


def test_toy_table_structure():
    table = make_toy_table(n_rows=50, seed=7)
    assert table.n_rows == 50
    for row in table.rows:
        x1 = row[0]
        assert row[1] == 0.8 * x1 + 0.1
        assert row[2] == 1.0 - x1
        assert row[3] == ("hi" if x1 > 0.5 else "lo")
    assert make_toy_table(50, 7).content_hash() == table.content_hash()
