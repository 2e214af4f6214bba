"""From raw mixed-type cells to embedding vectors, under all three variants.

Run with: python demos/02_cell_encoding.py
"""

import numpy as np

from qimpute import (
    CellEmbedder,
    ColumnKind,
    ColumnSpec,
    DatasetSchema,
    EmbedderVariant,
    Table,
    encode_column,
    fit_preprocessor,
    text_embed_hashing,
)

schema = DatasetSchema(
    (
        ColumnSpec("heart_rate", ColumnKind.NUMERIC),
        ColumnSpec("ward", ColumnKind.CATEGORICAL),
        ColumnSpec("note", ColumnKind.TEXT),
    ),
    name="demo",
)
table = Table(
    schema,
    [
        [62.0, "general", "resting comfortably"],
        [88.0, "icu", "needs continuous monitoring"],
        [None, "general", "resting comfortably today"],
        [119.0, "icu", None],
    ],
)

# Fitting uses observed cells only: numeric min/max, categorical vocabulary
# in first-appearance order, per-dimension text ranges.
stats = fit_preprocessor(table, schema)
hr = stats.for_column("heart_rate")
print(f"heart_rate range: [{hr.vmin}, {hr.vmax}]")
print("ward vocabulary:", stats.for_column("ward").vocabulary)

# Cells are encoded one column at a time. Numeric cells map affinely onto
# [0, pi]; categoricals become pi-scaled one-hots; text goes through
# deterministic hashed bag-of-words.
print("\nclassical feature vectors:")
print("  62, 119 bpm ->", encode_column([62.0, 119.0], ColumnKind.NUMERIC, hr).ravel())
ward = stats.for_column("ward")
print("  'icu'  ->", encode_column(["icu"], ColumnKind.CATEGORICAL, ward)[0])
print("  hashing('resting comfortably', dim=8) ->",
      np.round(text_embed_hashing("resting comfortably", 8), 3))

# The three variants share one embedding width so the downstream model
# never changes shape when you swap them.
for variant in (EmbedderVariant.QUANTUM_IQP, EmbedderVariant.RANDOM_PROJECTION):
    embedder = CellEmbedder(schema, stats, variant, seed=7, n_qubits=4, n_layers=2)
    vec = embedder.embed(1, 0, 88.0)
    print(f"\n{variant.value} embedding of 88 bpm:", np.round(vec, 4))
    if variant == EmbedderVariant.QUANTUM_IQP:
        assert np.all(np.abs(vec) <= 1.0)  # Z expectations always in [-1, 1]

# The trainable MLP variant has no fixed embedding: its perceptron weights
# live in the model and train jointly, so its embed_table returns the model
# input, the classical vectors zero-padded to one width.
mlp = CellEmbedder(schema, stats, EmbedderVariant.CLASSICAL_MLP, seed=7, n_qubits=4)
features = mlp.embed_table(table)
print("\nclassical-MLP input tensor shape (rows, columns, padded width):", features.shape)
