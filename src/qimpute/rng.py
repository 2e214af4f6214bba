"""Named random substreams derived from a single root seed.

Every source of randomness in the pipeline (data generation, mask
injection, weight init, epoch shuffling, supervision masking, projection
matrices) draws from its own stream so that, e.g., changing the number of
training epochs never perturbs the injected mask. Streams are derived via
``numpy.random.SeedSequence`` and are reproducible bitwise across runs.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# Stream identifiers. Values are part of the reproducibility contract:
# renumbering them changes every seeded result.
DATAGEN = 0
MASK = 1
INIT = 2
SHUFFLE = 3
SUPERVISION = 4
PROJECTION = 5
EMBED = 6


def substream(seed: int, stream: int, *extra: int) -> np.random.Generator:
    """Generator for the given (seed, stream) pair, plus optional extra keys.

    ``extra`` lets callers split one stream further, e.g. one projection
    matrix per column: ``substream(seed, PROJECTION, column_index)``.
    """
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([seed, stream, *extra]))
