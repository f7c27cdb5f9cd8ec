"""Default size caps for desk-scale use.

All enumerations are exact and in-memory, so each one is guarded by a cap.
Every function taking a cap accepts an override argument; the CLI exposes
``--max-elements`` / ``--max-gamma`` and the ``RELSYM_MAX_ELEMENTS``
environment variable.
"""

# Largest number of exponent vectors enumerate_gamma will materialize.
MAX_GAMMA = 10_000_000

# Largest permutation group order PermutationGroup will close over.
MAX_GROUP_ORDER = 1_000_000

# Largest symmetric group degree for which a full character table is built.
MAX_CHARACTER_TABLE_M = 12

# Environment variable mirroring --max-elements.
MAX_ELEMENTS_ENV = "RELSYM_MAX_ELEMENTS"
