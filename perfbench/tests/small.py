"""Scaled-down inputs for the self-tests (same generators, tiny sizes)."""

import inputs

SMALL = {
    "evolve": lambda seed: inputs.evolve_spec(
        seed, relations=12, views_per_relation=3, spare=4, batches=6,
        churn_per_batch=2,
    ),
    "maintain": lambda seed: inputs.maintain_spec(seed, batches=30, keys=20),
    "serve_mixed": lambda seed: inputs.serve_spec(seed, seconds=2.0, views=20),
}
