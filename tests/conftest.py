"""Hypothesis profiles: `ci` derandomizes, so a red property test reproduces;
`mutants` (used by tests/mutants.py) also skips shrinking and the example
database, since it only asks whether a test turns red.

Select one with HYPOTHESIS_PROFILE=ci; the default profile is Hypothesis'
own.
"""

import os

from hypothesis import Phase, settings

settings.register_profile("ci", derandomize=True)
settings.register_profile(
    "mutants", derandomize=True, database=None, phases=[Phase.explicit, Phase.generate]
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
