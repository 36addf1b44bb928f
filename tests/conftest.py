"""Hypothesis profiles: `ci` derandomizes, so a red property test reproduces.

Select one with HYPOTHESIS_PROFILE=ci; the default profile is Hypothesis'
own.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
