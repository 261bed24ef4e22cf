"""Hypothesis profiles. ``HYPOTHESIS_PROFILE=ci`` runs ten times the default
number of examples in the property tests that leave that number to the
profile (those that set ``max_examples`` themselves keep it). Unset, the
default profile holds."""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
