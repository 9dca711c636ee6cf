"""Test-wide Hypothesis settings.

Property tests run without a per-example deadline: on a small shared host
one slow example is scheduling noise, not a defect. Each test still sets
its own max_examples.
"""

from hypothesis import settings

settings.register_profile("stereosim", deadline=None)
settings.load_profile("stereosim")
