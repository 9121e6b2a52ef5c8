"""Hypothesis settings shared by every test module."""

from hypothesis import settings

# No per-example deadline: under load one example of a fast property took
# 278 ms, past hypothesis' default 200 ms, and failed its test as FlakyFailure.
# Each test keeps its own max_examples.
settings.register_profile("overhang", deadline=None)
settings.load_profile("overhang")
