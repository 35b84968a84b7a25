"""Hypothesis profiles.  ``--hypothesis-profile=ci`` draws the same
examples on every run and prints the blob that reproduces a failure, so a
red build fails the same way locally."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
