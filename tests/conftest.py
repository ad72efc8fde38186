"""Hypothesis profiles.

``ci`` draws the same examples on every run and prints the blob that
replays a failure, so a fuzz failure in a CI log can be reproduced; select
it with ``--hypothesis-profile=ci``.  Without that option Hypothesis keeps
its default profile.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
