"""Shared pytest set-up: a reproducible hypothesis profile for CI.

With the ``CI`` environment variable set, property tests draw their
examples deterministically (``derandomize``), have no per-example deadline
on slow runners and print the blob that reproduces a failure.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
