"""Hypothesis profiles.

The drawn-config properties (test names containing "drawn") take
max(500, max_examples) draws; the "drawn-large" profile runs them at 2000:

    PYTHONPATH=src python -m pytest -q -k drawn --hypothesis-profile=drawn-large
"""

from hypothesis import settings

settings.register_profile("drawn-large", max_examples=2000)
