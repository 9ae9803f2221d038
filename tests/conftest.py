"""Test-wide settings: every Hypothesis property draws the same examples on
every run and has no per-example deadline, so a loaded host cannot make the
suite fail by chance. A test's own @settings still sets its example count."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
