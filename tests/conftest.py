"""Test-suite settings shared by every test module."""

from hypothesis import settings

# Draw the same examples on every run, local or CI, so a property's verdict on
# a given tree is reproducible.  A derandomized profile has no example
# database either, so no failure saved by an earlier run is replayed.
settings.register_profile("reproducible", derandomize=True)
settings.load_profile("reproducible")
