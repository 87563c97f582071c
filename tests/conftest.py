"""Shared test settings."""

from hypothesis import settings

# Five times hypothesis's default of 100 examples, for the tests that take
# their example count from the active profile: pytest --hypothesis-profile=ci
settings.register_profile("ci", max_examples=500)
