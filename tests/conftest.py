"""Shared test settings."""

from hypothesis import Phase, settings

# Five times hypothesis's default of 100 examples, for the tests that take
# their example count from the active profile: pytest --hypothesis-profile=ci.
# It skips shrinking, so a failure is reported in seconds with the example as
# generated; the default profile still shrinks it to a minimal one.
settings.register_profile("ci", max_examples=500,
                          phases=[phase for phase in Phase if phase is not Phase.shrink])
