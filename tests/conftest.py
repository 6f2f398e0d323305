"""Hypothesis profiles, chosen by the HYPOTHESIS_PROFILE environment variable.

"default" runs 120 examples per property that does not set its own count
(the screen and certificate properties); "deep" runs 2000, a search long
enough to reach rounding cases that 120 random examples rarely do.
Properties that set max_examples themselves keep their count under both.
"""

import os

from hypothesis import settings

settings.register_profile("default", max_examples=120)
settings.register_profile("deep", max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
