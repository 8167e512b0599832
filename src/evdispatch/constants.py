"""Shared numeric tolerances.

Money is represented as plain floats denominated in dollars. Every
comparison between money amounts anywhere in the package uses the single
absolute tolerance below, so that tests, invariant checks, and the CLI all
agree on what "equal" means.
"""

#: Absolute tolerance for money comparisons, in dollars.
MONEY_ATOL = 1e-9

