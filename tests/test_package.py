"""The package's public surface."""

from __future__ import annotations

from collections import Counter

import evdispatch


def test_every_export_resolves_and_appears_once():
    """A function deleted from a module must leave no dangling export."""
    names = evdispatch.__all__
    assert [n for n, count in Counter(names).items() if count > 1] == []
    assert [n for n in names if not hasattr(evdispatch, n)] == []
