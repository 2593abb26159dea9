"""Tests for the package's public surface."""

import convexkit


def test_every_export_resolves():
    """Each name in ``__all__`` is bound on the package, so no export outlives its definition."""
    missing = [name for name in convexkit.__all__ if not hasattr(convexkit, name)]
    assert missing == []
