"""Tests for the package's public surface."""

import regenext


def test_every_exported_name_resolves():
    missing = [name for name in regenext.__all__ if not hasattr(regenext, name)]
    assert missing == []
    assert len(set(regenext.__all__)) == len(regenext.__all__)
