"""The package's public surface."""

import prehomog


def test_every_public_name_resolves():
    missing = [name for name in prehomog.__all__ if not hasattr(prehomog, name)]
    assert missing == []
    assert len(set(prehomog.__all__)) == len(prehomog.__all__)
