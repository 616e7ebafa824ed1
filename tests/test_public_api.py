"""The package's public names: what ``__all__`` promises is there."""

import fsmcheck


def test_every_public_name_resolves():
    assert len(set(fsmcheck.__all__)) == len(fsmcheck.__all__)
    assert [name for name in fsmcheck.__all__ if not hasattr(fsmcheck, name)] == []


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from fsmcheck import *", namespace)
    assert set(fsmcheck.__all__) <= namespace.keys()
