"""The package's public names: every name in `__all__` exists, so a deleted
export that stays listed fails here rather than in `from orthofix import *`."""

import orthofix


def test_every_public_name_resolves():
    missing = [name for name in orthofix.__all__ if not hasattr(orthofix, name)]
    assert missing == []
    assert len(set(orthofix.__all__)) == len(orthofix.__all__)
    namespace: dict = {}
    exec("from orthofix import *", namespace)
    assert set(orthofix.__all__) <= namespace.keys()
