"""The package's public surface: every exported name resolves."""
import cecreuse


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from cecreuse import *", namespace)
    missing = [name for name in cecreuse.__all__ if name not in namespace]
    assert not missing
    assert len(set(cecreuse.__all__)) == len(cecreuse.__all__)
