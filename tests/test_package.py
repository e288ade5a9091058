"""The package's public names: each export resolves, and a star import runs."""

import k3m20


def test_every_public_name_resolves():
    for name in k3m20.__all__:
        assert hasattr(k3m20, name), name


def test_star_import_runs():
    namespace = {}
    exec("from k3m20 import *", namespace)
    assert set(k3m20.__all__) <= namespace.keys()
