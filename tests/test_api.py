"""The package's public surface: every exported name resolves, and
importing it needs numpy alone."""
import subprocess
import sys

import cecreuse

from conftest import package_env


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from cecreuse import *", namespace)
    missing = [name for name in cecreuse.__all__ if name not in namespace]
    assert not missing
    assert len(set(cecreuse.__all__)) == len(cecreuse.__all__)


def test_import_loads_no_scipy():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, cecreuse; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=package_env(), check=True, capture_output=True, text=True, timeout=120).stdout
    assert out == "[]\n"
