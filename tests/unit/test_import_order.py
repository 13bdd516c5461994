"""Every ``repro.*`` package must import first, in a fresh interpreter.

The suite as a whole cannot see an import cycle: whichever test module is
collected first fixes the import order for everything after it (tier-1 used
to pass only because ``tests/integration`` came first; ``from repro.bdd
import BDDManager`` on its own raised ``ImportError`` through
``bdd.manager -> obs -> obs.explain -> provenance -> bdd.manager``).  One
child interpreter per package makes each of them the first import once.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

PACKAGES = sorted(
    f"repro.{module.name}" for module in pkgutil.iter_modules(repro.__path__) if module.ispkg
)


def test_the_package_list_is_not_empty():
    assert "repro.bdd" in PACKAGES and "repro.obs" in PACKAGES


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_first_in_a_fresh_interpreter(package):
    src = os.path.dirname(list(repro.__path__)[0])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
