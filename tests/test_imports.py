import os
import pkgutil
import subprocess
import sys

import meshmoe

# Imports each module into a fresh `meshmoe` namespace, so that a cycle
# shows up whichever module a caller happens to import first.
FIRST_IMPORTS = """
import importlib, pkgutil, sys
import meshmoe
for name in sorted(m.name for m in pkgutil.iter_modules(meshmoe.__path__)):
    for key in [k for k in sys.modules if k.startswith("meshmoe")]:
        del sys.modules[key]
    importlib.import_module(f"meshmoe.{name}")
    print(name)
"""


def test_every_module_imports_first_without_a_cycle():
    src = os.path.dirname(os.path.dirname(meshmoe.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", FIRST_IMPORTS], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == sorted(
        m.name for m in pkgutil.iter_modules(meshmoe.__path__))
