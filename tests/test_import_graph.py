"""What importing the package loads."""

import os
import subprocess
import sys

import countfam

# scipy.integrate alone pulls in optimize, linalg, sparse, fft and spatial,
# about 0.4 s of every command's start-up
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse")


def test_import_loads_no_heavy_scipy_module():
    src = os.path.dirname(os.path.dirname(os.path.abspath(countfam.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, countfam, countfam.cli; print('\\n'.join(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = out.stdout.split()
    assert "countfam.cli" in loaded
    heavy = [m for m in loaded if any(m == h or m.startswith(h + ".") for h in HEAVY)]
    assert heavy == []
