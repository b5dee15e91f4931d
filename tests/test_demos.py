"""Every script in demos/ runs to completion against this checkout's package.

The demos call the public API the way a reader would, so a name they use
that goes away, or an assertion of theirs that stops holding, fails here.
Each runs in a fresh interpreter with src on PYTHONPATH, from an empty
working directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# each demo takes 1-3 s; the cap only stops a hung one
TIMEOUT_S = 300


def test_demos_are_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    assert done.returncode == 0, done.stderr[-2000:]
