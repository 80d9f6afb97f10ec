"""Every demo script runs to completion, under this interpreter's -X dev
and -W options when it has them."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_exits_0(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    flags = ["-X", "dev"] if sys.flags.dev_mode else []
    flags += [f"-W{option}" for option in sys.warnoptions]
    result = subprocess.run(
        [sys.executable, *flags, str(demo)], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
