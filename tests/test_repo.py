import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True)


def test_no_tracked_file_is_ignored():
    # build output and generated files listed in .gitignore must not be committed
    if shutil.which("git") is None or _git("rev-parse", "--git-dir").returncode != 0:
        pytest.skip("not a git checkout")
    proc = _git("ls-files", "-ci", "--exclude-standard")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
