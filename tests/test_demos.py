"""Every demo script runs from a bare checkout, warning-free, and prints
exactly its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout
STDOUT_SHA256 = {
    "01_partitions_and_durfee_symbols.py":
        "817e57bb1f63e5bce682a52b7756b5b06210fb05eac065bce249b2b2a2ec01f6",
    "02_unimodal_sequences_and_symbols.py":
        "16109cd79c73e7c791bd0758f1bd1c9398776ce4f39cf65467c19b21ff460e09",
    "03_marked_symbols_and_rank_series.py":
        "9eb7104820967ef2650dbe94122b51db94bed6417188b30f38ab04f549ed65ec",
    "04_self_conjugate_and_mock_theta.py":
        "9c709e1a49eac96cdab6575fd546a597d1200e3d953747626aa892a4ed1157e0",
    "05_roots_of_unity.py":
        "0d2e20ddb8cdd4df05e796f92657854106501a285257d8e66e73784eefd797e4",
}


def test_demos_found():
    assert sorted(demo.name for demo in _DEMOS) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    result = subprocess.run([sys.executable, "-W", "error", str(demo)], env=env,
                            cwd=_ROOT, capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.name]
