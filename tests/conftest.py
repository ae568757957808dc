import os
import sys
from pathlib import Path

# allow running the tests from a fresh checkout without installing, and let
# test modules import the shared marking oracle under any import mode; a
# `qranks` on an explicit PYTHONPATH (a mutated copy, say) is the one tested
_TESTS = Path(__file__).resolve().parent
_paths = [_TESTS]
if not any((Path(entry) / "qranks").is_dir()
           for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry):
    _paths.insert(0, _TESTS.parent / "src")
for _path in _paths:
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
