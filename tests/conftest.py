import sys
from pathlib import Path

# allow running the tests from a fresh checkout without installing, and let
# test modules import the shared marking oracle under any import mode
_TESTS = Path(__file__).resolve().parent
for _path in (_TESTS.parent / "src", _TESTS):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
