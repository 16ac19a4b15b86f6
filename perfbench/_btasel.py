"""Import btasel from this checkout's ``src/`` tree, never from elsewhere.

The benchmark measures the source next to it.  If that source is missing,
importing this module fails, so the benchmark exits without a result
instead of silently measuring an installed copy.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import btasel  # noqa: E402  (the package imports every submodule used here)

if not Path(btasel.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"btasel imported from {btasel.__file__}, not from {SRC}")
