"""Import odsched from the checkout's ``src/`` and nowhere else.

Imported first by the benchmark's entry points.  Exits with status 1, and
prints no result, when the checkout holds no odsched sources.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
try:
    import odsched
except ImportError as exc:
    sys.exit(f"perfbench: cannot import odsched from {SRC}: {exc}")
if not Path(odsched.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"perfbench: odsched was imported from {odsched.__file__}, not {SRC}")
