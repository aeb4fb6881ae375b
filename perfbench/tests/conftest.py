"""Make ``perfbench`` and the program under ``src/`` importable.

Run explicitly — ``python -m pytest perfbench/tests`` — these are not in
tier-1's ``testpaths``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
