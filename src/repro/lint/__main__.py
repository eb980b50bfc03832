"""``python -m repro.lint`` — run the project rule set over a tree.

Exit codes: 0 = clean, 1 = findings, 2 = usage or internal error.
"""

from __future__ import annotations

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
