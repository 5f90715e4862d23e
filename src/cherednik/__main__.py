"""``python -m cherednik``: the same command line as ``cherednik``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
