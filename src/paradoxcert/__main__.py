"""``python -m paradoxcert``: the same command line as ``paradoxcert``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
