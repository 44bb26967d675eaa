"""``python -m qkdsim``: the same command line as the installed ``qkdsim`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
