"""``python -m polyperim``: the command-line front end of :mod:`polyperim.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
