"""``python -m repro.cli``: run the command line (see :mod:`repro.cli`)."""

import sys

from . import main

if __name__ == "__main__":
    sys.exit(main())
