"""``python -m ramseykit``: the same command line as the ``ramseykit`` script."""

import sys

from .cli import main

sys.exit(main())
