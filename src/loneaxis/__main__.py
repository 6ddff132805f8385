"""``python -m loneaxis``: the ``loneaxis`` command line."""

import sys

from .cli import main

sys.exit(main())
