"""``python -m graphck``: the command-line front end without an installed script."""

import sys

from .cli import main

sys.exit(main())
