"""``python -m kleene_posets``: the same command line as ``kleene-posets``."""

import sys

from .cli import main

sys.exit(main())
