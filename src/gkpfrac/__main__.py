"""``python -m gkpfrac``: the command-line front end of ``gkpfrac.cli``."""
import sys

from .cli import main

sys.exit(main())
