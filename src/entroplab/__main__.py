import gc
import sys

# One command, then exit: the cyclic collector would re-scan live data and free little.
gc.disable()

from .cli import main  # noqa: E402

sys.exit(main())
