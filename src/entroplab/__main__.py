import gc
import sys


def main() -> int:
    """The process entry of ``python -m entroplab`` and the ``entroplab`` script."""
    gc.disable()  # one command, then exit: collections would re-scan live data and free little
    from .cli import main as command
    code = command()
    gc.freeze()  # the interpreter still collects at shutdown, skipping frozen objects
    return code


if __name__ == "__main__":
    sys.exit(main())
