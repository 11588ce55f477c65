"""Run the mtcalc command line: ``python -m mtcalc``."""
import sys

from mtcalc.cli_io import main

if __name__ == "__main__":
    sys.exit(main())
