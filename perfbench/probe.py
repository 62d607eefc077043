"""Set-up probe: a fresh interpreter imports ``motoguard.cli`` and prints the time.

worker.py starts this script between timed passes, reads the system-wide
monotonic clock before each start, and takes the difference to the printed
value as one set-up sample: interpreter start plus the program's import,
which is everything the program does before its first pass. It must run
from the root of the repository.
"""

import sys
import time


def main() -> None:
    sys.path.insert(0, "src")
    import motoguard.cli

    print(repr(time.monotonic()))
    print(motoguard.cli.__file__)


if __name__ == "__main__":
    main()
