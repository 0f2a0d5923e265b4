"""Seeded benchmark of the lstmgrid simulator: host speed and bit-exactness.

Usage, from the repository root:

    python3 perfbench/run.py --workload stacked_3x480 --seed 1 \\
        --seconds 20 --trace 0

The library is imported from this checkout's `src/` and from nowhere
else; without it the command exits 2 and prints no result.  See
`bench.py` for what one op is and what is measured.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
EXIT_NO_LIBRARY = 2


def import_library():
    if not os.path.isfile(os.path.join(SRC, "lstmgrid", "__init__.py")):
        raise ImportError("no lstmgrid package under %s" % SRC)
    sys.path.insert(0, SRC)
    import lstmgrid
    if os.path.dirname(os.path.abspath(lstmgrid.__file__)) != \
            os.path.join(SRC, "lstmgrid"):
        raise ImportError("lstmgrid resolved to %s" % lstmgrid.__file__)


def main(argv=None):
    try:
        import_library()
    except ImportError as exc:
        sys.stderr.write("perfbench: cannot import the library: %s\n" % exc)
        return EXIT_NO_LIBRARY
    import bench
    return bench.main(argv, ROOT)


if __name__ == "__main__":
    sys.exit(main())
