"""`python -m covsearch` and the installed `covsearch` command."""

import os

from .blas import THREAD_VARS


def main() -> None:
    """Run the command line with OpenBLAS on one thread from the start.

    OpenBLAS starts its worker threads when numpy loads, and an idle
    worker spins for a while. So unless the user set one of the
    variables OpenBLAS reads, the count goes into the environment before
    `.cli` imports numpy: the same rule `blas.single_blas_thread`
    applies to in-process callers.
    """
    if not any(os.environ.get(var) for var in THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import entry

    entry()


if __name__ == "__main__":
    main()
