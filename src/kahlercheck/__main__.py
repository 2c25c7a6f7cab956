"""``python -m kahlercheck``: the command line of :mod:`kahlercheck.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
