"""`python -m harmlab`: the same entry point as the `harmlab` console script."""

from .cli import main

if __name__ == "__main__":
    main()
