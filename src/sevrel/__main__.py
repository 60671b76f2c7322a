"""`python -m sevrel`: the same command line as the `sevrel` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
