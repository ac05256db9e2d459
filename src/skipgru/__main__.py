"""``python -m skipgru``: the command-line interface of ``skipgru.cli``."""

from .cli import entry

if __name__ == "__main__":
    entry()
