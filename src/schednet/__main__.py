"""``python -m schednet``: the command-line interface."""

from .cli import entry

entry()
