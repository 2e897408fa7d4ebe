"""Entry point for ``python -m spheretail``."""

from .cli import main

main()
