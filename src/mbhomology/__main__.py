"""`python -m mbhomology` runs the command line."""

from .cli import console_main

console_main()
