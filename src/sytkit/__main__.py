"""Run the command line as ``python -m sytkit``."""
from .cli import main
main()
