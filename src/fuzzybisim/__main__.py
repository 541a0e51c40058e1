"""``python -m fuzzybisim``: the command-line front end."""
from .cli import main
main()
