"""``python -m qmf``: the ``qmf`` command line."""

from .cli_io import main

__all__: list = []

if __name__ == "__main__":
    main()
