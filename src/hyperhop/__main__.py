"""``python -m hyperhop``: the command line interface, as the ``hyperhop`` script."""

from hyperhop.cli import entrypoint

if __name__ == "__main__":
    entrypoint()
