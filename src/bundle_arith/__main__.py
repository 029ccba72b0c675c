"""``python -m bundle_arith``: the ``bundle-arith`` command."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
