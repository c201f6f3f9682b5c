"""``python -m horizon_lab`` dispatches to the command line interface."""

from horizon_lab.cli import app

if __name__ == "__main__":
    app()
