"""Set-up probe, run in a fresh interpreter: import horizon_lab, parse a
config and build its field, then print the elapsed seconds.

Usage: python3 probe_setup.py <src dir> <config path>
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    src, config_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    from horizon_lab.cli import build_field_from_config
    from horizon_lab.config import parse_config

    build_field_from_config(parse_config(Path(config_path).read_bytes()))
    print(repr(time.perf_counter() - _START))


if __name__ == "__main__":
    main()
