"""Loads every sweep JSON golden (sweep_*_json.txt) and Perfetto golden
(sweep_*_perfetto.json) in a directory with json.load. Exits nonzero when
one does not parse, or when there are none.

    python3 tools/check_json.py bench/golden
"""
import glob
import json
import os
import sys


def main(directory):
    files = sorted(glob.glob(os.path.join(directory, "sweep_*_json.txt")) +
                   glob.glob(os.path.join(directory, "sweep_*_perfetto.json")))
    if not files:
        print(f"no sweep JSON goldens in {directory}")
        return 1
    for path in files:
        try:
            with open(path, encoding="utf-8") as f:
                json.load(f)
        except ValueError as e:
            print(f"{path}: {e}")
            return 1
    print(f"{len(files)} files parse as JSON")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
