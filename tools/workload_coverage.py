"""Workload coverage of src/: which simulator lines and functions the
workloads run. Reads the `gcov -j` JSON files (*.gcov.json.gz) of a
--coverage build after `ctest -L 'golden|example'` (every figure, ext and
ablation binary, every pinned sweep command and every example), merges the
counts of every object and template instantiation, and prints the hit and
instrumented src/ lines plus the src/ functions that ran zero times.

    python3 tools/workload_coverage.py <dir of *.gcov.json.gz> [--root <repo>]

The recipe that produces the JSON is in EXPERIMENTS.md ("Workload
coverage"). A template that is never instantiated emits no code, so it is
invisible here: grep for callers as well.
"""
import argparse
import glob
import gzip
import json
import os
import sys


def load(directory):
    paths = sorted(glob.glob(os.path.join(directory, "**", "*.gcov.json.gz"),
                             recursive=True))
    for path in paths:
        with gzip.open(path, "rt", encoding="utf-8") as f:
            yield json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("gcov_dir")
    ap.add_argument("--root", default=os.getcwd(),
                    help="repository root (default: the working directory)")
    args = ap.parse_args()
    src = os.path.join(os.path.realpath(args.root), "src") + os.sep

    lines = {}  # (file, line) -> summed count
    funcs = {}  # (file, start line) -> [summed calls, name]
    n_reports = 0
    for report in load(args.gcov_dir):
        n_reports += 1
        cwd = report.get("current_working_directory", "")
        for f in report["files"]:
            path = os.path.realpath(os.path.join(cwd, f["file"]))
            if not path.startswith(src):
                continue
            rel = os.path.relpath(path, os.path.dirname(src.rstrip(os.sep)))
            for ln in f["lines"]:
                key = (rel, ln["line_number"])
                lines[key] = lines.get(key, 0) + ln["count"]
            for fn in f["functions"]:
                key = (rel, fn["start_line"])
                entry = funcs.setdefault(key, [0, fn.get("demangled_name", fn["name"])])
                entry[0] += fn["execution_count"]
    if n_reports == 0:
        print(f"no *.gcov.json.gz under {args.gcov_dir}")
        return 1

    hit = sum(1 for c in lines.values() if c > 0)
    total = len(lines)
    pct = 100.0 * hit / total if total else 0.0
    print(f"src lines: {hit}/{total} hit ({pct:.1f}%)")
    unrun = sorted((k, v[1]) for k, v in funcs.items() if v[0] == 0)
    print(f"src functions with zero calls: {len(unrun)} of {len(funcs)}")
    for (rel, line), name in unrun:
        print(f"  {rel}:{line}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
