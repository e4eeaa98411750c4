#!/usr/bin/env python3
"""Smoke test of the sampling profiler: runs a figure binary with the sampler
preloaded and checks what cannot vary from run to run.

  smoke.py <libsampler.so> <binary> <golden stdout>

The binary's stdout must still match its golden byte for byte (sampling is
invisible to the simulation), the sample file must end with the saved
/proc/self/maps, and resolve.py must print both profiles. The number of
samples is not checked: it depends on the host's load.
"""

import os
import subprocess
import sys
import tempfile


def main():
    lib, binary, golden = sys.argv[1:4]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sampler.out")
        env = dict(os.environ, LD_PRELOAD=lib, SAMPLER_OUT=out, SAMPLER_HZ="2000")
        run = subprocess.run([binary], env=env, capture_output=True, check=True)
        with open(golden, "rb") as f:
            if run.stdout != f.read():
                print("stdout differs from %s under the sampler" % golden)
                return 1
        with open(out) as f:
            text = f.read()
        if "--- maps" not in text or os.path.basename(binary) not in text.split("--- maps")[1]:
            print("sample file lacks the process maps")
            return 1
        resolver = os.path.join(os.path.dirname(os.path.abspath(__file__)), "resolve.py")
        report = subprocess.run([sys.executable, resolver, out, "--top", "5"],
                                capture_output=True, text=True, check=True).stdout
        print(report)
        if not report.startswith("samples ") or "\nself\n" not in report or \
                "\ninclusive\n" not in report:
            print("resolve.py printed no profile")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
