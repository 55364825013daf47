#!/usr/bin/env python3
"""Build the ambench benchmark from source, then run it.

From the repository root:

    python3 cmd/ambench/run.py --workload chain-fork --seed 1 --seconds 12 --trace 0

Every argument goes to the ambench binary (see main.go or README.md). The
binary, Go's build cache and its temporary files live under
.bench_build/ambench in the current directory, so a run writes nowhere
else. The build needs the Go toolchain on PATH and nothing from the
network; it fails, and so does this script, outside a full checkout.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    out = os.path.abspath(os.path.join(".bench_build", "ambench"))
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "gocache",
        "GOPATH": "gopath",
        "GOTMPDIR": "tmp",
        "XDG_CONFIG_HOME": "config",  # where the go command keeps telemetry
    }
    for var, sub in dirs.items():
        env[var] = os.path.join(out, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOFLAGS="", GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off", CGO_ENABLED="0")
    binary = os.path.join(out, "ambench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        sys.exit(build.returncode)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
