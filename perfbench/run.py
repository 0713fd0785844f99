#!/usr/bin/env python3
"""Build the benchmark from this checkout and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload heap-churn --seed 1 --seconds 10 --trace 0

The Go module in perfbench/ builds against the repository's own sources
(a replace directive to ../). Everything the build and the run write --
the Go build cache, the binary, the durable store's files and span files
-- stays under the build directory: $CARGO_TARGET_DIR if set, else
.bench_build, relative to the repository root. The script exits with the
benchmark's exit code; it fails without printing a result when the
repository sources are not there.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not (os.path.isfile(os.path.join(ROOT, "go.mod"))
            and os.path.isdir(os.path.join(ROOT, "internal", "btl"))):
        sys.stderr.write("perfbench: the repository sources are missing next to perfbench/\n")
        return 2
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(ROOT, build)
    env = dict(os.environ)
    home = os.path.join(build, "home")
    tmp = os.path.join(build, "tmp")
    for d in (home, tmp):
        os.makedirs(d, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench-bin")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return built.returncode or 1
    workdir = os.path.join(build, "perfbench")
    run = subprocess.run([binary, "--workdir", workdir] + sys.argv[1:], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
