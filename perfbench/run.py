#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <kv-rmw-gc|report-hot-range|tpcc-flash> \
        --seed <n> --seconds <n> --trace <0|1>

The engine and the benchmark are compiled in release mode into
$CARGO_TARGET_DIR (default: .bench_build in the checkout). Build output
goes to stderr; stdout is the benchmark's report, whose last line is the
JSON result. The exit code is the build's when it fails, else the
benchmark's (1 on any correctness violation).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def source_rev():
    """The git revision when the checkout has one, else a digest of the
    sources the benchmark builds from."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    files = [p for d in ("crates", "perfbench/src") for p in (ROOT / d).rglob("*")
             if p.is_file() and p.suffix in (".rs", ".toml")]
    for path in sorted(files + [ROOT / "Cargo.toml", BENCH / "Cargo.toml"]):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def main():
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = target / "release" / "perfbench"
    run = subprocess.run([str(exe), *sys.argv[1:], "--rev", source_rev()], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
