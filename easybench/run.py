#!/usr/bin/env python3
"""Build and run easybench, the end-to-end benchmark of easypap-rs.

Run from the root of the repository:

    python3 easybench/run.py --workload mandel --seed 1 --seconds 25 --trace 0

builds the benchmark (release, offline) and runs one workload; the last
line of standard output is the JSON result. The build goes to
$CARGO_TARGET_DIR, or to easybench/target when it is unset.

    python3 easybench/run.py steadiness [--runs 10] [--workloads mandel,serve]

runs two sets of `--runs` runs per workload, each run with its own seed,
and prints for every end-to-end metric the two medians, their quartiles,
the spread (IQR / median) and the drift between the two medians, against
the metric's bound in BENCHMARK.json.
"""

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def capture(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def build():
    """Builds the benchmark; returns the binary's path, or None."""
    if shutil.which("cargo") is None:
        log("easybench: cargo not found")
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
        cwd=ROOT,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
    )
    binary = os.path.join(target, "release", "easybench")
    if done.returncode != 0 or not os.path.exists(binary):
        log("easybench: build failed")
        return None
    return binary


def provenance_env():
    env = dict(os.environ)
    env.setdefault("EASYBENCH_COMMIT", capture(["git", "rev-parse", "--short=12", "HEAD"]))
    env.setdefault("EASYBENCH_RUSTC", capture(["rustc", "--version"]))
    return env


def raise_open_files_limit():
    """Raises the soft limit on open files to the hard limit: the serve
    daemon leaks a descriptor per connection (README.md, "Known defects"),
    and the serve workload makes thousands of connections. The binary
    fails with a clear message if even the hard limit is too low."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if soft != hard:
        try:
            resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
        except (ValueError, OSError) as e:
            log(f"easybench: cannot raise the open-files limit from {soft} to {hard}: {e}")


def run_once(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    done = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=provenance_env())
    return done.returncode, done.stdout


def steadiness(binary, argv):
    runs, workloads, seconds = 10, None, None
    it = iter(argv)
    for flag in it:
        value = next(it, None)
        if flag == "--runs":
            runs = int(value)
        elif flag == "--workloads":
            workloads = value.split(",")
        elif flag == "--seconds":
            seconds = int(value)
        else:
            log(f"easybench steadiness: unknown option {flag}")
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = workloads or [w["name"] for w in spec["workloads"]]
    seconds = seconds or spec["run_seconds"]
    status = 0
    for workload in workloads:
        sets = []
        for s in range(2):
            values = {}
            for r in range(runs):
                seed = 1000 * (s + 1) + r
                args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                code, out = run_once(binary, args)
                try:
                    result = json.loads(out.strip().splitlines()[-1])
                except (IndexError, ValueError):
                    result = {"correct": False, "metrics": {}}
                if code != 0 or not result["correct"]:
                    log(f"{workload} seed {seed}: run failed (exit {code})")
                    status = 1
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            sets.append(values)
        print(f"== {workload}: two sets of {runs} runs, {seconds} s each")
        print(f"  {'metric':<10} {'median 1':>10} {'q1..q3 of set 1':>23} {'spread':>6}"
              f" {'median 2':>10} {'q1..q3 of set 2':>23} {'spread':>6} {'drift':>6} {'bound':>5}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = []
            for values in sets:
                v = values.get(name, [])
                q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (float("nan"),) * 3
                row.append((med, q1, q3, (q3 - q1) / med if med else float("inf")))
            (m1, a1, b1, s1), (m2, a2, b2, s2) = row
            drift = (m2 - m1) / m1 if m1 else float("inf")
            worse = drift if metric["better"] == "lower" else -drift
            ok = max(s1, s2) <= bound and worse <= bound
            status |= 0 if ok else 1
            print(f"  {name:<10} {m1:>10.5g} {a1:>11.5g}..{b1:<10.5g} {s1:>6.3f}"
                  f" {m2:>10.5g} {a2:>11.5g}..{b2:<10.5g} {s2:>6.3f} {drift:>+6.3f} {bound:>5.2f} {'ok' if ok else 'OUT'}")
    return status


def main():
    argv = sys.argv[1:]
    binary = build()
    if binary is None:
        return 2
    raise_open_files_limit()
    if argv[:1] == ["steadiness"]:
        return steadiness(binary, argv[1:])
    code, out = run_once(binary, argv)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
