#!/usr/bin/env python3
"""Build and run the DeepER benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload match-avg --seed 7 --seconds 10 --trace 0

`--workload all` runs every workload of BENCHMARK.json in turn; match-lstm
can also be run by name, but is not in BENCHMARK.json (too slow for its
run budget). The program
(src/main/scala) and the benchmark (perfbench/src) are compiled with the
Scala compiler that ships with Spark ($SPARK_HOME/jars) into the build directory
($CARGO_TARGET_DIR, default .bench_build), keyed by a hash of the sources,
so a second run reuses the build. The JVM gets a pinned heap (MemTotal/2,
clamped to 2-8 GB) and Spark local[nproc] with 64 shuffle partitions and
broadcast joins off. Spark's scratch space stays inside the build directory.

The last line of stdout is the JSON result of the (last) workload. The exit
code is non-zero when a build fails, an output check fails, or the metrics
differ from the ones BENCHMARK.json lists.
"""
import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MAIN = "repro.perfbench.Main"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources(root):
    main = sorted(glob.glob(os.path.join(root, "src/main/scala/**/*.scala"), recursive=True))
    if not main:
        fail(f"no program sources under {root}/src/main/scala; run from the root of a checkout")
    return main + sorted(glob.glob(os.path.join(HERE, "src/**/*.scala"), recursive=True))


def spark_jars():
    """The jars of the Spark installation: $SPARK_HOME, else the first
    PATH entry holding spark-submit next to a jars directory."""
    homes = [os.environ.get("SPARK_HOME", "")] + [
        os.path.dirname(os.path.realpath(d)) for d in os.environ.get("PATH", "").split(os.pathsep)
        if d and os.path.exists(os.path.join(d, "spark-submit"))]
    for home in homes:
        jars = sorted(glob.glob(os.path.join(home, "jars", "*.jar"))) if home else []
        if jars:
            return jars
    fail("no Spark jars found; set SPARK_HOME")


def build(root, build_dir, jars):
    """Compile the program and the benchmark; returns the class directory."""
    srcs = sources(root)
    h = hashlib.sha256()
    for s in srcs:
        h.update(os.path.relpath(s, root).encode())
        with open(s, "rb") as f:
            h.update(f.read())
    out = os.path.join(build_dir, "perfbench", h.hexdigest()[:16])
    classes = os.path.join(out, "classes")
    if os.path.exists(os.path.join(out, "ok")):
        return classes
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(classes)
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr)
    r = subprocess.run(
        ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", os.pathsep.join(jars), "scala.tools.nsc.Main",
         "-nowarn", "-d", classes, "-classpath", os.pathsep.join(jars)] + srcs)
    if r.returncode != 0:
        fail("compilation failed")
    open(os.path.join(out, "ok"), "w").close()
    return classes


def driver_heap():
    """Tier-1's driver heap: half of MemTotal, clamped to 2-8 GB."""
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(l.split()[1]) for l in f if l.startswith("MemTotal:"))
        g = kb // 2097152
    except (OSError, StopIteration, ValueError):
        g = 2
    return f"{min(max(g, 2), 8)}g"


def run_one(root, classes, jars, build_dir, args, workload, trace):
    local = os.path.join(build_dir, "spark-local")
    os.makedirs(local, exist_ok=True)
    cmd = ["java", f"-Xmx{driver_heap()}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={local}",
           f"-Dlog4j.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
           "-cp", os.pathsep.join([classes, os.path.join(os.path.dirname(jars[0]), "*")]), MAIN,
           "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", trace, "--profile", args.profile, "--local-dir", local]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("RESULT "):
                result = line[len("RESULT "):].strip()
            else:
                print(line, end="", flush=True)
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.wait()
    if result is None:
        fail(f"{workload}: the JVM exited with {proc.returncode} and printed no result")
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    help="match-avg, resolve-lsh, match-lstm, or 'all' for the workloads of BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1", "both"], default="0",
                    help="1: per-layer metrics of a traced run; both: an untraced run, then a traced one")
    ap.add_argument("--profile", choices=["bench", "paper"], default="bench",
                    help="'paper' runs the EXPERIMENTS.md configurations (slow)")
    args = ap.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    workloads = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    traces = ["0", "1"] if args.trace == "both" else [args.trace]

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jars = spark_jars()
    classes = build(root, build_dir, jars)
    code = 0
    results = []
    for w in workloads:
        for t in traces:
            rc, result = run_one(root, classes, jars, build_dir, args, w, t)
            expected = {m["name"] for m in spec["per_layer" if t == "1" else "end_to_end"]}
            got = set(json.loads(result)["metrics"])
            if got != expected:
                print(result, file=sys.stderr)
                fail(f"{w}: metrics differ from BENCHMARK.json: "
                     f"missing {sorted(expected - got)}, extra {sorted(got - expected)}")
            code = code or rc
            results.append((f"{w} trace={t}", result))
    for name, result in results[:-1]:
        print(f"{name}: {result}")
    print(results[-1][1])
    sys.exit(code)


if __name__ == "__main__":
    main()
