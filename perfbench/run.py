#!/usr/bin/env python3
"""Builds and runs the Remp benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run in a checkout compiles the program's sources together with the
benchmark code (sbt, offline); later runs reuse the build while the sources
are unchanged. The JVM gets a pinned heap, and Spark a pinned master and
shuffle partition count (see Main.scala). Build outputs, Spark's scratch
space and temporary files all stay under .bench_build/ in the checkout.
The JVM's standard output is passed through; its last line is the result.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HEAP = "4g"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_hash(root, bench):
    h = hashlib.sha256()
    files = [bench / "build.sbt", bench / "project" / "build.properties"]
    for d in (root / "src" / "main", bench / "src" / "main"):
        files += sorted(p for p in d.rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run(cmd, cwd, env, timeout):
    """Runs cmd to completion; on timeout the child is killed and reaped."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out


def build(root, bench, work, env):
    stamp = work / f"classpath-{source_hash(root, bench)}.txt"
    if stamp.exists():
        return stamp.read_text().strip()
    env = dict(env)
    env["COURSIER_MODE"] = "offline"
    env["SBT_OPTS"] = " ".join([
        "-Dsbt.override.build.repos=true",
        "-Dsbt.repository.config=" + str(pathlib.Path.home() / ".sbt" / "repositories"),
        "-Dsbt.offline=true",
        "-Dsbt.server.autostart=false",
        "-Xmx2g",
    ])
    code, out = run(["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
                    bench, env, BUILD_TIMEOUT_S)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or "[error]" in out:
        sys.stderr.write(out)
        fail("build failed")
    classpath = lines[-1].strip()
    stamp.write_text(classpath + "\n")
    return classpath


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    root = pathlib.Path.cwd()
    bench = root / "perfbench"
    if not (bench / "build.sbt").is_file():
        fail("run from the root of a checkout: perfbench/build.sbt not found")
    if not (root / "src" / "main" / "scala").is_dir():
        fail("the program's sources (src/main/scala) are missing from this checkout")

    work = root / ".bench_build"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = str(work / "tmp")
    env["SPARK_LOCAL_DIRS"] = str(work / "spark-local")
    classpath = build(root, bench, work, env)

    # The parallel collector: under G1 the same run's session timings moved
    # by a fifth from one process to the next.
    cmd = ["java", f"-Xmx{HEAP}", f"-Xms{HEAP}", "-XX:+UseParallelGC",
           f"-Djava.io.tmpdir={work / 'tmp'}",
           f"-Dperfbench.workDir={work}",
           "-cp", classpath, "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace]
    code, out = run(cmd, root, env, RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
