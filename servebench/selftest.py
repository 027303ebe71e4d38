#!/usr/bin/env python3
"""Self-tests of the serving benchmark.

    python3 servebench/selftest.py

Checks, in order:
  1. the same (workload, seed) yields byte-identical wire bytes, and another
     seed yields other bytes;
  2. every metric a run emits is named in BENCHMARK.json with the same unit,
     and every name there is emitted, for --trace 0 and --trace 1;
  3. in a traced run, the per-layer self times plus unattributed_ns add up to
     the end-to-end time per request (e2e.req_ns);
  4. in a directory holding only BENCHMARK.json and the benchmark, run.py
     exits non-zero without printing a result.
Short runs (2 s) keep this under two minutes; they check structure, not
performance.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (run.py next to this file)

SELF_TIMES = ["core.self_ns", "backend.self_ns", "engine.self_ns",
              "cache.self_ns", "protocol.self_ns", "net.self_ns",
              "unattributed_ns"]


def check(ok, message):
    print(("ok    " if ok else "FAIL  ") + message, flush=True)
    return ok


def wire(client, wl, seed):
    return subprocess.run(
        [client, "--dump-wire", "500", "--vertices", "4096",
         "--kind", wl["kind"], "--dist", wl["dist"], "--seed", str(seed),
         "--rate", str(wl["rate"])],
        check=True, capture_output=True).stdout


def run_once(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace)],
        check=True, capture_output=True, text=True, cwd=ROOT).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                os.path.join(ROOT,
                                                             ".bench_build")))
    client = os.path.join(run.build(build_root), "servebench_client")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True

    for name, wl in sorted(run.WORKLOADS.items()):
        a, b, c = wire(client, wl, 3), wire(client, wl, 3), wire(client, wl, 4)
        ok &= check(a == b and a != c and len(a) > 0,
                    "%s: wire bytes depend only on the seed" % name)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for name in sorted(run.WORKLOADS):
            result = run_once(name, trace)
            emitted = {m: v["unit"] for m, v in result["metrics"].items()}
            ok &= check(emitted == declared and result["correct"] and
                        result["failed"] == 0,
                        "%s --trace %d: emits exactly the %s metrics, "
                        "all answers correct" % (name, trace, key))
            if trace == 1:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                total = sum(m[k] for k in SELF_TIMES)
                ok &= check(abs(total - m["e2e.req_ns"]) <=
                            1e-6 * max(1.0, abs(m["e2e.req_ns"])),
                            "%s: self times + unattributed = e2e.req_ns "
                            "(%.1f vs %.1f ns)" % (name, total,
                                                   m["e2e.req_ns"]))

    with tempfile.TemporaryDirectory(dir=build_root) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "servebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, "build"))
        proc = subprocess.run(
            [sys.executable, "servebench/run.py", "--workload", "knn_rne",
             "--seed", "1", "--seconds", "2", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=180)
        ok &= check(proc.returncode != 0 and proc.stdout.strip() == "",
                    "without the repository sources run.py fails "
                    "(exit %d, no result)" % proc.returncode)

    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
