#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Builds and runs perfbench_selftest (exact percentiles, seeded schedules and
view seeds, metric-name rules), then checks that BENCHMARK.json at the
repository root names only workloads the benchmark accepts and lists exactly
the metrics, with their units, that it prints, within the limits a
BENCHMARK.json must keep.
"""
import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message):
    print("selftest: FAIL: " + message)
    return 1


def main():
    selftest = run.build("perfbench_selftest")
    bench = run.build("itask_perfbench")
    if selftest is None or bench is None:
        return fail("build failed")
    if subprocess.run([selftest]).returncode != 0:
        return fail("perfbench_selftest")

    listed = subprocess.run([bench, "--list-metrics"], capture_output=True,
                            text=True, check=True).stdout.split("\n")
    printed = {"workload": [], "end_to_end": [], "per_layer": []}
    for line in filter(None, listed):
        kind, rest = line.split(" ", 1)
        printed[kind].append(tuple(rest.split(" ")) if " " in rest else rest)

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for kind, limit in (("end_to_end", 16), ("per_layer", 128)):
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        if declared != printed[kind]:
            return fail("BENCHMARK.json %s differs from what the benchmark "
                        "prints:\n  json:  %s\n  bench: %s"
                        % (kind, declared, printed[kind]))
        if not 1 <= len(declared) <= limit:
            return fail("%d %s metrics (limit %d)" % (len(declared), kind,
                                                      limit))
        for name, unit in declared:
            if not NAME.match(name) or not UNIT.match(unit):
                return fail("malformed metric %s [%s]" % (name, unit))
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in spec[k]]
    if len(set(names)) != len(names):
        return fail("duplicate metric names")
    declared = [w["name"] for w in spec["workloads"]]
    if not declared or not set(declared) <= set(printed["workload"]):
        return fail("BENCHMARK.json workloads %s are not all accepted by the "
                    "benchmark (%s)" % (declared, printed["workload"]))
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            return fail("bound of %s outside (0, 0.25]" % m["name"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        return fail("setup_s must be declared in s, lower is better")
    if setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        return fail("setup_s must have the largest bound")
    print("selftest: OK (%d end-to-end, %d per-layer metrics)"
          % (len(printed["end_to_end"]), len(printed["per_layer"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
