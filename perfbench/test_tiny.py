#!/usr/bin/env python3
"""Smoke test of the benchmark in tiny-input mode.

Run from the root of a checkout:

    python3 perfbench/test_tiny.py

Runs every workload of BENCHMARK.json untraced and traced with tiny
inputs for one second each, and checks that the last output line is a
result naming every metric of BENCHMARK.json with its unit, that no
operation failed (failed_share 0), and that the traced run wrote its
Chrome trace.
"""

import json
import subprocess
import sys


def run(workload, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    assert out.returncode == 0, "%s exited %d" % (" ".join(cmd), out.returncode)
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = []
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            name = "%s trace=%d" % (w["name"], trace)
            try:
                text, result = run(w["name"], trace)
                assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
                assert result["correct"] is True and result["failed"] == 0, result
                assert result["attempted"] >= 1, result
                assert "failed_share 0" in "\n".join(text), "no failed_share 0 line"
                metrics = result["metrics"]
                for m in bench[key]:
                    got = metrics.get(m["name"])
                    assert got is not None, "missing metric " + m["name"]
                    assert got["unit"] == m["unit"], (m["name"], got["unit"])
                    assert isinstance(got["value"], (int, float)), (m["name"], got)
                    print("%s %s %s" % (m["name"], got["value"], got["unit"]))
                assert set(metrics) == {m["name"] for m in bench[key]}, "extra metrics"
                if trace == 0:
                    assert metrics["ok_share"]["value"] == 1, metrics["ok_share"]
                else:
                    assert any(t.startswith("chrome trace: ") for t in text), "no trace file"
                print("ok   " + name)
            except (AssertionError, subprocess.TimeoutExpired, ValueError) as e:
                print("FAIL %s: %s" % (name, e))
                failures.append(name)
    if failures:
        print("%d failure(s): %s" % (len(failures), ", ".join(failures)))
        sys.exit(1)
    print("all workloads ok")


if __name__ == "__main__":
    main()
