"""The runner's output checks gate its exit code.

For every workload, a short traced run must pass (exit 0, "correct":
true, no failed units), and the same run with --inject-wrong-output --
which corrupts one output before it is checked -- must fail (exit 1,
"correct": false). Traced runs are the short ones (an untraced run keeps
going until it has 200 units) and they also run root_fleet's bit-for-bit
replay check; one untraced paper_grid run covers the untraced path. A
usage error must exit 2 without a result line.

    python3 perfbench/tests/output_checks_test.py <perfbench_runner>
"""

import json
import subprocess
import sys
import tempfile

WORKLOADS = ["paper_grid", "facility_week", "root_fleet"]


def run(runner, workload, *extra, trace="1"):
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [runner, "--workload", workload, "--seed", "3", "--seconds", "0.1",
             "--trace", trace, *extra],
            cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stdout + proc.stderr


def main():
    runner = sys.argv[1]
    failures = []
    for workload in WORKLOADS:
        code, result, output = run(runner, workload)
        if code != 0 or not result or not result["correct"] or result["failed"]:
            failures.append(f"{workload}: clean run failed (exit {code})\n{output}")
        code, result, output = run(runner, workload, "--inject-wrong-output")
        if code != 1 or not result or result["correct"]:
            failures.append(
                f"{workload}: corrupted output was not caught (exit {code})\n{output}")
        elif "CHECK FAILED" not in output:
            failures.append(f"{workload}: failure not explained\n{output}")
    code, result, output = run(runner, "paper_grid", trace="0")
    if code != 0 or not result or not result["correct"]:
        failures.append(f"paper_grid untraced: exit {code}\n{output}")
    code, result, _ = run(runner, "no_such_workload")
    if code != 2 or result is not None:
        failures.append(f"unknown workload: exit {code}, result {result}")
    for failure in failures:
        print(failure)
    print("ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
