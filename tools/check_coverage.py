#!/usr/bin/env python3
"""Enforce the committed line-coverage ratchet (src/core, net, sim, ha, hw,
runtime, facility, rm).

CI builds with --coverage, runs ctest, and collects line coverage; this
script then fails the job if any tracked group fell below its committed
floor in tools/coverage_baseline.txt.  The floor only moves up: when a
PR raises coverage, re-measure and bump the baseline in the same PR.

Two input modes, same aggregation:

    # CI: gcovr's JSON summary (per-file line_covered/line_total)
    python3 tools/check_coverage.py --summary coverage.json \
        --baseline tools/coverage_baseline.txt

    # Local (no gcovr needed): raw `gcov --json-format` output
    gcov --json-format --object-directory <dir> <objects...>
    python3 tools/check_coverage.py --gcov-glob '*.gcov.json.gz' \
        --baseline tools/coverage_baseline.txt

The gcov mode unions line hits across translation units (a header line
is covered if ANY including TU executed it), which matches how gcovr
merges, so the two modes agree on the committed numbers.

Baseline format: `<group-prefix> <min-line-percent>` per line, '#'
comments allowed.  Group prefixes are repo-relative directory prefixes
such as `src/core`.  Exits non-zero on any group below its floor, on a
group with no measured lines (a filter typo would otherwise pass
vacuously), and prints every group either way.
"""

from __future__ import annotations

import argparse
import glob
import gzip
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def parse_baseline(path: Path) -> dict[str, float]:
    groups: dict[str, float] = {}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            sys.exit(f"{path}: malformed baseline line: {raw!r}")
        groups[parts[0].rstrip("/")] = float(parts[1])
    if not groups:
        sys.exit(f"{path}: no baseline groups")
    return groups


def normalize(filename: str) -> str | None:
    """Repo-relative path for a measured file, or None if external."""
    path = Path(filename)
    if path.is_absolute():
        try:
            path = path.resolve().relative_to(REPO_ROOT)
        except ValueError:
            return None  # system header or generated file outside the repo
    return str(path)


def group_of(filename: str, groups: dict[str, float]) -> str | None:
    for prefix in groups:
        if filename == prefix or filename.startswith(prefix + "/"):
            return prefix
    return None


def totals_from_summary(summary_path: Path,
                        groups: dict[str, float]) -> dict[str, list[int]]:
    """Aggregate gcovr --json-summary per-file counts into groups."""
    totals = {g: [0, 0] for g in groups}  # group -> [covered, total]
    data = json.loads(summary_path.read_text())
    for entry in data.get("files", []):
        name = normalize(entry["filename"])
        if name is None:
            continue
        group = group_of(name, groups)
        if group is None:
            continue
        totals[group][0] += int(entry["line_covered"])
        totals[group][1] += int(entry["line_total"])
    return totals


def totals_from_gcov(pattern: str,
                     groups: dict[str, float]) -> dict[str, list[int]]:
    """Union per-line hit counts across gcov JSON files, then aggregate."""
    # file -> line_number -> hit (True once any TU executed it)
    lines: dict[str, dict[int, bool]] = {}
    paths = sorted(glob.glob(pattern, recursive=True))
    if not paths:
        sys.exit(f"no gcov JSON files match {pattern!r}")
    for gcov_path in paths:
        opener = gzip.open if gcov_path.endswith(".gz") else open
        with opener(gcov_path, "rt") as handle:
            data = json.load(handle)
        for entry in data.get("files", []):
            name = normalize(entry["file"])
            if name is None or group_of(name, groups) is None:
                continue
            per_file = lines.setdefault(name, {})
            for line in entry.get("lines", []):
                number = int(line["line_number"])
                per_file[number] = per_file.get(number, False) or \
                    int(line["count"]) > 0
    totals = {g: [0, 0] for g in groups}
    for name, per_file in lines.items():
        group = group_of(name, groups)
        assert group is not None
        totals[group][0] += sum(1 for hit in per_file.values() if hit)
        totals[group][1] += len(per_file)
    return totals


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--summary", type=Path,
                        help="gcovr --json-summary output")
    source.add_argument("--gcov-glob",
                        help="glob for gcov --json-format *.gcov.json[.gz]")
    parser.add_argument("--baseline", type=Path, required=True)
    args = parser.parse_args()

    groups = parse_baseline(args.baseline)
    if args.summary is not None:
        totals = totals_from_summary(args.summary, groups)
    else:
        totals = totals_from_gcov(args.gcov_glob, groups)

    failed = False
    for group, floor in sorted(groups.items()):
        covered, total = totals[group]
        if total == 0:
            print(f"FAIL {group}: no measured lines (filter mismatch?)")
            failed = True
            continue
        percent = 100.0 * covered / total
        status = "ok  " if percent >= floor else "FAIL"
        if percent < floor:
            failed = True
        print(f"{status} {group}: {percent:.1f}% line coverage "
              f"({covered}/{total} lines, floor {floor:.1f}%)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
