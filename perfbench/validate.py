"""Manifest self-check: ``python3 perfbench/validate.py``.

Asserts that ``BENCHMARK.json`` parses, stays inside the driver's
limits, and declares exactly the workloads and metrics the code
prints (names and units), so a manifest/code drift is caught before a
single run.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402

MANIFEST = ROOT / "BENCHMARK.json"
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
#: The driver makes 4 + 22 runs per workload inside this many seconds.
TOTAL_BUDGET_S = 3420


def load_manifest(path: Path = MANIFEST) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_metrics(rows, declared: dict, keys: tuple, limit: int, what: str):
    errors = []
    if not 1 <= len(rows) <= limit:
        errors.append(f"{what}: {len(rows)} metrics, allowed 1..{limit}")
    for row in rows:
        if set(row) != set(keys):
            errors.append(f"{what}: {row} must have exactly the keys {keys}")
            continue
        if not NAME.fullmatch(row["name"]) or not UNIT.fullmatch(row["unit"]):
            errors.append(f"{what}: bad name or unit in {row}")
        if row["better"] not in ("lower", "higher"):
            errors.append(f"{what}: {row['name']} better must be lower/higher")
        if row["name"] not in declared:
            errors.append(f"{what}: {row['name']} is not printed by the code")
        elif tuple(row[k] for k in keys[1:]) != tuple(declared[row["name"]]):
            errors.append(
                f"{what}: {row['name']} is {[row[k] for k in keys[1:]]} in the "
                f"manifest but {list(declared[row['name']])} in perfbench/metrics.py"
            )
    for name in declared.keys() - {row.get("name") for row in rows}:
        errors.append(f"{what}: the code prints {name} but the manifest omits it")
    return errors


def validate(manifest: dict, workloads: dict | None = None) -> list[str]:
    """Every violated rule as one line; empty when the manifest is sound.

    ``workloads`` (name -> why) is compared when given; the caller that
    has the program importable passes ``perfbench.workloads.WORKLOADS``.
    """
    errors = []
    if set(manifest) != KEYS:
        return [f"top-level keys are {sorted(manifest)}, expected {sorted(KEYS)}"]
    if len(json.dumps(manifest)) > 64 * 1024:
        errors.append("manifest is larger than 64 KiB")
    command = manifest["command"]
    if not (1 <= len(command) <= 32 and all(len(c) <= 200 for c in command)):
        errors.append("command must be 1..32 strings of at most 200 characters")
    if any(c.startswith("/") or ".." in Path(c).parts for c in command):
        errors.append("command may not name an absolute path or leave the repo")
    paths = manifest["paths"]
    if [p.rstrip("/") for p in paths] != ["perfbench"]:
        errors.append(f"paths must list only perfbench/, got {paths}")
    if not all(PATH.fullmatch(p) for p in paths):
        errors.append(f"paths {paths} contain characters the driver refuses")
    seconds = manifest["run_seconds"]
    if not (isinstance(seconds, int) and 1 <= seconds <= 60):
        errors.append(f"run_seconds {seconds!r} must be a whole number in 1..60")
    rows = manifest["workloads"]
    if not 2 <= len(rows) <= 8:
        errors.append(f"{len(rows)} workloads, allowed 2..8")
    for row in rows:
        if set(row) != {"name", "why"}:
            errors.append(f"workload {row} must have exactly name and why")
        elif not NAME.fullmatch(row["name"]):
            errors.append(f"workload name {row['name']!r} is refused by the driver")
        elif not 0 < len(row["why"]) <= 200 or "\n" in row["why"]:
            errors.append(f"workload {row['name']}: why must be one line <= 200")
    errors += _check_metrics(
        manifest["end_to_end"],
        END_TO_END,
        ("name", "unit", "better", "bound"),
        16,
        "end_to_end",
    )
    for row in manifest["end_to_end"]:
        if not 0.0 < row.get("bound", 0.0) <= 0.25:
            errors.append(f"end_to_end: {row.get('name')} bound outside (0, 0.25]")
    if "setup_s" not in {row.get("name") for row in manifest["end_to_end"]}:
        errors.append("end_to_end: setup_s is missing")
    errors += _check_metrics(
        manifest["per_layer"], PER_LAYER, ("name", "unit", "better"), 128, "per_layer"
    )
    names = [
        row.get("name")
        for key in ("workloads", "end_to_end", "per_layer")
        for row in manifest[key]
    ]
    for name in {n for n in names if names.count(n) > 1}:
        errors.append(f"name {name} is used more than once")
    if workloads is not None:
        declared = {row["name"]: row["why"] for row in rows if "why" in row}
        printed = {name: wl.why for name, wl in workloads.items()}
        if declared != printed:
            errors.append("workload names/reasons differ from perfbench/workloads.py")
    return errors


def main() -> int:
    manifest = load_manifest()
    workloads = None
    if (ROOT / "src" / "repro").is_dir():
        sys.path.insert(0, str(ROOT / "src"))
        from perfbench.workloads import WORKLOADS as workloads
    errors = validate(manifest, workloads)
    for line in errors:
        print(f"BENCHMARK.json: {line}")
    if not errors:
        n_runs = 4 + 22 * len(manifest["workloads"])
        print(
            f"BENCHMARK.json ok: {len(manifest['workloads'])} workloads, "
            f"{len(manifest['end_to_end'])} end-to-end and "
            f"{len(manifest['per_layer'])} per-layer metrics; {n_runs} driver runs "
            f"leave {TOTAL_BUDGET_S / n_runs:.1f} s per run, set-up included"
        )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
