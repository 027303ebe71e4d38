#!/usr/bin/env python3
"""Checks the committed serving-benchmark trajectory (BENCH_serve.json).

Usage: check_bench_trajectory.py [path/to/BENCH_serve.json]

The file must parse, declare the schema this checker knows, and every
record, set, metric and side must carry exactly the schema's keys with
values of the right type. Records are ordered by PR number without
repeats, and each metric's ratio must agree with its two medians.

Nothing here depends on the machine a record was measured on: absolute
medians are only type-checked, never compared against a bound.
"""

import json
import math
import os
import sys

RECORD_KEYS = ["pr", "commit", "parent_commit", "cpus", "kernel_backend",
               "section", "claimed", "sets"]
SET_KEYS = ["workload", "seconds", "pairs", "seeds", "metrics"]
METRIC_KEYS = ["parent", "change", "ratio", "pairs_won"]
SIDE_KEYS = ["median", "q1", "q3"]
# Medians are stored as printed (3-4 significant digits), so a ratio
# recomputed from them can differ from the one computed on full values.
RATIO_TOLERANCE = 0.01


def is_number(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def check_keys(obj, keys, where, errors):
    if not isinstance(obj, dict):
        errors.append(f"{where}: not an object")
        return False
    missing = [k for k in keys if k not in obj]
    extra = [k for k in obj if k not in keys]
    if missing:
        errors.append(f"{where}: missing keys {missing}")
    if extra:
        errors.append(f"{where}: unknown keys {extra}")
    return not missing


def check_side(side, where, errors):
    if not check_keys(side, SIDE_KEYS, where, errors):
        return
    if not is_number(side["median"]):
        errors.append(f"{where}.median: not a finite number")
    for q in ("q1", "q3"):
        if side[q] is not None and not is_number(side[q]):
            errors.append(f"{where}.{q}: neither a number nor null")
    if is_number(side["q1"]) and is_number(side["q3"]):
        if side["q1"] > side["q3"]:
            errors.append(f"{where}: q1 above q3")


def check_metric(metric, pairs, where, errors):
    if not check_keys(metric, METRIC_KEYS, where, errors):
        return
    check_side(metric["parent"], where + ".parent", errors)
    check_side(metric["change"], where + ".change", errors)
    ratio = metric["ratio"]
    if not is_number(ratio) or ratio <= 0:
        errors.append(f"{where}.ratio: not a positive number")
    else:
        try:
            parent = metric["parent"]["median"]
            change = metric["change"]["median"]
        except (KeyError, TypeError):
            return
        if is_number(parent) and is_number(change) and parent > 0:
            if abs(change / parent - ratio) > RATIO_TOLERANCE * ratio:
                errors.append(f"{where}.ratio: {ratio} disagrees with "
                              f"medians {parent} -> {change}")
    won = metric["pairs_won"]
    if won is not None:
        if not isinstance(won, int) or isinstance(won, bool):
            errors.append(f"{where}.pairs_won: neither an integer nor null")
        elif isinstance(pairs, int) and not 0 <= won <= pairs:
            errors.append(f"{where}.pairs_won: {won} outside 0..{pairs}")


def check_set(bench_set, where, errors):
    if not check_keys(bench_set, SET_KEYS, where, errors):
        return
    if not isinstance(bench_set["workload"], str):
        errors.append(f"{where}.workload: not a string")
    seconds = bench_set["seconds"]
    if not (is_number(seconds) or (isinstance(seconds, list) and seconds
                                   and all(is_number(s) for s in seconds))):
        errors.append(f"{where}.seconds: neither a number nor a list of them")
    pairs = bench_set["pairs"]
    if not isinstance(pairs, int) or isinstance(pairs, bool) or pairs < 1:
        errors.append(f"{where}.pairs: not a positive integer")
    if not isinstance(bench_set["seeds"], str):
        errors.append(f"{where}.seeds: not a string")
    metrics = bench_set["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        errors.append(f"{where}.metrics: not a non-empty object")
        return
    for name, metric in metrics.items():
        check_metric(metric, pairs, f"{where}.metrics.{name}", errors)


def is_commit(v):
    return (isinstance(v, str) and len(v) == 40
            and all(c in "0123456789abcdef" for c in v))


def check_record(record, where, is_last, errors):
    if not check_keys(record, RECORD_KEYS, where, errors):
        return
    for key in ("pr", "cpus"):
        v = record[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            errors.append(f"{where}.{key}: not a positive integer")
    # A record committed together with its change cannot name that
    # change's commit; only the newest record may leave it null.
    if not (is_commit(record["commit"])
            or (is_last and record["commit"] is None)):
        errors.append(f"{where}.commit: not a 40-digit hex commit id"
                      + ("" if is_last else " (null only in the last record)"))
    if not is_commit(record["parent_commit"]):
        errors.append(f"{where}.parent_commit: not a 40-digit hex commit id")
    for key in ("kernel_backend", "section"):
        if not isinstance(record[key], str) or not record[key]:
            errors.append(f"{where}.{key}: not a non-empty string")
    if record["claimed"] is not None and not isinstance(record["claimed"],
                                                        str):
        errors.append(f"{where}.claimed: neither a string nor null")
    sets = record["sets"]
    if not isinstance(sets, list) or not sets:
        errors.append(f"{where}.sets: not a non-empty list")
        return
    for i, bench_set in enumerate(sets):
        check_set(bench_set, f"{where}.sets[{i}]", errors)


def check(doc):
    errors = []
    if not check_keys(doc, ["about", "schema", "records"], "file", errors):
        return errors
    schema = doc["schema"]
    expected = {"record": RECORD_KEYS, "set": SET_KEYS,
                "metric": METRIC_KEYS, "side": SIDE_KEYS}
    for level, keys in expected.items():
        if not isinstance(schema, dict) or schema.get(level) != keys:
            errors.append(f"schema.{level}: expected {keys}")
    records = doc["records"]
    if not isinstance(records, list) or not records:
        errors.append("records: not a non-empty list")
        return errors
    last_pr = 0
    for i, record in enumerate(records):
        where = f"records[{i}]"
        check_record(record, where, i == len(records) - 1, errors)
        pr = record.get("pr") if isinstance(record, dict) else None
        if isinstance(pr, int):
            if pr <= last_pr:
                errors.append(f"{where}.pr: {pr} not above the previous "
                              f"record's {last_pr}")
            last_pr = pr
    return errors


def main(argv):
    path = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_serve.json")
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"{path}: {e}")
        return 1
    errors = check(doc)
    for error in errors:
        print(f"{path}: {error}")
    if errors:
        return 1
    print(f"{path}: {len(doc['records'])} records OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
