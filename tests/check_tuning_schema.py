#!/usr/bin/env python3
"""Validate an EGEMM tuning file against the versioned schema.

Usage:
    bench_micro --tune=TUNING_sweep.json        # write a sweep
    python3 tests/check_tuning_schema.py TUNING_sweep.json

Mirrors the loader in src/model/tuning_cache.cpp (schema "egemm-tuning",
version 1) so CI catches a writer/reader drift the moment the sweep output
stops parsing, instead of the runtime silently falling back to the
analytic model. Checks:

  * top-level schema tag and version match the C++ constants,
  * every entry carries a power-of-two-bucketed shape_class (axes <= 2048),
    a 6-field positive tile, a non-negative grain, a known ISA name, and
    non-negative measurements (other keys, such as the "engine" that files
    from before the engine axis was dropped carry, are ignored, as the
    loader ignores them),
  * (shape_class, isa) pairs are unique -- duplicates would make lookup
    order-dependent,
  * the optional small_gemm_inline_threshold is a positive integer.

Exit status: 0 valid, 1 schema violation, 2 usage/IO error.
"""

import json
import pathlib
import sys

SCHEMA_NAME = "egemm-tuning"
SCHEMA_VERSION = 1
ISAS = {"scalar", "avx2", "avx512"}
TILE_FIELDS = ("bm", "bn", "bk", "wm", "wn", "wk")
LARGE_BUCKET = 2048


def is_bucket(extent):
    """A bucketed axis: 1, a power of two <= 1024, or the 2048 large class."""
    return (
        isinstance(extent, int)
        and 1 <= extent <= LARGE_BUCKET
        and extent & (extent - 1) == 0
    )


def check_entry(index, entry, errors):
    where = f"entries[{index}]"
    if not isinstance(entry, dict):
        errors.append(f"{where}: not an object")
        return None
    shape = entry.get("shape_class")
    if not isinstance(shape, str):
        errors.append(f"{where}: missing shape_class")
        return None
    parts = shape.split("x")
    if len(parts) != 3 or not all(p.isdigit() and is_bucket(int(p)) for p in parts):
        errors.append(f"{where}: shape_class {shape!r} is not a bucketed MxNxK")
    tile = entry.get("tile")
    if not isinstance(tile, dict) or any(
        not isinstance(tile.get(f), int) or tile[f] <= 0 for f in TILE_FIELDS
    ):
        errors.append(f"{where} ({shape}): tile must carry positive {TILE_FIELDS}")
    grain = entry.get("grain")
    if not isinstance(grain, int) or grain < 0:
        errors.append(f"{where} ({shape}): grain must be a non-negative integer")
    if entry.get("isa") not in ISAS:
        errors.append(f"{where} ({shape}): isa {entry.get('isa')!r} "
                      f"not in {sorted(ISAS)}")
    for field in ("ns_per_call", "gflops"):
        value = entry.get(field)
        if value is not None and (
            not isinstance(value, (int, float)) or value < 0
        ):
            errors.append(f"{where} ({shape}): {field} must be >= 0")
    return (shape, entry.get("isa"))


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = pathlib.Path(sys.argv[1])
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"{path}: unreadable or not JSON: {err}", file=sys.stderr)
        return 2

    errors = []
    if not isinstance(doc, dict):
        errors.append("top level is not an object")
        doc = {}
    if doc.get("schema") != SCHEMA_NAME:
        errors.append(f"schema {doc.get('schema')!r} != {SCHEMA_NAME!r}")
    if doc.get("version") != SCHEMA_VERSION:
        errors.append(f"version {doc.get('version')!r} != {SCHEMA_VERSION}")
    threshold = doc.get("small_gemm_inline_threshold")
    if threshold is not None and (not isinstance(threshold, int) or threshold <= 0):
        errors.append("small_gemm_inline_threshold must be a positive integer")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        errors.append("entries must be a list")
        entries = []
    seen = {}
    for i, entry in enumerate(entries):
        key = check_entry(i, entry, errors)
        if key is None:
            continue
        if key in seen:
            errors.append(
                f"entries[{i}]: duplicate (shape_class, isa) {key} "
                f"(first at entries[{seen[key]}])"
            )
        else:
            seen[key] = i

    if errors:
        for error in errors:
            print(f"SCHEMA: {error}", file=sys.stderr)
        print(f"{path}: {len(errors)} schema violation(s)", file=sys.stderr)
        return 1
    classes = sorted({shape for shape, _ in seen})
    print(
        f"{path}: valid {SCHEMA_NAME} v{SCHEMA_VERSION}, "
        f"{len(entries)} entries over {len(classes)} shape classes"
        + (f", inline threshold {threshold}" if threshold else "")
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
