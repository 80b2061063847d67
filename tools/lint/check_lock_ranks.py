#!/usr/bin/env python3
"""Lock-rank table linter for the lockdep layer.

src/common/lockdep.h declares one `LockClass` per project mutex, each
with a unique acquisition rank, and docs/TOOLING.md carries the human-
readable rank table that explains WHY each lock sits where it does.
Three project invariants keep that system trustworthy:

  1. Ranks are unique (rank 0, kUnranked, is the explicit opt-out) — a
     duplicate rank silently disables the order check between two locks.
  2. The doc table and the source agree — a lock added or re-ranked in
     code without its rationale row is undocumented policy.
  3. Every class guards a real lock — a class that no ordered_mutex /
     ordered_shared_mutex under src/ is constructed with documents an
     ordering the program no longer has.

This linter parses the header, the doc table and src/, and fails on: duplicate source ranks, source
classes missing from the doc table, doc rows naming no source class
(stale docs), rank mismatches between the two, and classes no lock under
src/ instantiates.

Exit codes: 0 = consistent, 1 = violation, 2 = parse error (a pattern
that stops matching must fail loudly, not vacuously pass).

Stdlib-only: runs as a ctest entry and in CI with bare python3.
"""

import argparse
import re
import sys
from collections import defaultdict
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
DEFAULT_LOCKDEP = REPO_ROOT / "src" / "common" / "lockdep.h"
DEFAULT_DOC = REPO_ROOT / "docs" / "TOOLING.md"
DEFAULT_SRC = REPO_ROOT / "src"

CLASS_RE = re.compile(
    r'inline\s+constexpr\s+LockClass\s+(k\w+)\s*\{\s*"([^"]+)"\s*,\s*(\w+)\s*\}\s*;'
)
# Doc table row: | <rank> | `<lock name>` | rationale |
DOC_ROW_RE = re.compile(r"^\|\s*(\d+)\s*\|\s*`([^`]+)`\s*\|")
# A lock constructed with a class: ordered_[shared_]mutex name{lockdep::kX}
INSTANCE_RE = re.compile(r"\bordered_(?:shared_)?mutex\s+\w+\s*\{\s*(?:lockdep::)?(k\w+)\s*\}")


def fail_parse(msg):
    print(f"check_lock_ranks: PARSE ERROR: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_lockdep(path):
    text = Path(path).read_text()
    classes = {}  # constant name -> (lock name, rank)
    for m in CLASS_RE.finditer(text):
        const, name, rank = m.group(1), m.group(2), m.group(3)
        if rank == "kUnranked":
            rank_value = 0
        elif rank.isdigit():
            rank_value = int(rank)
        else:
            fail_parse(f"{const} in {path} has non-literal rank {rank!r}")
        if const in classes:
            fail_parse(f"duplicate LockClass constant {const} in {path}")
        classes[const] = (name, rank_value)
    if not classes:
        fail_parse(f"no 'inline constexpr LockClass' declarations found in {path}")
    return classes


def parse_doc(path):
    text = Path(path).read_text()
    rows = {}  # lock name -> rank
    for line in text.splitlines():
        m = DOC_ROW_RE.match(line.strip())
        if m is None:
            continue
        rank, name = int(m.group(1)), m.group(2)
        if name in rows:
            fail_parse(f"doc rank table in {path} lists {name} twice")
        rows[name] = rank
    if not rows:
        fail_parse(f"no rank-table rows (| N | `lock` | ...) found in {path}")
    return rows


def parse_instances(src_root, lockdep_path):
    used = set()
    for path in sorted(Path(src_root).rglob("*")):
        if path.suffix not in (".h", ".cpp") or path.resolve() == Path(lockdep_path).resolve():
            continue
        code = re.sub(r"//[^\n]*", "", path.read_text())
        used.update(m.group(1) for m in INSTANCE_RE.finditer(code))
    if not used:
        fail_parse(f"no 'ordered_mutex name{{kClass}}' locks found under {src_root}")
    return used


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lockdep", default=str(DEFAULT_LOCKDEP))
    ap.add_argument("--doc", default=str(DEFAULT_DOC))
    args = ap.parse_args()

    classes = parse_lockdep(args.lockdep)
    doc = parse_doc(args.doc)
    used = parse_instances(DEFAULT_SRC, args.lockdep)

    problems = []

    # 1. Duplicate ranks in source (kUnranked 0 is the sanctioned opt-out).
    by_rank = defaultdict(list)
    for const, (name, rank) in classes.items():
        if rank != 0:
            by_rank[rank].append(f"{const} ({name})")
    for rank, holders in sorted(by_rank.items()):
        if len(holders) > 1:
            problems.append(
                f"DUPLICATE RANK {rank}: {', '.join(sorted(holders))} — a shared "
                f"rank disables the lock-order check between these locks"
            )

    # 2/3/4. Source vs doc table.
    source_names = {name: rank for name, rank in classes.values()}
    for name, rank in sorted(source_names.items()):
        if rank == 0:
            continue  # unranked classes are outside the doc table's contract
        if name not in doc:
            problems.append(
                f"UNDOCUMENTED: {name} (rank {rank}) has no row in the "
                f"TOOLING.md rank table — every ranked lock needs its "
                f"ordering rationale documented"
            )
        elif doc[name] != rank:
            problems.append(
                f"RANK MISMATCH: {name} is rank {rank} in lockdep.h but "
                f"rank {doc[name]} in TOOLING.md"
            )
    for name, rank in sorted(doc.items()):
        if name not in source_names:
            problems.append(
                f"STALE DOC ROW: TOOLING.md documents {name} (rank {rank}) "
                f"but lockdep.h declares no such LockClass"
            )

    # 5. Classes no lock under src/ is constructed with.
    for const, (name, rank) in sorted(classes.items()):
        if const not in used:
            problems.append(
                f"UNUSED CLASS: {const} ({name}, rank {rank}) guards no lock "
                f"under src/ — delete it and its TOOLING.md row"
            )

    if problems:
        print(
            f"check_lock_ranks: rank table inconsistent "
            f"({args.lockdep} vs {args.doc}):",
            file=sys.stderr,
        )
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1

    ranked = sum(1 for _, r in classes.values() if r != 0)
    print(
        f"check_lock_ranks: OK ({ranked} ranked classes, doc table consistent, "
        f"every class instantiated)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
