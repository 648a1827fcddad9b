"""Per-layer self time of single operations from a traced run's span file.

    python3 perfbench/breakdown.py perfbench/out/trace-plants-p0-s0.json \
        plants/n32-s9/oc plants/n8-s17/loc

With no operation ids it lists the ten slowest operations of the file.
"""

from __future__ import annotations

import json
import sys

from layertrace import ROOT as ROOT_SPAN
from layertrace import self_times


def breakdown(op: dict, top: int = 8) -> list[str]:
    spans = [tuple(s) for s in op["spans"] or ()]
    selfs = self_times(spans)
    rows: dict = {}
    for sid, parent, name, t0, t1, extra in spans:
        if name == ROOT_SPAN:
            continue
        row = rows.setdefault(name, [0, 0.0])
        row[0] += (extra or {}).get("calls", 1)
        row[1] += selfs[sid]
    lines = [f"{op['op']}: {op['status']} in {op['t']:.3f} s"]
    for name, (calls, self_s) in sorted(rows.items(),
                                        key=lambda kv: -kv[1][1])[:top]:
        lines.append(f"  {name:40s} {calls:8d} calls {self_s:8.3f} s self")
    return lines


def main(argv) -> int:
    if not argv:
        print(__doc__)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        data = json.load(fh)
    ops = {op["op"]: op for op in data["ops"]}
    wanted = argv[1:] or [op["op"] for op in sorted(
        data["ops"], key=lambda o: -o["t"])[:10]]
    for oid in wanted:
        if oid not in ops:
            print(f"{oid}: not in {argv[0]}")
            continue
        print("\n".join(breakdown(ops[oid])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
