"""Table 3 (Appendix B): evaluation that counts column-type and DMV errors.

The extended ground truth casts semantically typed columns (``"yes"`` →
``True``, duration strings → minutes) and turns disguised missing values into
NULL, then every system is scored against it with the strict conventions.
Only Cocoon performs these conversions, so its precision and recall rise
while the baselines fall — the outcome the paper reports (>0.9 F1 for Cocoon
on both Hospital and Movies).
"""

from __future__ import annotations

from typing import Dict, List

from repro.evaluation.runner import SystemResult

#: Paper-reported numbers for reference.
PAPER_TABLE3: Dict[str, Dict[str, tuple]] = {
    "HoloClean": {"hospital": (1.00, 0.13, 0.24), "movies": (0.00, 0.00, 0.00)},
    "Raha+Baran": {"hospital": (1.00, 0.97, 0.98), "movies": (0.57, 0.55, 0.56)},
    "CleanAgent": {"hospital": (0.00, 0.00, 0.00), "movies": (0.00, 0.00, 0.00)},
    "RetClean": {"hospital": (0.00, 0.00, 0.00), "movies": (0.00, 0.00, 0.00)},
    "Cocoon": {"hospital": (0.99, 0.99, 0.99), "movies": (0.96, 0.91, 0.93)},
}

SYSTEM_ORDER = ["HoloClean", "Raha+Baran", "CleanAgent", "RetClean", "Cocoon"]


def format_table3(results: List[SystemResult], include_paper: bool = True) -> str:
    datasets: List[str] = []
    for result in results:
        if result.dataset not in datasets:
            datasets.append(result.dataset)
    by_key = {(r.system, r.dataset): r for r in results}
    header = "Approach".ljust(12) + "".join(f"{d:^21}" for d in datasets)
    subheader = " " * 12 + "".join(f"{'P':^7}{'R':^7}{'F':^7}" for _ in datasets)
    lines = ["Table 3: comparison when column-type and DMV errors are counted",
             header, subheader, "-" * len(subheader)]
    systems = [s for s in SYSTEM_ORDER if any(r.system == s for r in results)]
    for system in systems:
        row = system.ljust(12)
        for dataset in datasets:
            result = by_key.get((system, dataset))
            if result is None:
                row += " " * 21
                continue
            p, r, f = result.scores.as_row()
            row += f"{p:6.2f} {r:6.2f} {f:6.2f} "
        lines.append(row)
    if include_paper:
        lines.append("")
        lines.append("Paper-reported F1 for comparison:")
        for system in systems:
            paper = PAPER_TABLE3.get(system, {})
            row = system.ljust(12)
            for dataset in datasets:
                values = paper.get(dataset)
                row += f"{'':7}{'':7}{values[2]:6.2f} " if values else " " * 21
            lines.append(row)
    return "\n".join(lines)
