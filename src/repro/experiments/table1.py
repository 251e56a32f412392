"""Table 1: data cleaning performance across the five benchmarks."""

from __future__ import annotations

from typing import Dict, List

from repro.evaluation.runner import SystemResult

#: The paper's reported numbers, used by EXPERIMENTS.md and the shape checks.
PAPER_TABLE1: Dict[str, Dict[str, tuple]] = {
    "HoloClean":  {"hospital": (1.00, 0.46, 0.63), "flights": (0.73, 0.34, 0.47), "beers": (0.05, 0.04, 0.04),
                   "rayyan": (0.53, 0.67, 0.59), "movies": (0.00, 0.00, 0.00)},
    "Raha+Baran": {"hospital": (0.91, 0.60, 0.72), "flights": (0.84, 0.61, 0.70), "beers": (0.97, 0.96, 0.96),
                   "rayyan": (0.83, 0.35, 0.50), "movies": (0.85, 0.75, 0.80)},
    "CleanAgent": {"hospital": (0.00, 0.00, 0.00), "flights": (0.00, 0.00, 0.00), "beers": (0.00, 0.00, 0.00),
                   "rayyan": (0.00, 0.00, 0.00), "movies": (0.00, 0.00, 0.00)},
    "RetClean":   {"hospital": (0.00, 0.00, 0.00), "flights": (0.00, 0.00, 0.00), "beers": (0.00, 0.00, 0.00),
                   "rayyan": (0.52, 0.48, 0.50), "movies": (0.00, 0.00, 0.00)},
    "Cocoon":     {"hospital": (0.87, 0.93, 0.90), "flights": (0.91, 0.42, 0.57), "beers": (0.99, 0.96, 0.97),
                   "rayyan": (0.88, 0.84, 0.86), "movies": (0.91, 0.83, 0.87)},
}

SYSTEM_ORDER = ["HoloClean", "Raha+Baran", "CleanAgent", "RetClean", "Cocoon"]


def format_table1(results: List[SystemResult], include_paper: bool = True) -> str:
    """Render results in the layout of the paper's Table 1."""
    datasets = []
    for result in results:
        if result.dataset not in datasets:
            datasets.append(result.dataset)
    by_key = {(r.system, r.dataset): r for r in results}
    header = "System".ljust(12) + "".join(f"{d:^21}" for d in datasets)
    subheader = " " * 12 + "".join(f"{'P':^7}{'R':^7}{'F':^7}" for _ in datasets)
    lines = ["Table 1: data cleaning performance (precision, recall, F1)", header, subheader, "-" * len(subheader)]
    systems = [s for s in SYSTEM_ORDER if any(r.system == s for r in results)]
    for system in systems:
        row = system.ljust(12)
        for dataset in datasets:
            result = by_key.get((system, dataset))
            if result is None:
                row += " " * 21
                continue
            p, r, f = result.scores.as_row()
            star = "*" if result.used_sample else " "
            row += f"{p:6.2f}{star}{r:6.2f} {f:6.2f} "
        lines.append(row)
    if include_paper:
        lines.append("")
        lines.append("Paper-reported F1 for comparison:")
        for system in systems:
            paper = PAPER_TABLE1.get(system, {})
            row = system.ljust(12)
            for dataset in datasets:
                values = paper.get(dataset)
                row += f"{'':7}{'':7}{values[2]:6.2f} " if values else " " * 21
            lines.append(row)
    lines.append("* evaluated on the first 1000 rows (memory / file-size limit), as in the paper")
    return "\n".join(lines)
