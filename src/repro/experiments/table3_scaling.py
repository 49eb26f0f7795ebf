"""Experiment Table III: GreenSKU-Efficient scaling factors per application.

Regenerates the paper's per-application, per-generation scaling factors and
compares every cell against the published table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.tables import render_table
from ..perf.apps import FLEET_CORE_HOUR_SHARE, get_app
from ..perf.scaling import ScalingResult, scaling_table

#: The published Table III cells: app -> (gen1, gen2, gen3) factors;
#: ``math.inf`` encodes the paper's ">1.5".
PAPER_TABLE3: Dict[str, Tuple[float, float, float]] = {
    "Redis": (1, 1, 1),
    "Masstree": (1, 1, math.inf),
    "Silo": (math.inf, math.inf, math.inf),
    "Shore": (1, 1, 1),
    "Xapian": (1, 1, 1.5),
    "WebF-Dynamic": (1, 1.25, 1.25),
    "WebF-Hot": (1, 1.25, 1.5),
    "WebF-Cold": (1, 1, 1),
    "Moses": (1, 1, 1.25),
    "Sphinx": (1, 1.25, 1.25),
    "Img-DNN": (1, 1, 1),
    "Nginx": (1, 1, 1.25),
    "Caddy": (1, 1, 1),
    "Envoy": (1, 1, 1),
    "HAProxy": (1, 1, 1.25),
    "Traefik": (1, 1, 1.25),
    "Build-Python": (1, 1, 1.25),
    "Build-Wasm": (1, 1, 1.25),
    "Build-PHP": (1, 1, 1.25),
}


@dataclass(frozen=True)
class Table3Result:
    """Computed factors plus the cell-level match against the paper."""

    table: Dict[str, Dict[int, ScalingResult]]

    def mismatches(self) -> List[Tuple[str, int, float, float]]:
        """(app, generation, got, expected) for every differing cell."""
        diffs = []
        for app, expected in PAPER_TABLE3.items():
            for gen, exp in zip((1, 2, 3), expected):
                got = self.table[app][gen].factor
                if got != exp:
                    diffs.append((app, gen, got, exp))
        return diffs

    @property
    def matched_cells(self) -> int:
        return 3 * len(PAPER_TABLE3) - len(self.mismatches())


def run() -> Table3Result:
    """Compute Table III (one batched grid; see ``scaling_table``)."""
    apps = [get_app(name) for name in PAPER_TABLE3]
    return Table3Result(table=scaling_table(apps))


def render(result: Table3Result) -> str:
    rows = []
    for app_name in PAPER_TABLE3:
        app = get_app(app_name)
        per_gen = result.table[app_name]
        rows.append(
            [
                app.app_class.value,
                f"{100 * FLEET_CORE_HOUR_SHARE[app.app_class]:.0f}%",
                app_name + (" *" if app.production else ""),
                per_gen[1].display,
                per_gen[2].display,
                per_gen[3].display,
            ]
        )
    table = render_table(
        ["Category", "Core Hours", "Application", "Gen1", "Gen2", "Gen3"],
        rows,
        title=(
            "Table III: GreenSKU-Efficient scaling factors "
            "(* = production application)"
        ),
    )
    total = 3 * len(PAPER_TABLE3)
    return (
        f"{table}\nmatched {result.matched_cells}/{total} published cells"
    )


def main() -> Table3Result:
    result = run()
    print(render(result))
    return result


if __name__ == "__main__":
    main()
