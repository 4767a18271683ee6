"""Result tables and deterministic output writers for the CLI.

Tables carry a provenance block (config hash, seed, package version) that is
embedded in every file written. CSV output is RFC-4180 (CRLF, minimal
quoting) preceded by ``#``-prefixed provenance lines; identical config and
seed always produce byte-identical files. The SVG writer is a dependency-free
polyline plot for quick visual checks of sweeps and traces.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field

from . import __version__


def config_hash(config: dict) -> str:
    """sha256 over the canonical JSON form of a config document."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def provenance_block(config: dict, seed: int) -> dict:
    return {"config_sha256": config_hash(config), "seed": seed, "version": __version__}


@dataclass
class ResultTable:
    columns: list
    rows: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    def append(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(
                f"row arity {len(values)} does not match {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def to_csv(self) -> str:
        buf = io.StringIO()
        for key in sorted(self.provenance):
            buf.write(f"# {key}={self.provenance[key]}\r\n")
        writer = csv.writer(buf)  # RFC-4180: CRLF terminators, minimal quoting
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(["" if v is None else v for v in row])
        return buf.getvalue()

    def to_json(self) -> str:
        doc = {
            "provenance": self.provenance,
            "columns": self.columns,
            # JSON has no number for inf or NaN: write the CSV's text, "inf", "-inf" or "nan".
            "rows": [[str(v) if isinstance(v, float) and not math.isfinite(v) else v for v in row]
                     for row in self.rows],
        }
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def line_plot_svg(series: dict, x_label: str, y_label: str, provenance: dict) -> str:
    """Minimal multi-series line plot; each series maps a name to (xs, ys)."""
    width, height, margin = 640, 400, 50.0
    # A point with a non-finite value (an overflowed KL, a NaN gap) has no place
    # on the axes: it is left out of the plot and of the axis ranges.
    points = {name: [(x, y) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
              for name, (xs, ys) in series.items()}
    xs_all = [x for pairs in points.values() for x, _ in pairs]
    ys_all = [y for pairs in points.values() for _, y in pairs]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    # Halved differences: exact for normal floats, and finite even for a span
    # wider than the float range.
    x_span = (x_hi / 2 - x_lo / 2) or 1.0
    y_span = (y_hi / 2 - y_lo / 2) or 1.0

    def sx(x: float) -> float:
        return margin + (x / 2 - x_lo / 2) / x_span * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y / 2 - y_lo / 2) / y_span * (height - 2 * margin)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f"<!-- config_sha256={provenance.get('config_sha256', '')} "
        f"seed={provenance.get('seed', '')} version={provenance.get('version', '')} -->",
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 10}" text-anchor="middle" '
        f'font-size="13">{x_label}</text>',
        f'<text x="14" y="{height / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {height / 2:.1f})">{y_label}</text>',
    ]
    for k, (name, pairs) in enumerate(sorted(points.items())):
        color = colors[k % len(colors)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pairs)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{margin + 8}" y="{margin + 16 * k + 4}" font-size="11" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
