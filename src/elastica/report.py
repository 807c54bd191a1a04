"""Verification reports: JSON persistence, CSV/table/SVG rendering.

All output is byte-deterministic for identical inputs: floats are printed
with 17 significant digits (exact float64 round-trip) and iteration order is
fixed by the record lists themselves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bounds import VERDICTS, BoundRecord

CSV_HEADER = "name,k,bound,measured,slack,verdict"
_VALUE_FIELDS = ("bound_value", "measured_value", "slack")
# field -> the types a loaded record may hold there (JSON's, bool excluded)
_FIELD_TYPES = {"name": (str,), "kind": (str,), "k": (int,), "note": (str,),
                **dict.fromkeys(_VALUE_FIELDS, (int, float))}
# (section, field) -> the types ``label`` may find there, when present
_LABEL_TYPES = {("spectrum", "alpha"): (int, float),
                ("provenance", "theta0"): (int, float),
                ("provenance", "mesh"): (str,)}


class ReportFormatError(ValueError):
    """A report file does not match the expected schema."""


def _fmt(x):
    if x is None or (isinstance(x, float) and np.isnan(x)):
        return "nan"
    return f"{float(x):.17g}"


@dataclass
class VerificationReport:
    """Everything one verification run produced, self-describing."""

    config: dict
    records: list[BoundRecord]
    spectrum: dict | None = None
    provenance: dict = field(default_factory=dict)
    summary: dict = field(init=False)

    def __post_init__(self):
        counts = dict.fromkeys(VERDICTS, 0)
        for rec in self.records:
            counts[rec.verdict] += 1
        self.summary = counts
        self.provenance = {"version": __version__, **self.provenance}

    def exit_code(self):
        return exit_code([self])

    def label(self):
        """Names the run by what it used: the spectrum's alpha (box and
        spectrum-file runs) or the cap's theta0, then the mesh."""
        parts = []
        if self.spectrum is not None and "alpha" in self.spectrum:
            parts.append(f"alpha={self.spectrum['alpha']:g}")
        elif "theta0" in self.provenance:
            parts.append(f"theta0={self.provenance['theta0']:g}")
        mesh = self.provenance.get("mesh", "")
        if mesh:
            parts.append(str(mesh))
        return " ".join(parts) or "run"

    def to_json(self):
        payload = {
            "config": self.config,
            "spectrum": self.spectrum,
            # a skip record has no values: NaN in memory, null in JSON
            "records": [{key: None if isinstance(v, float) and np.isnan(v)
                         else v for key, v in vars(r).items()}
                        for r in self.records],
            "summary": self.summary,
            "provenance": self.provenance,
        }
        return json.dumps(payload, indent=1, allow_nan=False)

    @classmethod
    def from_json(cls, text):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as err:
            raise ReportFormatError(f"not valid JSON: {err}") from None
        if type(payload) is not dict:
            raise ReportFormatError("report must be a JSON object")
        for key in ("config", "records", "summary", "provenance"):
            if key not in payload:
                raise ReportFormatError(f"report is missing field {key!r}")
        if type(payload["records"]) is not list:
            raise ReportFormatError("report records must be a list")
        records = []
        for raw in payload["records"]:
            if not isinstance(raw, dict):
                raise ReportFormatError(f"bad record entry: {raw!r}")
            try:
                rec = BoundRecord(**{
                    key: np.nan if v is None and key in _VALUE_FIELDS else v
                    for key, v in raw.items()})
            except TypeError as err:
                raise ReportFormatError(f"bad record entry: {err}") from None
            bad = [key for key, types in _FIELD_TYPES.items()
                   if type(getattr(rec, key)) not in types]
            if bad or rec.verdict not in VERDICTS:
                raise ReportFormatError(
                    f"bad {', '.join(bad) or 'verdict'} in record {raw}")
            records.append(rec)
        sections = {"spectrum": payload.get("spectrum"),
                    "provenance": payload["provenance"]}
        if type(sections["provenance"]) is not dict or \
                type(sections["spectrum"]) not in (dict, type(None)):
            raise ReportFormatError("spectrum and provenance must be objects")
        for (section, key), types in _LABEL_TYPES.items():
            fields = sections[section] or {}
            if key in fields and type(fields[key]) not in types:
                raise ReportFormatError(
                    f"bad {section}.{key}: {fields[key]!r}")
        report = cls(payload["config"], records, **sections)
        if report.summary != payload["summary"]:
            raise ReportFormatError("summary does not match the record tally")
        return report


def exit_code(reports):
    """1 = any fail, else 2 = any marginal, else 0 (pass/skip only)."""
    if any(rep.summary["fail"] for rep in reports):
        return 1
    if any(rep.summary["marginal"] for rep in reports):
        return 2
    return 0


def save_report(report, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(report.to_json())
        fh.write("\n")


def load_report(path):
    with open(path, "r", encoding="ascii") as fh:
        return VerificationReport.from_json(fh.read())


def _csv_field(text):
    """``text`` as one CSV field, quoted when it holds a separator."""
    if any(c in text for c in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def render_csv(records, runs=None):
    """CSV of the records; ``runs``, one label per record, adds a leading
    ``run`` column naming the report each row came from."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([r.name, str(r.k), _fmt(r.bound_value),
                               _fmt(r.measured_value), _fmt(r.slack),
                               r.verdict]))
    if runs is not None:
        lines = ["run," + CSV_HEADER] + [
            f"{_csv_field(run)},{line}" for run, line in zip(runs, lines[1:])]
    return "\n".join(lines) + "\n"


def render_table(reports):
    """Aligned text table; multiple reports are merged keyed by label."""
    rows = []
    multi = len(reports) > 1
    for rep in reports:
        for r in rep.records:
            row = ([rep.label()] if multi else []) + [
                r.name, str(r.k), f"{r.bound_value:.6g}",
                f"{r.measured_value:.6g}", f"{r.slack:.3g}", r.verdict,
                r.note]
            rows.append(row)
    headers = (["run"] if multi else []) + [
        "name", "k", "bound", "measured", "slack", "verdict", "note"]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    out.append("  ".join("-" * w for w in widths))
    for row in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(out) + "\n"


def _svg_polyline(xs, ys, color, dash=""):
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5"'
            f'{dash_attr} points="{pts}"/>')


def render_svg(name, series):
    """Line chart of bound and measured values against k.

    ``series`` maps a legend label to (k_list, value_list); returns the SVG
    document as a string.
    """
    width, height = 640, 400
    ml, mr, mt, mb = 60, 20, 30, 40
    all_k = [k for ks, _ in series.values() for k in ks]
    all_v = [v for _, vs in series.values() for v in vs
             if np.isfinite(v)]
    if not all_k or not all_v:
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                f'height="{height}"><text x="20" y="30">{name}: no finite '
                f'data</text></svg>')
    kmin, kmax = min(all_k), max(all_k)
    vmin, vmax = min(all_v), max(all_v)
    if kmax == kmin:
        kmax = kmin + 1
    if vmax == vmin:
        vmax = vmin + 1
    pad = 0.05 * (vmax - vmin)
    vmin, vmax = vmin - pad, vmax + pad

    def sx(k):
        return ml + (k - kmin) / (kmax - kmin) * (width - ml - mr)

    def sy(v):
        return height - mb - (v - vmin) / (vmax - vmin) * (height - mt - mb)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<text x="{ml}" y="18" font-size="14">{name}</text>',
             f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
             f'y2="{height - mb}" stroke="black"/>',
             f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
             f'stroke="black"/>',
             f'<text x="{(width - mr + ml) / 2:.0f}" y="{height - 8}" '
             f'font-size="12">k</text>']
    for tick in np.linspace(vmin, vmax, 5):
        y = sy(tick)
        parts.append(f'<line x1="{ml - 4}" y1="{y:.2f}" x2="{ml}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="4" y="{y + 4:.2f}" font-size="10">'
                     f'{tick:.4g}</text>')
    for i, (label, (ks, vs)) in enumerate(series.items()):
        finite = [(k, v) for k, v in zip(ks, vs) if np.isfinite(v)]
        if not finite:
            continue
        color = colors[i % len(colors)]
        dash = "5,3" if i % 2 else ""
        parts.append(_svg_polyline([sx(k) for k, _ in finite],
                                   [sy(v) for _, v in finite], color, dash))
        parts.append(f'<text x="{width - mr - 150}" y="{mt + 16 * i + 12}" '
                     f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_series_for(report, name):
    """Bound/measured series of one inequality family in a report."""
    ks, bounds, measured = [], [], []
    for r in report.records:
        if r.name == name and r.verdict != "skip":
            ks.append(r.k)
            bounds.append(r.bound_value)
            measured.append(r.measured_value)
    return {"bound": (ks, bounds), "measured": (ks, measured)}
