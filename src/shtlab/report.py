"""Report rows, deterministic CSV/JSON serialization, and merging.

Rows carry six fields (scenario, check, kind, value, threshold,
witness).  The verdict is derived, not stored: a row passes when its
value is finite and at most its threshold (``ReportRow.passes``), so
no row can disagree with its own numbers and a NaN never passes.
Serialization is byte-deterministic for a fixed row list: floats are
rendered with repr, non-finite numbers as quoted strings, and JSON uses
sorted keys.  Runtime lives only in the JSON meta block so it can be
excluded from byte comparisons.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

VALID_KINDS = ("exact", "ratio", "fit")


@dataclass
class ReportRow:
    scenario: str
    check: str
    kind: str
    value: float
    threshold: float
    witness: str = ""

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ValueError(f"kind must be one of {VALID_KINDS}")
        if not isinstance(self.witness, str):
            raise TypeError("witness must be a str")
        self.value = float(self.value)
        self.threshold = float(self.threshold)

    @staticmethod
    def passes(value: float, threshold: float) -> bool:
        """The one verdict rule of every row and check entry."""
        return bool(math.isfinite(value) and value <= threshold)

    @property
    def passed(self) -> bool:
        return self.passes(self.value, self.threshold)


def row_from_entry(scenario: str, entry: Dict[str, object], witness: str = "") -> ReportRow:
    """Adapt a verify-module check entry into a report row."""
    return ReportRow(
        scenario=scenario,
        check=str(entry["check"]),
        kind=str(entry["kind"]),
        value=float(entry["value"]),
        threshold=float(entry["threshold"]),
        witness=witness,
    )


def _num_str(x: float) -> str:
    return repr(float(x)) if math.isfinite(x) else ("inf" if x > 0 else ("-inf" if x < 0 else "nan"))


def _num_json(x: float) -> object:
    return float(x) if math.isfinite(x) else _num_str(x)


def rows_to_csv(rows: Sequence[ReportRow]) -> str:
    lines = ["scenario,check,kind,value,threshold,passed"]
    for r in rows:
        lines.append(
            ",".join(
                (
                    r.scenario,
                    r.check,
                    r.kind,
                    _num_str(r.value),
                    _num_str(r.threshold),
                    "true" if r.passed else "false",
                )
            )
        )
    return "\n".join(lines) + "\n"


def rows_to_json(
    rows: Sequence[ReportRow], meta: Optional[Dict[str, object]] = None
) -> str:
    doc = {
        "meta": dict(meta or {}),
        "rows": [
            {
                "scenario": r.scenario,
                "check": r.check,
                "kind": r.kind,
                "value": _num_json(r.value),
                "threshold": _num_json(r.threshold),
                "passed": r.passed,
                "witness": r.witness,
            }
            for r in rows
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def rows_from_json(text: str) -> List[ReportRow]:
    """The rows of a report that ``rows_to_json`` wrote.  Anything else
    raises ValueError naming the field, e.g. ``rows[3].kind: ...``: text
    that is not JSON, a row that lacks a field or holds a bad one, and a
    stored ``passed`` that the row's value and threshold contradict."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
        raise ValueError("rows: must be a list of row objects")
    rows = []
    for i, entry in enumerate(doc["rows"]):
        at = f"rows[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{at}: must be an object")
        for key in ("scenario", "check", "kind", "value", "threshold", "passed"):
            if key not in entry:
                raise ValueError(f"{at}.{key}: missing")
        for key in ("scenario", "check", "witness"):
            if not isinstance(entry.get(key, ""), str):
                raise ValueError(f"{at}.{key}: must be a string")
        if entry["kind"] not in VALID_KINDS:
            raise ValueError(f"{at}.kind: must be one of {VALID_KINDS}, not {entry['kind']!r}")
        for key in ("value", "threshold"):
            try:
                float(entry[key])
            except (TypeError, ValueError):
                raise ValueError(f"{at}.{key}: must be a number, not {entry[key]!r}") from None
        row = ReportRow(
            scenario=entry["scenario"],
            check=entry["check"],
            kind=entry["kind"],
            value=entry["value"],
            threshold=entry["threshold"],
            witness=entry.get("witness", ""),
        )
        if entry["passed"] is not row.passed:
            raise ValueError(
                f"{at}.passed: stored {json.dumps(entry['passed'])}, but value "
                f"{_num_str(row.value)} against threshold {_num_str(row.threshold)} "
                f"{'passes' if row.passed else 'fails'}"
            )
        rows.append(row)
    return rows


def merge_rows(groups: Iterable[Sequence[ReportRow]]) -> List[ReportRow]:
    """Deterministic merge: concatenate, then stable-sort by scenario id
    so each scenario keeps its emission order."""
    merged: List[ReportRow] = []
    for g in groups:
        merged.extend(g)
    merged.sort(key=lambda r: r.scenario)
    return merged


def write_report(
    rows: Sequence[ReportRow],
    out_dir: str,
    name: str = "report",
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, str]:
    import os

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    json_path = os.path.join(out_dir, f"{name}.json")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(rows_to_csv(rows))
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(rows_to_json(rows, meta))
    return {"csv": csv_path, "json": json_path}


def json_bytes_without_runtime(text: str) -> bytes:
    """Report bytes with the runtime meta entry dropped, for
    byte-determinism comparisons."""
    doc = json.loads(text)
    doc.get("meta", {}).pop("runtime_s", None)
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")
