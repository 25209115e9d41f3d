"""Report rows and their deterministic CSV/JSON serialization."""

import json
import math

import pytest

from shtlab.report import (
    ReportRow,
    json_bytes_without_runtime,
    merge_rows,
    row_from_entry,
    rows_from_json,
    rows_to_csv,
    rows_to_json,
    write_report,
)


def _row(**over):
    base = dict(
        scenario="s1",
        check="demo.check",
        kind="ratio",
        value=1.25,
        threshold=2.0,
        witness="ball 3",
    )
    base.update(over)
    return ReportRow(**base)


class TestRow:
    def test_coerces_types(self):
        r = ReportRow("s", "c", "exact", value="0.5", threshold=1)
        assert r.value == 0.5 and isinstance(r.value, float)
        assert r.threshold == 1.0 and isinstance(r.threshold, float)
        assert r.passed is True

    @pytest.mark.parametrize(
        "value, threshold, passed",
        [
            (0.5, 1.0, True),
            (1.0, 1.0, True),
            (1.5, 1.0, False),
            (-math.inf, 0.0, False),
            (math.inf, math.inf, False),
            (math.nan, math.inf, False),
            (0.0, math.nan, False),
        ],
    )
    def test_verdict_is_derived_from_value_and_threshold(self, value, threshold, passed):
        r = ReportRow("s", "c", "ratio", value, threshold)
        assert r.passed is passed is ReportRow.passes(value, threshold)

    def test_a_verdict_cannot_be_given(self):
        with pytest.raises(TypeError):
            ReportRow("s", "c", "exact", 0.0, 1.0, passed=False)
        with pytest.raises(TypeError):
            ReportRow("s", "c", "exact", 0.0, 1.0, False)  # once the sixth field
        with pytest.raises(AttributeError):
            _row().passed = False

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ReportRow("s", "c", "vibes", 0.0, 1.0)

    def test_row_from_entry(self):
        entry = {
            "check": "duality.holder",
            "kind": "ratio",
            "value": 0.25,
            "threshold": 1.0,
            "passed": True,
        }
        r = row_from_entry("line16", entry, witness="probe 2")
        assert r.scenario == "line16" and r.check == "duality.holder"
        assert r.witness == "probe 2" and r.passed
        # the entry's own verdict is not copied: the row derives it
        assert not row_from_entry("line16", dict(entry, value=2.0)).passed


class TestCsv:
    def test_exact_format(self):
        text = rows_to_csv([_row(), _row(check="x", value=2.5)])
        assert text == (
            "scenario,check,kind,value,threshold,passed\n"
            "s1,demo.check,ratio,1.25,2.0,true\n"
            "s1,x,ratio,2.5,2.0,false\n"
        )

    def test_nonfinite_rendering(self):
        text = rows_to_csv(
            [
                _row(value=math.inf),
                _row(value=-math.inf),
                _row(value=math.nan),
            ]
        )
        lines = text.splitlines()
        assert lines[1].split(",")[3] == "inf"
        assert lines[2].split(",")[3] == "-inf"
        assert lines[3].split(",")[3] == "nan"
        assert [line.split(",")[5] for line in lines[1:]] == ["false"] * 3

    def test_float_repr_is_shortest_roundtrip(self):
        text = rows_to_csv([_row(value=1.0 / 3.0)])
        cell = text.splitlines()[1].split(",")[3]
        assert float(cell) == 1.0 / 3.0
        assert cell == repr(1.0 / 3.0)


class TestJson:
    def test_round_trip(self):
        rows = [_row(), _row(check="other", kind="exact", value=0.0, witness="")]
        text = rows_to_json(rows, meta={"suite": "all"})
        back = rows_from_json(text)
        assert back == rows

    def test_nonfinite_round_trip(self):
        rows = [_row(value=math.inf, threshold=math.inf), _row(value=math.nan)]
        back = rows_from_json(rows_to_json(rows))
        assert back[0].value == math.inf and back[0].threshold == math.inf
        assert math.isnan(back[1].value)
        assert not back[0].passed and not back[1].passed

    def test_sorted_keys_and_meta(self):
        text = rows_to_json([_row()], meta={"b": 2, "a": 1})
        doc = json.loads(text)
        assert doc["meta"] == {"a": 1, "b": 2}
        # deterministic: same inputs give identical bytes
        assert text == rows_to_json([_row()], meta={"a": 1, "b": 2})

    def test_runtime_stripping(self):
        one = rows_to_json([_row()], meta={"suite": "all", "runtime_s": 1.23})
        two = rows_to_json([_row()], meta={"suite": "all", "runtime_s": 9.87})
        assert one != two
        assert json_bytes_without_runtime(one) == json_bytes_without_runtime(two)


class TestMergeAndFiles:
    def test_merge_is_stable_by_scenario(self):
        g1 = [_row(scenario="b", check="b.1"), _row(scenario="b", check="b.2")]
        g2 = [_row(scenario="a", check="a.1")]
        g3 = [_row(scenario="b", check="b.3")]
        merged = merge_rows([g1, g2, g3])
        assert [(r.scenario, r.check) for r in merged] == [
            ("a", "a.1"),
            ("b", "b.1"),
            ("b", "b.2"),
            ("b", "b.3"),
        ]

    def test_write_report_creates_both_files(self, tmp_path):
        rows = [_row()]
        paths = write_report(rows, str(tmp_path / "out"), name="demo", meta={"k": 1})
        assert paths["csv"].endswith("demo.csv")
        assert paths["json"].endswith("demo.json")
        with open(paths["csv"], encoding="utf-8") as fh:
            assert fh.read() == rows_to_csv(rows)
        with open(paths["json"], encoding="utf-8") as fh:
            assert rows_from_json(fh.read()) == rows


def _doc(**over):
    """A two-row report whose second row has the given fields replaced."""
    good = json.loads(rows_to_json([_row()]))["rows"][0]
    return json.dumps({"meta": {}, "rows": [good, dict(good, **over)]})


class TestRowsFromJsonRejects:
    """A report that ``rows_to_json`` could not have written raises
    ValueError naming the field."""

    @pytest.mark.parametrize(
        "text, field",
        [
            ("{not json", "not valid JSON"),
            ("[]", "rows:"),
            ('{"rows": [7]}', "rows[0]:"),
            (_doc(kind="vibes"), "rows[1].kind:"),
            (_doc(value="many"), "rows[1].value:"),
            (_doc(threshold=None), "rows[1].threshold:"),
            (_doc(check=3), "rows[1].check:"),
            (_doc(witness=True), "rows[1].witness:"),
            (_doc(passed=False), "rows[1].passed:"),
            (_doc(value=2.5), "rows[1].passed:"),
            (_doc(value="nan"), "rows[1].passed:"),
            (_doc(passed=1), "rows[1].passed:"),
        ],
    )
    def test_bad_field(self, text, field):
        with pytest.raises(ValueError) as exc:
            rows_from_json(text)
        assert str(exc.value).startswith(field)

    @pytest.mark.parametrize("key", ["scenario", "check", "kind", "value", "threshold", "passed"])
    def test_missing_field(self, key):
        doc = json.loads(_doc())
        del doc["rows"][1][key]
        with pytest.raises(ValueError, match=rf"^rows\[1\]\.{key}: missing$"):
            rows_from_json(json.dumps(doc))

    def test_a_missing_witness_reads_as_empty(self):
        doc = json.loads(_doc())
        del doc["rows"][1]["witness"]
        assert rows_from_json(json.dumps(doc))[1].witness == ""
