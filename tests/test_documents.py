import json
import math

import numpy as np
import pytest

import randova as rv
from helpers import random_table


class TestLoadTable:
    def test_bundled_table1(self, tables):
        table = tables["table1"]
        assert table.design is rv.DesignKind.RCB
        assert table.num_blocks == 2
        assert table.num_treatments == 2
        assert table.name == "table1"
        assert table.technical_error_sd == 0.0
        assert table.outcomes[0, 0, 0] == 10.0
        assert table.outcomes[1, 1, 1] == 50.0

    def test_load_from_path(self, tmp_path, tables):
        doc = rv.table_to_document(tables["table3"])
        path = tmp_path / "t3.json"
        path.write_text(json.dumps(doc))
        loaded = rv.load_table(path)
        assert np.array_equal(loaded.outcomes, tables["table3"].outcomes)

    def test_missing_file(self, tmp_path):
        with pytest.raises(rv.ParseError, match="cannot read"):
            rv.load_table(tmp_path / "nope.json")

    # an int of more than 4300 digits is refused by Python's int parser
    @pytest.mark.parametrize("text", ["{not json", '{"treatments": 1' + "0" * 5000 + "}"])
    def test_invalid_json(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(rv.ParseError, match="not valid JSON"):
            rv.load_table(path)

    # json's decoder raises RecursionError past the interpreter's stack
    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000 + "]" * 100_000, '{"outcomes": ' + "[" * 5000 + "]" * 5000 + "}"],
        ids=["array", "outcomes"],
    )
    def test_deeply_nested_json(self, tmp_path, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        with pytest.raises(rv.ParseError, match="nested too deeply to read as JSON"):
            rv.load_table(path)

    def test_document_must_be_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(rv.ParseError, match="JSON object"):
            rv.load_table(path)

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda d: d.pop("design"), "design"),
            (lambda d: d.update(design="split-plot"), "design"),
            (lambda d: d.update(treatments=1), "treatments"),
            (lambda d: d.pop("blocks"), "blocks"),
            (lambda d: d.update(blocks=0), "blocks"),
            (lambda d: d["outcomes"].pop(), "outcomes"),
            (lambda d: d["outcomes"][1].pop(), "block/row 2"),
            (lambda d: d["outcomes"][0][1].pop(), "block/row 1, plot/column 2"),
            (
                lambda d: d["outcomes"][1][0].__setitem__(1, "high"),
                "block/row 2, plot/column 1, treatment 2",
            ),
            (lambda d: d.update(technical_error_sd=-2), "technical_error_sd"),
            (lambda d: d.update(technical_error_sd="big"), "technical_error_sd"),
            # integers beyond the float range, as JSON may hold them
            (
                lambda d: d.update(technical_error_sd=10**400),
                "technical_error_sd: integer too large",
            ),
            (
                lambda d: d["outcomes"][1][0].__setitem__(1, -(10**400)),
                "block/row 2, plot/column 1, treatment 2: integer too large",
            ),
        ],
    )
    def test_diagnostics_name_the_field(self, tables, mutate, message):
        doc = rv.table_to_document(tables["table1"])
        mutate(doc)
        with pytest.raises(rv.ParseError, match=message):
            rv.load_table(doc)

    def test_non_finite_entry_rejected(self, tables):
        doc = rv.table_to_document(tables["table1"])
        doc["outcomes"][0][0][0] = float("inf")
        with pytest.raises(rv.ParseError, match="finite"):
            rv.load_table(doc)

    def test_unknown_fields_are_refused_by_name(self, tables):
        # a misspelt technical_error_sd would otherwise load as a noiseless table
        doc = rv.table_to_document(tables["table4"])
        doc["technical_error_SD"] = 5.0
        doc["note"] = "typo"
        with pytest.raises(rv.ParseError, match="'technical_error_SD', 'note'"):
            rv.load_table(doc)

    def test_a_long_bad_row_is_echoed_short(self, tables):
        # a row of a million numbers in place of two cells: the diagnostic
        # names the row and echoes its first items, not megabytes
        doc = rv.table_to_document(tables["table1"])
        doc["outcomes"][1] = list(range(10**6))
        with pytest.raises(rv.ParseError) as raised:
            rv.load_table(doc)
        message = str(raised.value)
        assert message.startswith("outcomes, block/row 2: expected 2 plots/columns, got [0, 1, 2,")
        assert len(message) < 300

    def test_many_unknown_fields_are_named_short(self, tables):
        doc = rv.table_to_document(tables["table4"])
        doc.update({f"extra{i}": 0 for i in range(100_000)})
        with pytest.raises(rv.ParseError) as raised:
            rv.load_table(doc)
        message = str(raised.value)
        assert message.startswith("unknown field(s) 'extra0', 'extra1',")
        assert "'extra7' and 99992 more; a table document has design," in message
        assert len(message) < 300

    def test_a_short_bad_cell_is_echoed_in_full(self, tables):
        doc = rv.table_to_document(tables["table1"])
        doc["outcomes"][1][0] = [1.5, 2.5, 3.5]
        with pytest.raises(rv.ParseError) as raised:
            rv.load_table(doc)
        assert str(raised.value) == (
            "outcomes, block/row 2, plot/column 1: expected 2 potential outcomes,"
            " got [1.5, 2.5, 3.5]"
        )

    def test_ls_blocks_field_must_agree(self, tables):
        doc = rv.table_to_document(tables["table2"])
        doc["blocks"] = 4
        with pytest.raises(rv.ParseError, match="blocks"):
            rv.load_table(doc)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["table1", "table2", "table3", "table4"])
    def test_bundled_documents_round_trip(self, tables, name):
        doc = rv.table_to_document(tables[name])
        again = rv.table_to_document(rv.load_table(doc))
        assert doc == again

    def test_random_tables_round_trip(self):
        rng = np.random.default_rng(33)
        for design in (rv.DesignKind.RCB, rv.DesignKind.LS):
            table = random_table(rng, design, sd=0.25)
            doc = rv.table_to_document(table)
            loaded = rv.load_table(doc)
            assert np.array_equal(loaded.outcomes, table.outcomes)
            assert loaded.technical_error_sd == table.technical_error_sd
            assert rv.table_to_document(loaded) == doc

    @pytest.mark.parametrize("name", [None, "", "table", "naïve \"quoted\" name"])
    @pytest.mark.parametrize("design", [rv.DesignKind.RCB, rv.DesignKind.LS])
    def test_named_tables_round_trip(self, design, name):
        outcomes = random_table(np.random.default_rng(5), design).outcomes
        table = rv.PotentialOutcomeTable(design, outcomes, 0.5, name=name)
        assert rv.load_table(rv.table_to_document(table)) == table


class TestReportSerialization:
    def test_floats_round_trip_losslessly(self):
        rng = np.random.default_rng(44)
        values = rng.normal(scale=1e6, size=50).tolist() + [
            1e-300,
            1e300,
            0.1,
            2 / 3,
            math.pi,
        ]
        text = rv.dumps_report({"values": values})
        parsed = json.loads(text)
        assert parsed["values"] == values

    def test_seventeen_significant_digits(self):
        text = rv.dumps_report({"x": 2 / 3})
        assert "0.66666666666666663" in text

    def test_non_finite_f_values(self):
        text = rv.dumps_report({"inf": math.inf, "deg": math.nan, "ninf": -math.inf})
        parsed = json.loads(text)
        assert parsed == {"inf": "inf", "deg": "degenerate", "ninf": "-inf"}

    def test_numpy_values_supported(self):
        text = rv.dumps_report(
            {
                "arr": np.array([1.5, 2.5]),
                "int": np.int64(7),
                "float": np.float64(0.25),
            }
        )
        parsed = json.loads(text)
        assert parsed == {"arr": [1.5, 2.5], "int": 7, "float": 0.25}

    def test_nested_structures(self):
        doc = {"a": [{"b": (1, 2)}, []], "c": {"d": None, "e": True}}
        parsed = json.loads(rv.dumps_report(doc))
        assert parsed == {"a": [{"b": [1, 2]}, []], "c": {"d": None, "e": True}}

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            rv.dumps_report({"x": object()})

    def test_report_envelope(self):
        doc = rv.report_document("op", {"table": "foo"}, {"value": 1.0}, seed=3)
        assert doc["operation"] == "op"
        assert doc["engine_version"] == rv.__version__
        assert doc["inputs"] == {"table": "foo"}
        assert doc["value"] == 1.0
        assert doc["seed"] == 3
