import pytest

from trap4phish.analyzers import analyze_xlsx, compute_macro_metrics
from trap4phish.analyzers.xlsx import MACRO_METRIC_NAMES, SCHEMA, SELECTED, XLSX_COLUMNS
from trap4phish.synth import build_vba_project

from conftest import make_xlsx


class TestMacroMetrics:
    def test_empty_source_all_zero(self):
        metrics = compute_macro_metrics("")
        assert metrics == dict.fromkeys(MACRO_METRIC_NAMES, 0)

    def test_chr_call_sites(self):
        m = compute_macro_metrics("x = Chr(72) & ChrW(105)")
        assert m["chr_count"] == 2

    def test_chr_variants(self):
        m = compute_macro_metrics("a = chr$(65) + CHRW(66) + Chr(67) + fooChr(1)")
        assert m["chr_count"] == 3

    def test_arithmetic_outside_strings(self):
        m = compute_macro_metrics('a = 1 + 2 * 3 - "x+y"')
        assert m["arithmetic_operator_count"] == 3

    def test_mod_keyword_counts(self):
        m = compute_macro_metrics("a = 7 Mod 2")
        assert m["arithmetic_operator_count"] == 1

    def test_vocab_and_tokens(self):
        m = compute_macro_metrics("a = a + b")
        # tokens: a, =, a, +, b -> 5 total, 4 distinct
        assert m["token_count"] == 5
        assert m["vocab_size"] == 4
        assert m["vocab_size"] <= m["token_count"]

    def test_max_line_length(self):
        m = compute_macro_metrics("ab\n" + "x" * 50 + "\ncd")
        assert m["max_line_length"] == 50

    def test_trailing_whitespace_only_changes_max_line_length(self):
        source = 'Sub A()\n  x = 1 + 2\n  s = "hi"\nEnd Sub'
        padded = "\n".join(line + "   " for line in source.split("\n"))
        a = compute_macro_metrics(source)
        b = compute_macro_metrics(padded)
        for field in MACRO_METRIC_NAMES:
            if field == "max_line_length":
                continue
            assert a[field] == b[field], field

    def test_structure_counts(self):
        source = (
            "' a comment\n"
            "Private Sub Worker()\n"
            "  For i = 1 To 3\n"
            "    If i > 1 Then y = &H1F\n"
            "  Next\n"
            "End Sub\n"
            "Function Helper()\n"
            "End Function\n"
        )
        m = compute_macro_metrics(source)
        assert tuple(m) == MACRO_METRIC_NAMES
        assert m["sub_count"] == 1
        assert m["function_count"] == 1
        assert m["comment_count"] == 1
        assert m["loop_count"] == 1
        assert m["if_count"] == 1
        assert m["hex_literal_count"] == 1


class TestAnalyzeXlsx:
    def test_schema_shape(self):
        assert len(SCHEMA.columns) == 48
        assert len(XLSX_COLUMNS) == 48

    def test_cell_inventory(self):
        data = make_xlsx(
            '<worksheet><sheetData><row r="1">'
            '<c r="A1"><v>1</v></c><c r="B1"><v>2</v></c><c r="C1" t="s"><v>0</v></c>'
            "</row></sheetData></worksheet>",
            shared=["abc"],
        )
        d = analyze_xlsx(data).features.as_dict()
        assert d["numeric_cell_count"] == 2
        assert d["string_cell_count"] == 1
        assert d["avg_cell_length"] == 3.0
        assert d["max_rows"] == 1 and d["max_cols"] == 3

    @pytest.mark.parametrize("index", ["-1", "+0", " 0", "0_0", "\u0660", ""])
    def test_shared_index_is_ascii_digits_only(self, index):
        # int() takes the first four; the sign of -1 would index from the end
        data = make_xlsx(
            '<worksheet><sheetData><row r="1">'
            f'<c r="A1" t="s"><v>{index}</v></c><c r="B1" t="s"><v>5</v></c>'
            "</row></sheetData></worksheet>",
            shared=["first", "last"],
        )
        d = analyze_xlsx(data).features.as_dict()
        assert d["string_cell_count"] == 2  # both empty
        assert d["avg_cell_length"] == 0

    def test_value_with_underscore_is_not_numeric(self):
        data = make_xlsx(
            '<worksheet><sheetData><row r="1">'
            '<c r="A1"><v>1_0</v></c><c r="B1"><v>1e3</v></c><c r="C1"><v>_1</v></c>'
            "</row></sheetData></worksheet>"
        )
        d = analyze_xlsx(data).features.as_dict()
        assert d["numeric_cell_count"] == 1

    @pytest.mark.parametrize("row", ["1_0", "-10", " 10", "+10", "\u0661\u0660"])
    def test_row_number_is_ascii_digits_only(self, row):
        # a row read as no number counts by its position, here 2
        data = make_xlsx(
            f'<worksheet><sheetData><row r="1"></row><row r="{row}"><c><v>1</v></c></row>'
            "</sheetData></worksheet>"
        )
        assert analyze_xlsx(data).features.as_dict()["max_rows"] == 2

    @pytest.mark.parametrize("sheet, max_rows, max_cols", [
        ('<row r="' + "9" * 400 + '"><c r="A1"><v>1</v></c></row>', 1, 1),
        ('<row r="1"><c r="A1"/><c r="A' + "1" * 5000 + '"><v>1</v></c></row>', 1, 2),
        ('<row r="1"><c r="A1"/><c r="' + "A" * 20000 + '1"><v>1</v></c></row>', 1, 2),
        ('<row r="1048577"/><c r="A1"/><c r="A1048577"/><c r="XFE1"/>', 1, 3),
        ('<row r="1048576"/><c r="XFD1048576"/>', 1048576, 16384),
    ], ids=["row_of_400_digits", "cell_row_of_5000_digits", "column_of_20000_letters", "one_past", "at_limits"])
    def test_references_past_the_sheet_limits_count_as_none(self, sheet, max_rows, max_cols):
        # a row number past 1,048,576 or a column past XFD names no cell: the
        # row counts by its position among rows, the cell by its position
        # among cells, and neither raises
        d = analyze_xlsx(make_xlsx(f"<worksheet><sheetData>{sheet}</sheetData></worksheet>")).features.as_dict()
        assert (d["max_rows"], d["max_cols"]) == (max_rows, max_cols)

    def test_no_macro_zero_metrics(self):
        data = make_xlsx("<worksheet/>")
        d = analyze_xlsx(data).features.as_dict()
        assert d["macro_token_count"] == 0
        assert d["macro_vocab_size"] == 0

    def test_text_entropy_hand_value(self):
        # string cells "aa" and "bbbb": entropy of "aabbbb" = 0.9183
        data = make_xlsx(
            '<worksheet><sheetData><row r="1">'
            '<c r="A1" t="s"><v>0</v></c><c r="B1" t="s"><v>1</v></c>'
            "</row></sheetData></worksheet>",
            shared=["aa", "bbbb"],
        )
        d = analyze_xlsx(data).features.as_dict()
        assert d["avg_cell_length"] == 3.0
        assert d["entropy_of_text"] == pytest.approx(0.9183, abs=1e-4)

    def test_remote_template_relationship(self):
        data = make_xlsx(
            "<worksheet/>",
            extra_entries={
                "xl/_rels/workbook.xml.rels": (
                    "<Relationships>"
                    '<Relationship Id="rId9" Type="http://x/attachedTemplate" '
                    'Target="http://x.test/t.dotm" TargetMode="External"/>'
                    "</Relationships>"
                )
            },
        )
        assert analyze_xlsx(data).features["remote_template_present"] == 1

    def test_plain_hyperlink_is_not_remote_template(self):
        data = make_xlsx(
            "<worksheet/>",
            extra_entries={
                "xl/worksheets/_rels/sheet1.xml.rels": (
                    "<Relationships>"
                    '<Relationship Id="rId2" Type="http://x/hyperlink" '
                    'Target="https://normal.example/page" TargetMode="External"/>'
                    "</Relationships>"
                )
            },
        )
        assert analyze_xlsx(data).features["remote_template_present"] == 0

    def test_macro_metrics_from_project(self):
        source = "Sub Workbook_Open()\n  p = Chr(104) & Chr(105)\nEnd Sub\n"
        data = make_xlsx(
            "<worksheet/>",
            extra_entries={"xl/vbaProject.bin": build_vba_project([("ThisWorkbook", source)])},
        )
        d = analyze_xlsx(data).features.as_dict()
        assert d["macro_chr_count"] == 2
        assert d["macro_token_count"] > 0
        assert d["auto_exec_name_present"] == 1

    def test_api_keywords_counted_case_insensitively(self):
        source = (
            "Sub Macro1()\n"
            '  URLDownloadToFile 0, "u", "f", 0, 0\n'
            "  ShellExecute 0\n"
            "  CreateProcessA\n"
            '  Set h = CreateObject("WinHttp.WinHttpRequest.5.1")\n'
            "End Sub\n"
        )
        data = make_xlsx(
            "<worksheet/>",
            extra_entries={"xl/vbaProject.bin": build_vba_project([("Module1", source)])},
        )
        d = analyze_xlsx(data).features.as_dict()
        # urldownloadtofile, shellexecute, createprocess and winhttp twice
        assert d["api_keyword_count"] == 5
        assert d["auto_exec_name_present"] == 0

    def test_sheet_properties(self):
        workbook = (
            "<workbook><sheets>"
            '<sheet name="A" sheetId="1"/>'
            '<sheet name="B" sheetId="2" state="hidden"/>'
            '<sheet name="C" sheetId="3" state="veryHidden"/>'
            "</sheets>"
            '<definedNames><definedName name="Auto_Open">A!$A$1</definedName></definedNames>'
            "</workbook>"
        )
        data = make_xlsx("<worksheet><sheetProtection sheet=\"1\"/></worksheet>",
                         workbook_xml=workbook)
        d = analyze_xlsx(data).features.as_dict()
        assert d["sheet_count"] == 3
        assert d["hidden_sheet_count"] == 1
        assert d["very_hidden_sheet_count"] == 1
        assert d["protected_sheet_count"] == 1
        assert d["defined_name_count"] == 1
        assert d["suspicious_defined_name_count"] == 1

    def test_media_statistics(self):
        data = make_xlsx(
            "<worksheet/>",
            extra_entries={
                "xl/media/image1.png": b"\x89PNG" + b"\x00" * 100,
                "xl/media/image2.jpeg": b"\xff\xd8" + b"\x00" * 300,
                "xl/media/other.dat": b"\x00" * 10,
                "xl/drawings/drawing1.xml": "<xdr/>",
            },
        )
        d = analyze_xlsx(data).features.as_dict()
        assert d["media_entry_count"] == 3
        assert d["embedded_image_count"] == 2
        assert d["largest_image_bytes"] == 302
        assert d["image_type_count"] == 3
        assert d["drawing_part_count"] == 1

    def test_cell_count_invariant(self):
        data = make_xlsx(
            '<worksheet><sheetData><row r="1">'
            '<c r="A1"><v>5</v></c><c r="B1"/><c r="C1" t="s"><v>0</v></c>'
            "</row></sheetData></worksheet>",
            shared=["zz"],
        )
        d = analyze_xlsx(data).features.as_dict()
        assert d["numeric_cell_count"] + d["string_cell_count"] <= 3

    def test_string_cells_zero_implies_avg_zero(self):
        data = make_xlsx('<worksheet><sheetData><row r="1"><c r="A1"><v>1</v></c></row></sheetData></worksheet>')
        d = analyze_xlsx(data).features.as_dict()
        assert d["string_cell_count"] == 0
        assert d["avg_cell_length"] == 0

    def test_projection(self):
        data = make_xlsx("<worksheet/>")
        report = analyze_xlsx(data)
        projected = report.features.project(SELECTED)
        assert projected.schema.columns == SELECTED.columns
        assert len(projected.values) == 10
        macro_columns = [c for c in SELECTED.columns if c.startswith("macro_")]
        for c in macro_columns:
            assert projected[c] == 0

    def test_compress_extract_metric_stability(self):
        # metrics on compress-then-extract source equal metrics on the original
        from trap4phish.containers import cfb_open, vba_extract
        source = "Sub A()\n  x = Chr(65) + 1 - 2\nEnd Sub\n"
        proj = build_vba_project([("M", source)])
        modules = vba_extract(cfb_open(proj))
        assert compute_macro_metrics(modules[0].source) == compute_macro_metrics(source)
