import dataclasses
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import cohort_fixture_texts
from spikesev.ingest import (
    INCONCLUSIVE_STATUS_TERMS,
    MILD_STATUS_TERMS,
    REASON_INCOMPLETE_DATE,
    REASON_INCONCLUSIVE_STATUS,
    REASON_MISSING_METADATA,
    REASON_MISSING_SEQUENCE,
    REASON_UNMAPPED_STATUS,
    REASON_UNSUPPORTED_GENDER,
    SEVERE_STATUS_TERMS,
    FastaError,
    MetadataError,
    RawMetadataRow,
    Severity,
    build_cohort,
    cohort_stats,
    normalize_status,
    parse_fasta,
    parse_metadata,
    read_cohort,
    write_cohort,
)
from spikesev.scales import AMINO_ACIDS


class TestParseFasta:
    def test_multiline_concatenation(self):
        records, rejects = parse_fasta(">a\nMKV\nLL\n")
        assert records == [("a", "MKVLL")]
        assert rejects == []

    def test_record_order_preserved(self):
        records, _ = parse_fasta(">a\nMKV\n>b\nACD\n")
        assert [r[0] for r in records] == ["a", "b"]

    def test_invalid_character_excluded_with_position(self):
        records, rejects = parse_fasta(">a\nMKX\n")
        assert records == []
        assert len(rejects) == 1
        assert rejects[0].record_id == "a"
        assert rejects[0].position == 3
        assert rejects[0].character == "X"

    @pytest.mark.parametrize("bad", ["-", "*", "B", "É", "Ω"])
    def test_non_canonical_alphabet_rejected(self, bad):
        _, rejects = parse_fasta(f">r\nMK{bad}V\n")
        assert rejects and (rejects[0].position, rejects[0].character) == (3, bad)

    @pytest.mark.parametrize(
        "sequence, position, character",
        [("MKX-V", 3, "X"), ("MÉKΩ", 2, "É"), ("MKVΩ*", 4, "Ω"), ("AC\U0001F600DX", 3, "\U0001F600")],
    )
    def test_first_of_two_bad_characters_reported(self, sequence, position, character):
        _, rejects = parse_fasta(f">r\n{sequence}\n")
        assert [(r.position, r.character) for r in rejects] == [(position, character)]

    def test_lowercase_input_uppercased(self):
        records, _ = parse_fasta(">a\nmkvll\n")
        assert records == [("a", "MKVLL")]

    # `str.upper` maps these to ASCII residues: ß -> SS, ﬁ -> FI, ı -> I, ſ -> S.
    @pytest.mark.parametrize(
        "sequence, position, character",
        [("MKßV", 3, "ß"), ("mkßv", 3, "ß"), ("MKﬁV", 3, "ﬁ"), ("MKıV", 3, "ı"), ("acdſ", 4, "ſ")],
    )
    def test_non_ascii_letters_are_not_upper_cased_into_residues(self, sequence, position, character):
        records, rejects = parse_fasta(f">a\n{sequence}\n")
        assert records == []
        assert [(r.record_id, r.position, r.character) for r in rejects] == [("a", position, character)]

    def test_sequence_before_header_is_parse_error(self):
        with pytest.raises(FastaError, match="line 1"):
            parse_fasta("MKVLL\n>a\nMKV\n")

    def test_empty_input(self):
        assert parse_fasta("") == ([], [])

    @pytest.mark.parametrize("second", ["GGG", "GXG"], ids=["valid", "invalid"])
    def test_repeated_record_id_refused_with_both_header_lines(self, second):
        with pytest.raises(FastaError, match=re.escape("line 3: repeated record id 'A1' (first on line 1)")):
            parse_fasta(f">A1\nMKV\n>A1\n{second}\n>B2\nAAA\n")

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="abcdefgh123", min_size=1, max_size=8),
                st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=150),
            ),
            max_size=8,
            unique_by=lambda record: record[0],
        )
    )
    def test_round_trip_identity(self, records):
        text = "".join(
            f">{rec_id}\n" + "".join(seq[i : i + 60] + "\n" for i in range(0, len(seq), 60))
            for rec_id, seq in records
        )
        parsed, rejects = parse_fasta(text)
        assert rejects == []
        assert parsed == records


META_HEADER = "accession\tstatus\tage\tgender\tclade\tlineage\tdate"


class TestParseMetadata:
    def test_complete_row(self):
        text = META_HEADER + "\nEPI1\tMild\t54\tmale\tGR\tP.1\t2021-03-05\n"
        rows = parse_metadata(text, "\t")
        assert rows == [
            RawMetadataRow("EPI1", "Mild", 54, "male", "GR", "P.1", "2021-03-05")
        ]

    def test_empty_age_cell_maps_to_absent(self):
        text = META_HEADER + "\nEPI1\tMild\t\tmale\tGR\tP.1\t2021-03-05\n"
        assert parse_metadata(text, "\t")[0].age is None

    def test_non_numeric_age_maps_to_absent(self):
        text = META_HEADER + "\nEPI1\tMild\tunknown\tmale\tGR\tP.1\t2021-03-05\n"
        assert parse_metadata(text, "\t")[0].age is None

    def test_duplicate_accession_is_error(self):
        text = (
            META_HEADER
            + "\nEPI1\tMild\t54\tmale\tGR\tP.1\t2021-03-05"
            + "\nEPI1\tDEAD\t60\tmale\tGR\tP.1\t2021-03-06\n"
        )
        with pytest.raises(MetadataError, match="EPI1"):
            parse_metadata(text, "\t")

    def test_missing_mandatory_column_named(self):
        text = "accession\tstatus\tage\tgender\tclade\tdate\nEPI1\tMild\t54\tm\tGR\t2021-03-05\n"
        with pytest.raises(MetadataError, match="lineage"):
            parse_metadata(text, "\t")

    def test_headers_case_insensitive_with_synonyms(self):
        text = (
            "Accession ID,Patient Status,AGE,Sex,Clade,Pango Lineage,Collection Date\n"
            "EPI1,Mild,54,male,GR,P.1,2021-03-05\n"
        )
        row = parse_metadata(text, ",")[0]
        assert row.accession_id == "EPI1"
        assert row.lineage == "P.1"
        assert row.collection_date == "2021-03-05"

    @pytest.mark.parametrize("column", ["country", "Location", "continent"])
    def test_extra_column_is_ignored(self, column):
        plain = META_HEADER + "\nEPI1\tMild\t54\tmale\tGR\tP.1\t2021-03-05\n"
        extra = f"accession\t{column}\tstatus\tage\tgender\tclade\tlineage\tdate\n" \
                "EPI1\tBrazil\tMild\t54\tmale\tGR\tP.1\t2021-03-05\n"
        assert parse_metadata(extra, "\t") == parse_metadata(plain, "\t")

    # Every character `str.splitlines` breaks a line at, and the tab.
    LINE_SPLITTING = ["\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

    def test_line_splitting_set_is_what_splitlines_splits_on(self):
        breaks = {chr(c) for c in range(0x110000) if len(f"a{chr(c)}b".splitlines()) > 1}
        assert breaks | {"\t"} == set(self.LINE_SPLITTING)

    @staticmethod
    def _with_second_row(column, value):
        cells = dict(accession="A1", status="Mild", age="40", gender="male", clade="GR",
                     lineage="B.1", date="2021-01-02")
        cells[column] = value
        return (
            "accession,status,age,gender,clade,lineage,date\n"
            "A0,Mild,40,male,GR,B.1,2021-01-02\n" + ",".join(f'"{v}"' for v in cells.values()) + "\n"
        )

    @pytest.mark.parametrize("char", LINE_SPLITTING, ids=[hex(ord(c)) for c in LINE_SPLITTING])
    def test_cell_with_a_line_break_is_refused_with_line_and_column(self, char):
        with pytest.raises(MetadataError, match="line 3, column 'clade': tab or line break"):
            parse_metadata(self._with_second_row("clade", f"G{char}R"), ",")

    @pytest.mark.parametrize("column", ["accession", "status", "age", "gender", "clade", "lineage", "date"])
    def test_every_read_column_is_checked(self, column):
        with pytest.raises(MetadataError, match=f"line 3, column '{column}'"):
            parse_metadata(self._with_second_row(column, "a\tb"), ",")

    def test_tab_in_accession_refused(self):
        text = 'Accession ID,status,age,gender,clade,lineage,date\n"A\t1",Mild,40,male,GR,B.1,2021-01-02\n'
        with pytest.raises(MetadataError, match="line 2, column 'Accession ID': tab or line break"):
            parse_metadata(text, ",")

    def test_lineage_with_line_separator_refused(self):
        text = META_HEADER + "\nEPI1\tMild\t54\tmale\tGR\tB.1\u2028P.1\t2021-03-05\n"
        with pytest.raises(MetadataError, match="line 2, column 'lineage'"):
            parse_metadata(text, "\t")

    def test_line_of_a_row_after_a_multi_line_cell(self):
        text = (
            "accession,status,age,gender,clade,lineage,date\n"
            'A0,"Mild\n",40,male,GR,B.1,2021-01-02\n'
            'A1,Mild,40,male,"G\nR",B.1,2021-01-02\n'
        )
        with pytest.raises(MetadataError, match="line 4, column 'clade'"):
            parse_metadata(text, ",")

    def test_line_break_outside_trimmed_cell_is_kept(self):
        text = 'accession,status,age,gender,clade,lineage,date\nA1,Mild,40,male,"GR\t\n",B.1,2021-01-02\n'
        assert parse_metadata(text, ",")[0].clade == "GR"

    def test_unread_column_may_hold_a_tab(self):
        text = 'accession,status,age,gender,clade,lineage,date,note\nA1,Mild,40,male,GR,B.1,2021-01-02,"a\tb"\n'
        assert parse_metadata(text, ",")[0].clade == "GR"

    @pytest.mark.parametrize("delimiter", [",", "\t"])
    def test_crlf_line_ends_parse_as_lf(self, delimiter):
        rows = [META_HEADER, "EPI1\tMild\t54\tmale\tGR\tP.1\t2021-03-05", "EPI2\tDEAD\t60\tfemale\tGH\tB.1\t2021-03-06"]
        lines = [row.replace("\t", delimiter) for row in rows]
        crlf = parse_metadata("".join(f"{line}\r\n" for line in lines), delimiter)
        assert crlf == parse_metadata("".join(f"{line}\n" for line in lines), delimiter)
        assert [r.accession_id for r in crlf] == ["EPI1", "EPI2"]

    @pytest.mark.parametrize("text", [
        "accession,status,age,gender,clade,lineage,date\nA1,Mild,40,male,G\rR,B.1,2021-01-02\n",
        "accession,status,age,gender,clade,lineage,date\nA0,Mild,40,male,GR,B.1,2021-01-02\n"
        "A1,Mild,40,male,GR,B.1,2021-01-02,\rnote\n",
        "accession,status,age,gender\rclade,lineage,date\nA1,Mild,40,male,GR,B.1,2021-01-02\n",
    ], ids=["read-cell", "unread-cell", "header"])
    def test_bare_carriage_return_in_an_unquoted_cell_is_refused_with_its_line(self, text):
        line = text.split("\r")[0].count("\n") + 1
        with pytest.raises(MetadataError, match=f"^line {line}: new-line character seen in unquoted field$"):
            parse_metadata(text, ",")


class TestNormalizeStatus:
    @pytest.mark.parametrize("term", ["DEAD", "Deceased", "Intensive Care Unit"])
    def test_severe_terms(self, term):
        assert normalize_status(term) is Severity.SEVERE

    @pytest.mark.parametrize("term", ["Asymptomatic", "Mild", "No clinical signs"])
    def test_mild_terms(self, term):
        assert normalize_status(term) is Severity.MILD

    @pytest.mark.parametrize("term", ["Hospitalized", "Live", "Moderate"])
    def test_inconclusive_terms(self, term):
        assert normalize_status(term) is Severity.INCONCLUSIVE

    def test_unknown_text_unmapped(self):
        assert normalize_status("recovering at home") is Severity.UNMAPPED

    def test_every_vocabulary_term_maps_to_its_class(self):
        for terms, severity in (
            (MILD_STATUS_TERMS, Severity.MILD),
            (SEVERE_STATUS_TERMS, Severity.SEVERE),
            (INCONCLUSIVE_STATUS_TERMS, Severity.INCONCLUSIVE),
        ):
            for term in terms:
                assert normalize_status(term) is severity, term

    def test_punctuation_distinguishes_terms(self):
        # trailing period is part of the vocabulary entry, not stripped
        assert normalize_status("Not Hospitalized.") is Severity.MILD
        assert normalize_status("Hospitalized, Live.") is Severity.SEVERE

    @given(st.text(max_size=40))
    def test_total_function(self, text):
        assert normalize_status(text) in Severity

    @given(st.text(max_size=40))
    def test_agrees_with_pre_normalized_input(self, text):
        pre_normalized = " ".join(text.split()).casefold()
        assert normalize_status(text) is normalize_status(pre_normalized)

    @given(st.sampled_from(MILD_STATUS_TERMS + SEVERE_STATUS_TERMS + INCONCLUSIVE_STATUS_TERMS))
    def test_invariant_under_case_and_whitespace(self, term):
        mangled = "  " + term.upper().replace(" ", "   ") + " \t"
        assert normalize_status(mangled) is normalize_status(term)


def _row(accession="EPI1", status="Mild", age=54, gender="male", clade="GR",
         lineage="P.1", date="2021-03-05"):
    return RawMetadataRow(accession, status, age, gender, clade, lineage, date)


class TestBuildCohort:
    FASTA = [("EPI1", "MKVLL")]

    def test_complete_mild_record_retained(self):
        cohort, report = build_cohort(self.FASTA, [_row()])
        assert len(cohort) == 1
        assert cohort[0].label is Severity.MILD
        assert report.retained == 1

    def test_inconclusive_status_excluded(self):
        _, report = build_cohort(self.FASTA, [_row(status="Live")])
        assert report.counts[REASON_INCONCLUSIVE_STATUS] == 1

    def test_unmapped_status_excluded(self):
        _, report = build_cohort(self.FASTA, [_row(status="feeling fine")])
        assert report.counts[REASON_UNMAPPED_STATUS] == 1

    def test_missing_age_excluded(self):
        _, report = build_cohort(self.FASTA, [_row(age=None)])
        assert report.counts[REASON_MISSING_METADATA] == 1

    def test_unsupported_gender_excluded(self):
        _, report = build_cohort(self.FASTA, [_row(gender="unknown")])
        assert report.counts[REASON_UNSUPPORTED_GENDER] == 1

    def test_gender_case_folded(self):
        cohort, _ = build_cohort(self.FASTA, [_row(gender="Female")])
        assert cohort[0].gender == "female"

    @pytest.mark.parametrize("date", ["2021", "2021-03", "2021-3-5", "2021-02-30"])
    def test_partial_or_invalid_date_excluded(self, date):
        _, report = build_cohort(self.FASTA, [_row(date=date)])
        assert report.counts[REASON_INCOMPLETE_DATE] == 1

    def test_metadata_without_sequence(self):
        _, report = build_cohort([], [_row()])
        assert report.counts[REASON_MISSING_SEQUENCE] == 1

    def test_every_row_accounted_for(self):
        fasta_text, meta_text = cohort_fixture_texts()
        records, rejects = parse_fasta(fasta_text)
        rows = parse_metadata(meta_text, "\t")
        cohort, report = build_cohort(records, rows)
        assert report.retained + report.excluded == len(rows)
        assert report.retained == len(cohort)
        assert all(r.label in (Severity.MILD, Severity.SEVERE) for r in cohort)


class TestCohortStats:
    def _records(self):
        fasta_text, meta_text = cohort_fixture_texts()
        cohort, _ = build_cohort(parse_fasta(fasta_text)[0], parse_metadata(meta_text, "\t"))
        return cohort

    def test_label_table(self):
        fasta = [("a", "MKV"), ("b", "ACD"), ("c", "MLL")]
        rows = [
            _row("a", "Mild"),
            _row("b", "Asymptomatic"),
            _row("c", "DEAD"),
        ]
        cohort, _ = build_cohort(fasta, rows)
        stats = cohort_stats(cohort)
        assert stats.label_counts == [("mild", 2), ("severe", 1)]

    def test_mean_age_two_decimals(self):
        fasta = [("a", "MKV"), ("b", "ACD")]
        cohort, _ = build_cohort(fasta, [_row("a", age=50), _row("b", age=58)])
        stats = cohort_stats(cohort)
        assert stats.mean_age == pytest.approx(54.0)
        assert "mean_age\toverall\t54.00" in stats.to_tsv()

    def test_single_lineage_ranked_first_with_full_count(self):
        records = self._records()
        only_p1 = [r for r in records if r.lineage == "P.1"]
        stats = cohort_stats(only_p1)
        assert stats.lineage_counts[0] == ("P.1", len(only_p1))

    def test_descending_order_with_name_tiebreak(self):
        records = self._records()
        stats = cohort_stats(records)
        counts = [c for _, c in stats.lineage_counts]
        assert counts == sorted(counts, reverse=True)
        for (name_a, count_a), (name_b, count_b) in zip(stats.lineage_counts, stats.lineage_counts[1:]):
            if count_a == count_b:
                assert name_a < name_b

    def test_empty_cohort_is_error(self):
        with pytest.raises(ValueError, match="empty cohort"):
            cohort_stats([])


def test_cohort_file_round_trip(tmp_path):
    fasta_text, meta_text = cohort_fixture_texts()
    cohort, _ = build_cohort(parse_fasta(fasta_text)[0], parse_metadata(meta_text, "\t"))
    path = tmp_path / "cohort.tsv"
    write_cohort(cohort, path)
    assert read_cohort(path) == cohort


@pytest.mark.parametrize("label", [Severity.INCONCLUSIVE, Severity.UNMAPPED])
def test_read_cohort_refuses_labels_other_than_mild_and_severe(tmp_path, label):
    fasta_text, meta_text = cohort_fixture_texts()
    cohort, _ = build_cohort(parse_fasta(fasta_text)[0], parse_metadata(meta_text, "\t"))
    cohort[1] = dataclasses.replace(cohort[1], label=label)
    path = tmp_path / "cohort.tsv"
    write_cohort(cohort, path)
    with pytest.raises(MetadataError, match=f"cohort.tsv:3: label must be mild or severe, got '{label.value}'"):
        read_cohort(path)


COHORT_HEADER_LINE = "accession\tsequence\tage\tgender\tclade\tlineage\tlabel\n"


@pytest.mark.parametrize("age", ["abc", "-4", "+4", " 4", "4.0", "", "\u0664"])
def test_read_cohort_refuses_an_age_that_is_not_plain_digits(tmp_path, age):
    path = tmp_path / "cohort.tsv"
    path.write_text(COHORT_HEADER_LINE + "A1\tMKV\t54\tmale\tGR\tP.1\tmild\n"
                    + f"A2\tMKV\t{age}\tmale\tGR\tP.1\tsevere\n")
    want = f"cohort.tsv:3: age must be a non-negative integer, got {age!r}"
    with pytest.raises(MetadataError, match=re.escape(want)):
        read_cohort(path)


def test_read_cohort_refuses_a_repeated_accession(tmp_path):
    path = tmp_path / "cohort.tsv"
    row = "A1\tMKV\t54\tmale\tGR\tP.1\tmild\n"
    path.write_text(COHORT_HEADER_LINE + row + "A2\tMKV\t61\tfemale\tGR\tP.1\tsevere\n" + row)
    with pytest.raises(MetadataError, match=re.escape("cohort.tsv:4: duplicate accession id A1 (first on line 2)")):
        read_cohort(path)


def test_read_cohort_refuses_a_row_of_another_width(tmp_path):
    path = tmp_path / "cohort.tsv"
    path.write_text("accession\tsequence\tage\tgender\tclade\tlineage\tlabel\nEPI1\tMKV\t54\tmale\n")
    with pytest.raises(MetadataError, match="cohort.tsv:2: expected 7 fields"):
        read_cohort(path)


@pytest.mark.parametrize(
    "sequence, message",
    [("MKXV", "non-canonical residues in sequence: ['X']"), ("", "empty sequence")],
    ids=["non-canonical", "empty"],
)
def test_read_cohort_refuses_a_sequence_featurize_cannot_encode(tmp_path, sequence, message):
    path = tmp_path / "cohort.tsv"
    path.write_text(COHORT_HEADER_LINE + "A1\tMKV\t54\tmale\tGR\tP.1\tmild\n"
                    + f"A2\t{sequence}\t61\tfemale\tGR\tP.1\tsevere\n")
    with pytest.raises(MetadataError, match=re.escape(f"cohort.tsv:3: {message}")):
        read_cohort(path)


# One sequence of each kind of non-canonical character, with the exact
# `parse_fasta` reject and `read_cohort` refusal pinned for each. `parse_fasta`
# upper-cases ASCII letters first; `read_cohort` reads the sequence as written.
SEQUENCE_VERDICTS = [
    ("ACDXEF", (4, "X"), "non-canonical residues in sequence: ['X']"),
    ("acdb", (4, "B"), "non-canonical residues in sequence: ['a', 'b', 'c', 'd']"),
    ("MK*", (3, "*"), "non-canonical residues in sequence: ['*']"),
    ("MK-LV", (3, "-"), "non-canonical residues in sequence: ['-']"),
    ("MK1", (3, "1"), "non-canonical residues in sequence: ['1']"),
    ("MK\u00e9", (3, "\u00e9"), "non-canonical residues in sequence: ['\u00e9']"),
    ("MK\u00dfA", (3, "\u00df"), "non-canonical residues in sequence: ['\u00df']"),
    ("\U0001f9ecMK", (1, "\U0001f9ec"), "non-canonical residues in sequence: ['\U0001f9ec']"),
    ("", (0, ""), "empty sequence"),
    ("mkv", None, "non-canonical residues in sequence: ['k', 'm', 'v']"),
    ("MKv\u00e9-*", (4, "\u00e9"), "non-canonical residues in sequence: ['*', '-', 'v', '\u00e9']"),
    ("\u00c9MK", (1, "\u00c9"), "non-canonical residues in sequence: ['\u00c9']"),
    ("Mk\u00b5", (3, "\u00b5"), "non-canonical residues in sequence: ['k', '\u00b5']"),
]


def test_parse_fasta_rejects_each_kind_of_character_at_its_offset():
    sequences = [sequence for sequence, _, _ in SEQUENCE_VERDICTS]
    records, rejects = parse_fasta("".join(f">r{i}\n{seq}\n" for i, seq in enumerate(sequences)))
    want = [(f"r{i}", *reject) for i, (_, reject, _) in enumerate(SEQUENCE_VERDICTS) if reject]
    assert [(r.record_id, r.position, r.character) for r in rejects] == want
    assert records == [(f"r{i}", seq.upper()) for i, (seq, reject, _) in enumerate(SEQUENCE_VERDICTS)
                       if reject is None]


@pytest.mark.parametrize("sequence, message", [(seq, message) for seq, _, message in SEQUENCE_VERDICTS])
def test_read_cohort_refuses_each_kind_of_character(tmp_path, sequence, message):
    path = tmp_path / "cohort.tsv"
    path.write_text(COHORT_HEADER_LINE + "A1\tMKV\t54\tmale\tGR\tP.1\tmild\n"
                    + f"A2\t{sequence}\t61\tfemale\tGR\tP.1\tsevere\n", encoding="utf-8")
    with pytest.raises(MetadataError) as info:
        read_cohort(path)
    assert str(info.value) == f"{path}:3: {message}"
