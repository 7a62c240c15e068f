"""Parsing and cleaning of spike-protein sequences and patient metadata.

Surveillance exports carry free-text clinical status values; they are mapped
to severity classes through an exact lookup applied after trimming,
case-folding and collapsing internal whitespace. Only records with a Mild or
Severe status, a valid sequence and complete metadata survive into a cohort.
"""

from __future__ import annotations

import csv
import io
import re
import string
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .scales import check_residues, first_non_canonical


class Severity(Enum):
    MILD = "mild"
    SEVERE = "severe"
    INCONCLUSIVE = "inconclusive"
    UNMAPPED = "unmapped"


# Free-text patient status vocabulary observed in surveillance exports,
# grouped by clinical severity outcome. Matching is exact after
# normalization; unknown strings map to UNMAPPED.
MILD_STATUS_TERMS = (
    "not hospitalized",
    "alive/not hospitalized",
    "Asymptomatic",
    "Home",
    "Not Hospitalized.",
    "mild symptomatic",
    "Mild",
    "Mild symptoms, not-hospitalized",
    "No clinical signs",
    "Not hospitalized",
)
SEVERE_STATUS_TERMS = (
    "DEAD",
    "Dead, hospitalized",
    "Death",
    "deceased 14/8",
    "deceased 20/8",
    "Decease",
    "Deceased",
    "Hospitalized (Intensive care unit)",
    "Hospitalized, Live.",
    "IC",
    "Intensive Care",
    "Intensive Care Unit",
    "severe symptomatic, required IC",
)
INCONCLUSIVE_STATUS_TERMS = (
    "ALIVE",
    "Alive, hospitalized",
    "Emergency Care",
    "Hospitalized",
    "Inpatient",
    "Live",
    "moderate symptomatic, hospita",
    "Moderate",
)


def _normalize_text(text: str) -> str:
    return " ".join(text.split()).casefold()


_STATUS_LOOKUP: dict[str, Severity] = {}
for _terms, _sev in (
    (MILD_STATUS_TERMS, Severity.MILD),
    (SEVERE_STATUS_TERMS, Severity.SEVERE),
    (INCONCLUSIVE_STATUS_TERMS, Severity.INCONCLUSIVE),
):
    for _term in _terms:
        _STATUS_LOOKUP[_normalize_text(_term)] = _sev


def normalize_status(status_text: str) -> Severity:
    """Map a free-text clinical status to a severity class (total function)."""
    return _STATUS_LOOKUP.get(_normalize_text(status_text), Severity.UNMAPPED)


@dataclass(frozen=True)
class RawMetadataRow:
    accession_id: str
    status_text: str
    age: int | None = None
    gender: str | None = None
    clade: str | None = None
    lineage: str | None = None
    collection_date: str | None = None


@dataclass(frozen=True)
class SpikeRecord:
    accession_id: str
    sequence: str
    age: int
    gender: str  # "male" or "female"
    clade: str
    lineage: str
    label: Severity


class FastaError(ValueError):
    pass


class MetadataError(ValueError):
    pass


@dataclass(frozen=True)
class RejectedSequence:
    """A FASTA record excluded for a non-canonical residue."""

    record_id: str
    position: int  # 1-based offset of the first offending character, 0 if empty
    character: str

    @property
    def reason(self) -> str:
        if not self.character:
            return "empty sequence"
        return f"invalid character {self.character!r} at position {self.position}"


_ASCII_UPPER = str.maketrans(string.ascii_lowercase, string.ascii_uppercase)


def parse_fasta(text: str) -> tuple[list[tuple[str, str]], list[RejectedSequence]]:
    """Parse FASTA text into (id, sequence) pairs, order preserved.

    Sequences have whitespace removed and ASCII letters upper-cased; other
    characters are kept as they are. Records containing any character
    outside the 20-letter alphabet (X, gaps, stops, non-ASCII, ...) are
    excluded and reported with the 1-based offset of the first bad character.
    A sequence line before any header, or a record id already given, is a
    parse error.
    """
    records: list[tuple[str, str]] = []
    rejects: list[RejectedSequence] = []
    current_id: str | None = None
    header_lines: dict[str, int] = {}
    chunks: list[str] = []

    def flush():
        if current_id is None:
            return
        seq = "".join(chunks)
        # Upper-case ASCII letters only (`str.upper` turns `ß` into `SS`);
        # `upper` does just that on ASCII text, and faster than `translate`.
        seq = seq.upper() if seq.isascii() else seq.translate(_ASCII_UPPER)
        if not seq:
            rejects.append(RejectedSequence(current_id, 0, ""))
            return
        i = first_non_canonical(seq)
        if i >= 0:
            rejects.append(RejectedSequence(current_id, i + 1, seq[i]))
            return
        records.append((current_id, seq))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            current_id = line[1:].strip()
            if current_id in header_lines:
                first = header_lines[current_id]
                raise FastaError(f"line {lineno}: repeated record id {current_id!r} (first on line {first})")
            header_lines[current_id] = lineno
            chunks = []
        else:
            if current_id is None:
                raise FastaError(f"line {lineno}: sequence data before any header")
            chunks.append("".join(line.split()))
    flush()
    return records, rejects


# Accepted header spellings per field, matched case-insensitively after
# trimming. The first named column wins; any other column is ignored.
_HEADER_SYNONYMS = {
    "accession": ("accession", "accession_id", "accession id"),
    "status": ("status", "patient_status", "patient status"),
    "age": ("age", "patient_age", "patient age"),
    "gender": ("gender", "sex"),
    "clade": ("clade",),
    "lineage": ("lineage", "pango_lineage", "pango lineage"),
    "date": ("date", "collection_date", "collection date"),
}

# A tab, or anything `str.splitlines` breaks a line at: such a cell would
# split its row of the cohort file.
_LINE_SPLITTING = re.compile("[\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


def _csv_rows(reader) -> Iterator[list[str]]:
    """The rows of the `csv.reader` `reader`; text it cannot split into
    rows, such as a bare carriage return in an unquoted cell, raises
    MetadataError with its line."""
    try:
        yield from reader
    except csv.Error as err:
        reason = str(err).split(" - ")[0]  # csv's advice to reopen the file does not apply
        raise MetadataError(f"line {reader.line_num}: {reason}") from None


def parse_metadata(text: str, delimiter: str) -> list[RawMetadataRow]:
    """Parse delimited metadata with a mandatory header row.

    Missing cells become absent optionals; ages that are not plain integers
    are treated as absent. Duplicate accession ids are an error, and so is
    a read cell that holds a tab or a line break once trimmed, and a line
    break in an unquoted cell other than at the end of a line.
    """
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    records = _csv_rows(reader)
    try:
        header = next(records)
    except StopIteration:
        raise MetadataError("empty metadata input") from None
    normalized = [h.strip().casefold() for h in header]
    columns: dict[str, int | None] = {}
    for fieldname, synonyms in _HEADER_SYNONYMS.items():
        columns[fieldname] = next((normalized.index(s) for s in synonyms if s in normalized), None)
    missing = [f for f, idx in columns.items() if idx is None]
    if missing:
        raise MetadataError(f"missing mandatory column(s): {', '.join(missing)}")

    rows: list[RawMetadataRow] = []
    seen: set[str] = set()
    next_line = reader.line_num + 1
    for row in records:
        lineno, next_line = next_line, reader.line_num + 1  # a quoted cell may span lines
        if not any(cell.strip() for cell in row):
            continue
        cells: dict[str, str | None] = {}
        for fieldname, idx in columns.items():
            value = row[idx].strip() if idx < len(row) else ""
            if _LINE_SPLITTING.search(value):
                raise MetadataError(
                    f"line {lineno}, column {header[idx].strip()!r}: tab or line break in {value!r}"
                )
            cells[fieldname] = value or None
        accession = cells["accession"]
        if accession is None:
            raise MetadataError("row with empty accession id")
        if accession in seen:
            raise MetadataError(f"duplicate accession id: {accession}")
        seen.add(accession)
        age_text = cells["age"]
        age = int(age_text) if age_text is not None and re.fullmatch(r"\d+", age_text) else None
        rows.append(
            RawMetadataRow(
                accession_id=accession,
                status_text=cells["status"] or "",
                age=age,
                gender=cells["gender"],
                clade=cells["clade"],
                lineage=cells["lineage"],
                collection_date=cells["date"],
            )
        )
    return rows


# Exclusion reasons, applied in this order; each excluded record counts
# toward exactly one reason.
REASON_MISSING_SEQUENCE = "missing sequence"
REASON_UNMAPPED_STATUS = "unmapped status"
REASON_INCONCLUSIVE_STATUS = "inconclusive status"
REASON_MISSING_METADATA = "missing metadata"
REASON_UNSUPPORTED_GENDER = "unsupported gender value"
REASON_INCOMPLETE_DATE = "incomplete collection date"

EXCLUSION_REASONS = (
    REASON_MISSING_SEQUENCE,
    REASON_UNMAPPED_STATUS,
    REASON_INCONCLUSIVE_STATUS,
    REASON_MISSING_METADATA,
    REASON_UNSUPPORTED_GENDER,
    REASON_INCOMPLETE_DATE,
)

_DATE_RE = re.compile(r"\d{4}-\d{2}-\d{2}")


def _is_complete_date(value: str) -> bool:
    if not _DATE_RE.fullmatch(value):
        return False
    import datetime

    try:
        datetime.date(int(value[0:4]), int(value[5:7]), int(value[8:10]))
    except ValueError:
        return False
    return True


@dataclass
class ExclusionReport:
    counts: dict[str, int] = field(default_factory=lambda: {r: 0 for r in EXCLUSION_REASONS})
    retained: int = 0
    unmatched_sequences: int = 0

    @property
    def excluded(self) -> int:
        return sum(self.counts.values())

    def to_tsv(self) -> str:
        lines = ["reason\tcount"]
        lines.extend(f"{reason}\t{self.counts[reason]}" for reason in EXCLUSION_REASONS)
        lines.append(f"retained\t{self.retained}")
        lines.append(f"sequences without metadata\t{self.unmatched_sequences}")
        return "\n".join(lines) + "\n"


def build_cohort(
    fasta_records: list[tuple[str, str]],
    metadata_rows: list[RawMetadataRow],
) -> tuple[list[SpikeRecord], ExclusionReport]:
    """Join sequences and metadata on accession id and apply inclusion filters.
    `fasta_records` holds each id once, as `parse_fasta` returns them.

    Every metadata row is either retained or counted under exactly one
    exclusion reason, so retained + sum(counts) == len(metadata_rows).
    """
    sequences = dict(fasta_records)
    report = ExclusionReport()
    matched: set[str] = set()
    cohort: list[SpikeRecord] = []

    for row in metadata_rows:
        seq = sequences.get(row.accession_id)
        if seq is not None:
            matched.add(row.accession_id)
        reason = None
        label = normalize_status(row.status_text)
        if seq is None:
            reason = REASON_MISSING_SEQUENCE
        elif label is Severity.UNMAPPED:
            reason = REASON_UNMAPPED_STATUS
        elif label is Severity.INCONCLUSIVE:
            reason = REASON_INCONCLUSIVE_STATUS
        elif (
            row.age is None
            or row.gender is None
            or row.clade is None
            or row.lineage is None
            or row.collection_date is None
        ):
            reason = REASON_MISSING_METADATA
        elif row.gender.strip().casefold() not in ("male", "female"):
            reason = REASON_UNSUPPORTED_GENDER
        elif not _is_complete_date(row.collection_date):
            reason = REASON_INCOMPLETE_DATE
        if reason is not None:
            report.counts[reason] += 1
            continue
        cohort.append(
            SpikeRecord(
                accession_id=row.accession_id,
                sequence=seq,
                age=row.age,
                gender=row.gender.strip().casefold(),
                clade=row.clade,
                lineage=row.lineage,
                label=label,
            )
        )
    report.retained = len(cohort)
    report.unmatched_sequences = len(sequences) - len(matched)
    return cohort, report


def _freq_table(values) -> list[tuple[str, int]]:
    counts = Counter(values)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


@dataclass(frozen=True)
class CohortStats:
    label_counts: list[tuple[str, int]]
    gender_counts: list[tuple[str, int]]
    lineage_counts: list[tuple[str, int]]
    clade_counts: list[tuple[str, int]]
    mean_age: float
    mean_age_by_gender: dict[str, float]

    def to_tsv(self) -> str:
        lines = ["table\tkey\tvalue"]
        for name, table in (
            ("label", self.label_counts),
            ("gender", self.gender_counts),
            ("lineage", self.lineage_counts),
            ("clade", self.clade_counts),
        ):
            lines.extend(f"{name}\t{key}\t{count}" for key, count in table)
        lines.append(f"mean_age\toverall\t{self.mean_age:.2f}")
        for gender in sorted(self.mean_age_by_gender):
            lines.append(f"mean_age\t{gender}\t{self.mean_age_by_gender[gender]:.2f}")
        return "\n".join(lines) + "\n"


def cohort_stats(records: list[SpikeRecord]) -> CohortStats:
    """Frequency tables (descending count, ties by name) and mean ages."""
    if not records:
        raise ValueError("empty cohort")
    by_gender: dict[str, list[int]] = {}
    for rec in records:
        by_gender.setdefault(rec.gender, []).append(rec.age)
    return CohortStats(
        label_counts=_freq_table(rec.label.value for rec in records),
        gender_counts=_freq_table(rec.gender for rec in records),
        lineage_counts=_freq_table(rec.lineage for rec in records),
        clade_counts=_freq_table(rec.clade for rec in records),
        mean_age=sum(r.age for r in records) / len(records),
        mean_age_by_gender={g: sum(ages) / len(ages) for g, ages in by_gender.items()},
    )


_COHORT_HEADER = ["accession", "sequence", "age", "gender", "clade", "lineage", "label"]


def write_cohort(records: list[SpikeRecord], path: str | Path) -> None:
    lines = ["\t".join(_COHORT_HEADER)]
    for r in records:
        lines.append(
            "\t".join([r.accession_id, r.sequence, str(r.age), r.gender, r.clade, r.lineage, r.label.value])
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_cohort(path: str | Path) -> list[SpikeRecord]:
    """Records of a `write_cohort` file. A row that file could not hold (a
    wrong field count, a repeated accession, an empty or non-canonical
    sequence, an age that is not plain digits, a label other than mild or
    severe) is refused as `<path>:<line>`."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].split("\t") != _COHORT_HEADER:
        raise MetadataError(f"{path}: not a cohort file")
    records = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != len(_COHORT_HEADER):
            raise MetadataError(f"{path}:{lineno}: expected {len(_COHORT_HEADER)} fields")
        acc, seq, age, gender, clade, lineage, label = fields
        if acc in first_line:
            raise MetadataError(f"{path}:{lineno}: duplicate accession id {acc} (first on line {first_line[acc]})")
        first_line[acc] = lineno
        try:
            check_residues(seq)
        except ValueError as exc:
            raise MetadataError(f"{path}:{lineno}: {exc}") from None
        if not (age.isascii() and age.isdigit()):
            raise MetadataError(f"{path}:{lineno}: age must be a non-negative integer, got {age!r}")
        if label not in (Severity.MILD.value, Severity.SEVERE.value):
            raise MetadataError(f"{path}:{lineno}: label must be mild or severe, got {label!r}")
        records.append(
            SpikeRecord(
                accession_id=acc,
                sequence=seq,
                age=int(age),
                gender=gender,
                clade=clade,
                lineage=lineage,
                label=Severity(label),
            )
        )
    return records
