"""Seeded synthetic cohort shaped like the paper's data.

Every record is a 1,273-residue spike sequence: a reference sequence with the
substitutions of its lineage plus a few private ones, so records share most of
their residues as real surveillance sequences do. Metadata carries free-text
clinical status, age, gender, GISAID clade, Pango lineage, collection date and
country, in the vocabulary of public exports. The same seed gives the same
bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

SPIKE_LENGTH = 1273

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"

MILD_STATUS = (
    "Mild", "Asymptomatic", "Home", "not hospitalized", "Not Hospitalized.",
    "mild symptomatic", "No clinical signs", "Mild symptoms, not-hospitalized",
)
SEVERE_STATUS = (
    "Deceased", "DEAD", "Death", "Intensive Care Unit", "IC", "Intensive Care",
    "Hospitalized (Intensive care unit)", "Hospitalized, Live.",
    "severe symptomatic, required IC",
)

# (clade, lineage) pairs as they co-occur in GISAID exports.
LINEAGES = (
    ("GR", "B.1.1.7"), ("GR", "P.1"), ("GR", "B.1.1.33"), ("GR", "B.1.1.28"),
    ("GR", "C.37"), ("GR", "B.1.1.519"), ("GRY", "B.1.1.7"), ("GRY", "Q.1"),
    ("GK", "B.1.617.2"), ("GK", "AY.4"), ("GK", "AY.25"), ("GK", "AY.43"),
    ("GK", "AY.99.2"), ("GK", "AY.103"), ("GK", "AY.122"), ("GH", "B.1.351"),
    ("GH", "B.1.427"), ("GH", "B.1.429"), ("GH", "B.1.526"), ("GH", "B.1.2"),
    ("GV", "B.1.177"), ("GV", "B.1.177.7"), ("G", "B.1"), ("G", "B.1.160"),
    ("G", "B.1.221"), ("G", "B.1.258"), ("GRA", "BA.1"), ("GRA", "BA.1.1"),
    ("GRA", "BA.2"), ("GRA", "BA.2.12.1"), ("GRA", "BA.4"), ("GRA", "BA.5"),
    ("O", "A.2.5"), ("O", "B.1.36"), ("S", "A.1"), ("L", "B"), ("V", "B.2"),
)
COUNTRIES = (
    "USA", "Brazil", "India", "South Africa", "Germany", "Spain", "Italy",
    "Japan", "Bangladesh", "Peru", "Chile", "Mexico", "Kenya", "Turkey",
)
METADATA_HEADER = "accession\tstatus\tage\tgender\tclade\tlineage\tdate\tcountry"


def make_cohort(seed: int, n_severe: int, n_mild: int, length: int = SPIKE_LENGTH) -> tuple[str, str]:
    """FASTA and metadata TSV texts for `n_severe + n_mild` valid records,
    in a seeded shuffled order. Cohorts of different sizes drawn with one
    seed are independent."""
    rng = np.random.default_rng([seed, n_severe, n_mild])
    n = n_severe + n_mild
    alphabet = np.frombuffer(AMINO_ACIDS.encode(), dtype=np.uint8)
    reference = alphabet[rng.integers(0, 20, length)]
    lineage_sites = [rng.choice(length, rng.integers(8, 36), replace=False) for _ in LINEAGES]
    lineage_residues = [alphabet[rng.integers(0, 20, s.size)] for s in lineage_sites]

    severe = np.zeros(n, dtype=bool)
    severe[:n_severe] = True
    rng.shuffle(severe)
    lineage_of = rng.integers(0, len(LINEAGES), n)
    seqs = np.tile(reference, (n, 1))
    for j in range(len(LINEAGES)):
        rows = np.flatnonzero(lineage_of == j)
        seqs[np.ix_(rows, lineage_sites[j])] = lineage_residues[j]
    private = rng.poisson(3.0, n)
    rows = np.repeat(np.arange(n), private)
    seqs[rows, rng.integers(0, length, rows.size)] = alphabet[rng.integers(0, 20, rows.size)]

    ages = np.where(severe, rng.normal(64, 14, n), rng.normal(41, 17, n)).clip(0, 99).astype(int)
    days = rng.integers(0, 850, n)
    genders = np.where(rng.random(n) < 0.52, "male", "female")
    status = np.where(severe, rng.integers(0, len(SEVERE_STATUS), n), rng.integers(0, len(MILD_STATUS), n))
    countries = rng.integers(0, len(COUNTRIES), n)

    fasta, meta = [], [METADATA_HEADER]
    for i in range(n):
        acc = f"EPI_ISL_{n:05d}{i:05d}"
        fasta.append(f">{acc}\n{seqs[i].tobytes().decode()}")
        clade, lineage = LINEAGES[lineage_of[i]]
        term = (SEVERE_STATUS if severe[i] else MILD_STATUS)[status[i]]
        date = np.datetime64("2020-03-01") + int(days[i])
        meta.append(f"{acc}\t{term}\t{ages[i]}\t{genders[i]}\t{clade}\t{lineage}\t{date}\t{COUNTRIES[countries[i]]}")
    return "\n".join(fasta) + "\n", "\n".join(meta) + "\n"


def write_cohort(directory: Path, seed: int, n_severe: int, n_mild: int) -> tuple[Path, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    fasta_text, meta_text = make_cohort(seed, n_severe, n_mild)
    fasta, meta = directory / "spikes.fasta", directory / "metadata.tsv"
    fasta.write_text(fasta_text, encoding="utf-8")
    meta.write_text(meta_text, encoding="utf-8")
    return fasta, meta
