import dataclasses
import re

import numpy as np
import pytest

from spikesev.scales import (
    AMINO_ACIDS,
    HBOND_CAPABLE,
    RegistryError,
    ScalesRegistry,
    canonical_lines,
    check_residues,
    default_registry,
    first_non_canonical,
    parse_registry,
)
from spikesev.seqfeatures import byte_residue_indices


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def test_scales_cover_all_twenty_residues(registry):
    for name in ("hydrophobicity", "polarity", "isoelectric_point"):
        assert set(getattr(registry, name)) == set(AMINO_ACIDS)


def test_pka_tables(registry):
    assert set(registry.pka_side_chain) == set("CDEHKRY")
    n_term, c_term = registry.pka_termini
    assert n_term > 7.0 > c_term


def test_hbond_capable_is_fixed_set(registry):
    assert registry.class_sets["hbond_capable"] == HBOND_CAPABLE


def test_known_reference_values(registry):
    # spot checks against the published tables the registry vendors
    assert registry.hydrophobicity["I"] == 4.5
    assert registry.hydrophobicity["R"] == -4.5
    assert registry.polarity["W"] == -3.4
    assert registry.polarity["D"] == 3.0
    assert registry.isoelectric_point["D"] == 2.77
    assert registry.isoelectric_point["R"] == 10.76


def test_content_hash_is_stable_across_loads(registry):
    assert registry.content_hash == default_registry().content_hash


def test_content_hash_changes_iff_a_value_changes(registry):
    changed = dict(registry.hydrophobicity)
    changed["A"] += 1e-9
    modified = dataclasses.replace(registry, hydrophobicity=changed)
    assert modified.content_hash != registry.content_hash
    same = dataclasses.replace(registry, hydrophobicity=dict(registry.hydrophobicity))
    assert same.content_hash == registry.content_hash


def test_write_then_load_round_trip(registry, tmp_path):
    path = tmp_path / "scales.tsv"
    path.write_text("\n".join(canonical_lines(registry)) + "\n", encoding="utf-8")
    reloaded = parse_registry(path.read_text(encoding="utf-8"))
    assert reloaded == registry
    assert reloaded.content_hash == registry.content_hash


def test_comments_do_not_affect_the_hash(registry, tmp_path):
    path = tmp_path / "scales.tsv"
    path.write_text("# a comment\n" + "\n".join(canonical_lines(registry)) + "\n")
    assert parse_registry(path.read_text(encoding="utf-8")).content_hash == registry.content_hash


def _flat(lines, scale):
    """`lines` with the value of every `scale` row set to 1.0."""
    return [line.rsplit("\t", 1)[0] + "\t1.0" if line.startswith(scale + "\t") else line for line in lines]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: [*lines, "hydrophobicity\tA\t99.0"], "line 79: repeated row hydrophobicity A (first on line 2)"),
        (lambda lines: [lines[0], "hydrophobicity\tA\tnan", *lines[2:]], "line 2: expected a finite number, got 'nan'"),
        (lambda lines: _flat(lines, "polarity"), "scale 'polarity' gives all 20 residues one value"),
    ],
    ids=["repeated-row", "nan", "flat-scale"],
)
def test_table_the_features_cannot_use_is_refused(registry, edit, message):
    lines = canonical_lines(registry)
    assert lines[1].startswith("hydrophobicity\tA\t") and len(lines) == 78
    with pytest.raises(RegistryError, match=re.escape(message)):
        parse_registry("\n".join(edit(lines)) + "\n")


def test_missing_residue_is_rejected(registry):
    partial = dict(registry.hydrophobicity)
    del partial["A"]
    with pytest.raises(RegistryError):
        ScalesRegistry(
            version=registry.version,
            hydrophobicity=partial,
            polarity=registry.polarity,
            isoelectric_point=registry.isoelectric_point,
            pka_side_chain=registry.pka_side_chain,
            pka_termini=registry.pka_termini,
            class_sets=registry.class_sets,
        )


def test_wrong_hbond_set_is_rejected(registry):
    sets = dict(registry.class_sets)
    sets["hbond_capable"] = frozenset("ST")
    with pytest.raises(RegistryError):
        dataclasses.replace(registry, class_sets=sets)


def test_malformed_table_is_rejected():
    with pytest.raises(RegistryError):
        parse_registry("hydrophobicity\tA\n")
    with pytest.raises(RegistryError):
        parse_registry("nonsense\tA\t1.0\n")


def test_scale_range_extremes(registry):
    for name, extremes in (("hydrophobicity", (-4.5, 4.5)), ("polarity", (-3.4, 3.0))):
        values = getattr(registry, name).values()
        assert (min(values), max(values)) == extremes


# Characters outside the 20 canonical residues: lower case, ambiguity codes,
# stop and gap marks, digits, non-ASCII letters and an emoji.
NON_CANONICAL = [*"acdkxy", "X", "B", "*", "-", *"0123456789", "\u00e9", "\u00df", "\U0001f9ec"]


def test_first_non_canonical_is_the_first_unmatched_byte_of_the_lookup():
    """On seeded strings mostly of residues, the offset equals that of the
    first -1 of `seqfeatures.byte_residue_indices` (-1 if there is none)."""
    rng = np.random.default_rng(24)
    pool = [*AMINO_ACIDS * 5, *NON_CANONICAL]
    strings = ["", *AMINO_ACIDS, *NON_CANONICAL]
    strings += ["".join(rng.choice(pool, rng.integers(1, 40))) for _ in range(2000)]
    for s in strings:
        bad = np.flatnonzero(byte_residue_indices(s) < 0)
        assert first_non_canonical(s) == (int(bad[0]) if bad.size else -1), repr(s)


@pytest.mark.parametrize("sequence, message", [
    ("", "empty sequence"),
    ("MK\u00dfxX", "non-canonical residues in sequence: ['X', 'x', '\u00df']"),
])
def test_check_residues_refuses(sequence, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        check_residues(sequence)


def test_check_residues_takes_every_canonical_residue():
    check_residues(AMINO_ACIDS)
