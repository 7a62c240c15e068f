import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikesev.scales import AMINO_ACIDS, default_registry
from spikesev.seqfeatures import (
    GLOBAL_DESCRIPTOR_LENGTH,
    RBD_END,
    RBD_START,
    RBD_WEIGHT,
    amino_acid_composition,
    global_descriptors,
    hbond_potential,
    mean_hydrophobicity,
    net_charge,
    rbd_weights,
    residue_encoding,
    residue_row_table,
    sequence_features,
    ss_fractions,
    weighted_polarity,
)

REG = default_registry()

sequences = st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=80)


class TestComposition:
    def test_single_residue_sequence(self):
        aac = amino_acid_composition("AAAA")
        assert aac[0] == 1.0
        assert aac[1:].sum() == 0.0

    def test_direct_counts(self):
        aac = amino_acid_composition("ACDC")
        assert aac[AMINO_ACIDS.index("A")] == pytest.approx(0.25)
        assert aac[AMINO_ACIDS.index("C")] == pytest.approx(0.5)
        assert aac[AMINO_ACIDS.index("D")] == pytest.approx(0.25)

    @given(sequences)
    def test_sums_to_one(self, seq):
        aac = amino_acid_composition(seq)
        assert abs(aac.sum() - 1.0) < 1e-9
        assert (aac >= 0).all() and (aac <= 1).all()

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty sequence"):
            amino_acid_composition("")


class TestHydrophobicity:
    def test_two_residue_lookup(self):
        # published hydropathy values: A = 1.8, I = 4.5
        assert mean_hydrophobicity("AI", REG) == pytest.approx(3.15)

    def test_constant_sequence_equals_scale_value(self):
        assert mean_hydrophobicity("RR", REG) == pytest.approx(REG.hydrophobicity["R"])

    @given(sequences)
    def test_permutation_invariance(self, seq):
        shuffled = "".join(sorted(seq))
        assert mean_hydrophobicity(seq, REG) == pytest.approx(
            mean_hydrophobicity(shuffled, REG)
        )


def _site_charge(ph: float, pka: float, acidic: bool) -> float:
    # independent per-site Henderson-Hasselbalch evaluation
    if acidic:
        return -1.0 / (1.0 + 10.0 ** (pka - ph))
    return 1.0 / (1.0 + 10.0 ** (ph - pka))


class TestNetCharge:
    def test_no_ionizable_side_chains_reduces_to_termini(self):
        n_term, c_term = REG.pka_termini
        expected = _site_charge(7.4, n_term, acidic=False) + _site_charge(7.4, c_term, acidic=True)
        assert net_charge("GGG", REG) == pytest.approx(expected, abs=1e-12)

    def test_lysine_homopolymer_matches_per_site_oracle(self):
        n_term, c_term = REG.pka_termini
        expected = (
            4 * _site_charge(7.4, REG.pka_side_chain["K"], acidic=False)
            + _site_charge(7.4, n_term, acidic=False)
            + _site_charge(7.4, c_term, acidic=True)
        )
        assert net_charge("KKKK", REG) == pytest.approx(expected, abs=1e-12)

    def test_mixed_sequence_matches_per_site_oracle(self):
        seq = "KDHECYRA"
        n_term, c_term = REG.pka_termini
        expected = _site_charge(7.4, n_term, False) + _site_charge(7.4, c_term, True)
        for aa in seq:
            if aa in "KRH":
                expected += _site_charge(7.4, REG.pka_side_chain[aa], False)
            elif aa in "DECY":
                expected += _site_charge(7.4, REG.pka_side_chain[aa], True)
        assert net_charge(seq, REG) == pytest.approx(expected, abs=1e-12)

    @given(sequences)
    @settings(max_examples=50)
    def test_monotone_in_ph(self, seq):
        assert net_charge(seq, REG, ph=5.0) >= net_charge(seq, REG, ph=9.0)

    @pytest.mark.parametrize("ph", [0.0, 14.0, -1.0, 15.0])
    def test_ph_out_of_range(self, ph):
        with pytest.raises(ValueError, match="pH"):
            net_charge("AA", REG, ph=ph)


class TestStructureFractions:
    def test_all_helix_class_sequence(self):
        seq = "VIY"  # every residue in the helix class set
        assert all(aa in REG.class_sets["helix_class"] for aa in seq)
        helix, strand, coil = ss_fractions(seq, REG)
        assert helix == 1.0
        assert 0.0 <= strand <= 1.0 and 0.0 <= coil <= 1.0

    def test_residue_in_no_class(self):
        sets = REG.class_sets
        aa = next(
            a
            for a in AMINO_ACIDS
            if a not in sets["helix_class"] and a not in sets["strand_class"] and a not in sets["coil_class"]
        )
        assert ss_fractions(aa, REG).tolist() == [0.0, 0.0, 0.0]

    @given(sequences)
    def test_each_fraction_in_unit_interval(self, seq):
        fracs = ss_fractions(seq, REG)
        assert (fracs >= 0.0).all() and (fracs <= 1.0).all()


class TestPolarityAndHBond:
    def test_constant_sequence(self):
        assert weighted_polarity("NNN", REG) == pytest.approx(REG.polarity["N"])

    def test_two_residue_lookup(self):
        # published hydrophilicity values: D = 3.0, K = 3.0
        assert weighted_polarity("DK", REG) == pytest.approx(3.0)

    @given(sequences)
    def test_equals_mean_over_residues(self, seq):
        expected = sum(REG.polarity[aa] for aa in seq) / len(seq)
        assert weighted_polarity(seq, REG) == pytest.approx(expected)

    def test_hbond_examples(self):
        assert hbond_potential("STNQ", REG) == 1.0
        assert hbond_potential("AAAA", REG) == 0.0
        assert hbond_potential("SA", REG) == 0.5

    @given(sequences)
    def test_hbond_in_unit_interval(self, seq):
        assert 0.0 <= hbond_potential(seq, REG) <= 1.0


class TestGlobalDescriptors:
    def test_length_and_diversity(self):
        d = global_descriptors("ACDC", REG)
        assert d.length == 4
        assert d.diversity == 3

    def test_vector_layout(self):
        d = global_descriptors("ACDC", REG)
        vec = d.to_vector()
        assert vec.shape == (GLOBAL_DESCRIPTOR_LENGTH,)
        np.testing.assert_array_equal(vec[:20], d.aac)
        assert vec[20] == d.length
        assert vec[21] == d.diversity
        assert vec[22] == d.mean_hydrophobicity
        assert vec[23] == d.net_charge
        np.testing.assert_array_equal(vec[24:27], d.ss_fractions)
        assert vec[27] == d.polarity
        assert vec[28] == d.hbond_potential

    def test_bit_identical_across_calls(self):
        a = global_descriptors("MKVLL", REG).to_vector()
        b = global_descriptors("MKVLL", REG).to_vector()
        assert a.tobytes() == b.tobytes()

    @given(sequences)
    def test_diversity_bounds(self, seq):
        d = global_descriptors(seq, REG)
        assert 1 <= d.diversity <= 20
        assert d.diversity <= d.length


class TestResidueEncoding:
    def test_minmax_hits_exact_extremes(self):
        table = residue_row_table(REG)
        for col, scale in ((0, REG.polarity), (1, REG.isoelectric_point), (2, REG.hydrophobicity)):
            values = table[:, col]
            assert values.min() == 0.0
            assert values.max() == 1.0
            lo_res = min(scale, key=scale.get)
            assert values[AMINO_ACIDS.index(lo_res)] == 0.0

    def test_structure_one_hot(self):
        table = residue_row_table(REG)
        ss = table[:, 7:10]
        assert ((ss == 0.0) | (ss == 1.0)).all()
        np.testing.assert_array_equal(ss.sum(axis=1), np.ones(20))

    def test_rows_are_injective_over_residue_pairs(self):
        table = residue_row_table(REG)
        for i in range(20):
            for j in range(i + 1, 20):
                assert not np.array_equal(table[i], table[j]), (
                    f"{AMINO_ACIDS[i]} and {AMINO_ACIDS[j]} encode identically"
                )

    def test_rbd_window_weighting(self):
        seq = "".join(AMINO_ACIDS[i % 20] for i in range(600))
        enc = residue_encoding(seq, REG)
        table = residue_row_table(REG)
        unweighted_319 = table[AMINO_ACIDS.index(seq[RBD_START - 1])]
        np.testing.assert_allclose(enc.matrix[RBD_START - 1], RBD_WEIGHT * unweighted_319)
        unweighted_318 = table[AMINO_ACIDS.index(seq[RBD_START - 2])]
        np.testing.assert_allclose(enc.matrix[RBD_START - 2], unweighted_318)
        assert enc.rbd_weights[RBD_START - 2] == 1.0
        assert enc.rbd_weights[RBD_START - 1] == RBD_WEIGHT
        assert enc.rbd_weights[RBD_END - 1] == RBD_WEIGHT
        assert enc.rbd_weights[RBD_END] == 1.0

    def test_bounds_after_weighting(self):
        seq = "".join(AMINO_ACIDS[i % 20] for i in range(600))
        m = residue_encoding(seq, REG).matrix
        cont, binary = m[:, :3], m[:, 3:]
        assert cont.min() >= 0.0 and cont.max() <= RBD_WEIGHT
        assert set(np.unique(binary)) <= {0.0, 1.0, RBD_WEIGHT}

    def test_short_sequence_has_no_rbd_weighting(self):
        enc = residue_encoding("MKVLL", REG)
        assert (enc.rbd_weights == 1.0).all()

    def test_row_count_matches_length(self):
        enc = residue_encoding("MKVLL", REG)
        assert enc.matrix.shape == (5, 10)


# ---------------------------------------------------------------------------
# Reference: the per-residue loops the array implementation replaced. Each
# walks the sequence one residue at a time and validates it itself.

_REF_INDEX = {aa: i for i, aa in enumerate(AMINO_ACIDS)}


def _ref_check(sequence):
    if not sequence:
        raise ValueError("empty sequence")
    bad = set(sequence) - set(AMINO_ACIDS)
    if bad:
        raise ValueError(f"non-canonical residues in sequence: {sorted(bad)}")


def ref_composition(sequence):
    _ref_check(sequence)
    counts = np.zeros(20, dtype=np.float64)
    for aa in sequence:
        counts[_REF_INDEX[aa]] += 1
    return counts / len(sequence)


def ref_mean_scale(sequence, table):
    _ref_check(sequence)
    return sum(table[aa] for aa in sequence) / len(sequence)


def ref_net_charge(sequence, registry, ph=7.4):
    _ref_check(sequence)
    pka = registry.pka_side_chain
    charge = 0.0
    for aa in sequence:
        if aa in "KRH":
            charge += 1.0 / (1.0 + 10.0 ** (ph - pka[aa]))
        elif aa in "DECY":
            charge -= 1.0 / (1.0 + 10.0 ** (pka[aa] - ph))
    n_term, c_term = registry.pka_termini
    charge += 1.0 / (1.0 + 10.0 ** (ph - n_term))
    charge -= 1.0 / (1.0 + 10.0 ** (c_term - ph))
    return charge


def ref_fraction_in(sequence, members):
    _ref_check(sequence)
    return sum(1 for aa in sequence if aa in members) / len(sequence)


def ref_residue_matrix(sequence, registry):
    _ref_check(sequence)
    table = residue_row_table(registry)
    rows = np.array([table[_REF_INDEX[aa]] for aa in sequence])
    weights = np.ones(len(sequence))
    weights[RBD_START - 1 : RBD_END] = RBD_WEIGHT
    return rows * weights[:, None]


def _close(got, want, scale):
    """Equal within 1e-12 relative; `scale` bounds the size of one summed
    term, so a sum that cancels to near zero is judged on its terms."""
    return math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12 * scale)


# Short sequences and ones that run past the receptor-binding domain.
oracle_sequences = st.one_of(
    st.text(alphabet=AMINO_ACIDS, min_size=1, max_size=60),
    st.text(alphabet=AMINO_ACIDS, min_size=RBD_END - 5, max_size=RBD_END + 200),
)


class TestAgainstPerResidueReference:
    @given(oracle_sequences)
    @settings(max_examples=60, deadline=None)
    def test_counting_descriptors_are_exact(self, seq):
        d = global_descriptors(seq, REG)
        sets = REG.class_sets
        np.testing.assert_array_equal(d.aac, ref_composition(seq))
        np.testing.assert_array_equal(amino_acid_composition(seq), ref_composition(seq))
        assert d.length == len(seq)
        assert d.diversity == len(set(seq))
        want_ss = [ref_fraction_in(seq, sets[n]) for n in ("helix_class", "strand_class", "coil_class")]
        assert d.ss_fractions.tolist() == want_ss
        assert ss_fractions(seq, REG).tolist() == want_ss
        assert d.hbond_potential == hbond_potential(seq, REG) == ref_fraction_in(seq, sets["hbond_capable"])

    @given(oracle_sequences)
    @settings(max_examples=60, deadline=None)
    def test_scale_descriptors_within_1e12(self, seq):
        d = global_descriptors(seq, REG)
        hyd_scale = max(abs(v) for v in REG.hydrophobicity.values())
        pol_scale = max(abs(v) for v in REG.polarity.values())
        want_hyd = ref_mean_scale(seq, REG.hydrophobicity)
        want_pol = ref_mean_scale(seq, REG.polarity)
        assert _close(d.mean_hydrophobicity, want_hyd, hyd_scale)
        assert _close(mean_hydrophobicity(seq, REG), want_hyd, hyd_scale)
        assert _close(d.polarity, want_pol, pol_scale)
        assert _close(weighted_polarity(seq, REG), want_pol, pol_scale)
        assert _close(d.net_charge, ref_net_charge(seq, REG), len(seq))
        for ph in (3.0, 7.4, 11.5):
            assert _close(net_charge(seq, REG, ph=ph), ref_net_charge(seq, REG, ph=ph), len(seq))

    @given(oracle_sequences)
    @settings(max_examples=40, deadline=None)
    def test_residue_block_is_exact(self, seq):
        want = ref_residue_matrix(seq, REG)
        enc = residue_encoding(seq, REG)
        np.testing.assert_array_equal(enc.matrix, want)
        np.testing.assert_array_equal(enc.rbd_weights, rbd_weights(len(seq)))
        head = sequence_features(seq, REG)
        np.testing.assert_array_equal(head[:GLOBAL_DESCRIPTOR_LENGTH], global_descriptors(seq, REG).to_vector())
        np.testing.assert_array_equal(head[GLOBAL_DESCRIPTOR_LENGTH:], want.reshape(-1))

    @pytest.mark.parametrize("seq", ["", "acd", "Mkv", "AÉ", "É", "AXA", "X", "A-C", "A C", "MKV*"])
    @pytest.mark.parametrize(
        "fn",
        [
            amino_acid_composition,
            lambda s: mean_hydrophobicity(s, REG),
            lambda s: net_charge(s, REG),
            lambda s: ss_fractions(s, REG),
            lambda s: weighted_polarity(s, REG),
            lambda s: hbond_potential(s, REG),
            lambda s: global_descriptors(s, REG),
            lambda s: residue_encoding(s, REG),
            lambda s: sequence_features(s, REG),
        ],
    )
    def test_invalid_sequences_refused_as_the_reference_does(self, seq, fn):
        with pytest.raises(ValueError) as want:
            _ref_check(seq)
        with pytest.raises(ValueError) as got:
            fn(seq)
        assert str(got.value) == str(want.value)

    @given(st.text(min_size=1, max_size=40).filter(lambda t: set(t) - set(AMINO_ACIDS)))
    def test_any_non_canonical_character_refused(self, seq):
        with pytest.raises(ValueError, match="non-canonical residues"):
            global_descriptors(seq, REG)
