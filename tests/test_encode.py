import json
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgrkit.chem import canonical_smiles, parse_smiles, tokenize_smiles
from fgrkit.datasets import load_bundled_corpus, starter_fg_vocab_path
from fgrkit.encode import (
    DESCRIPTOR_NAMES,
    compute_descriptors,
    encode_fg,
    encode_mfg,
    encode_records,
    feature_columns,
    l2_normalize,
    load_matrix,
    save_matrix,
    save_matrix_tsv,
)
from fgrkit.errors import NonFiniteInput, ShapeMismatch, VersionMismatch
from fgrkit.vocab import FGVocabulary, MFGEntry, MFGVocabulary, load_fg_vocab, mine_mfg

from helpers import random_molecule_smiles
from oracles import oracle_embeddings, oracle_mfg_bits


@pytest.fixture(scope="module")
def starter():
    return load_fg_vocab(starter_fg_vocab_path())


@pytest.fixture(scope="module")
def toy_mfg():
    return mine_mfg(["CCO", "CCO", "CCN"], eta=2, mvs=100)


class TestEncodeFG:
    def test_ethanol_bits(self, starter):
        vec = encode_fg(parse_smiles("CCO"), starter)
        names = dict(zip(starter.names, vec))
        assert names["hydroxyl"] == 1
        assert names["nitro"] == 0

    def test_methane_mostly_zero(self, starter):
        vec = encode_fg(parse_smiles("C"), starter)
        set_names = [n for n, b in zip(starter.names, vec) if b]
        assert "hydroxyl" not in set_names
        assert "benzene_ring" not in set_names

    def test_determinism(self, starter):
        a = encode_fg(parse_smiles("CC(=O)Nc1ccc(O)cc1"), starter)
        b = encode_fg(parse_smiles("CC(=O)Nc1ccc(O)cc1"), starter)
        assert np.array_equal(a, b)

    def test_bits_match_brute_force_embeddings(self, starter):
        rng = random.Random(31)
        small_patterns = [(i, e) for i, e in enumerate(starter.entries)
                          if e.pattern.num_atoms <= 4][:25]
        for _ in range(12):
            mol = parse_smiles(random_molecule_smiles(rng, max_atoms=12))
            if mol.num_atoms > 12:
                continue
            vec = encode_fg(mol, starter)
            for i, entry in small_patterns:
                want = int(bool(oracle_embeddings(entry.pattern, mol)))
                assert vec[i] == want, (entry.name, mol.source)

    def test_fg_bits_invariant_to_atom_ordering(self, starter):
        rng = random.Random(5)
        for _ in range(10):
            smiles = random_molecule_smiles(rng)
            mol = parse_smiles(smiles)
            re_parsed = parse_smiles(canonical_smiles(mol))
            a = encode_fg(mol, starter)
            b = encode_fg(re_parsed, starter)
            assert np.array_equal(a, b), smiles


class TestEncodeMFG:
    def test_toy_vocab_bits(self, toy_mfg):
        vec = encode_mfg(tokenize_smiles("CCO"), toy_mfg)
        by_text = dict(zip((e.text for e in toy_mfg.entries), vec))
        assert by_text["CC"] == 1 and by_text["CCO"] == 1

    def test_no_match(self, toy_mfg):
        vec = encode_mfg(tokenize_smiles("CN"), toy_mfg)
        by_text = dict(zip((e.text for e in toy_mfg.entries), vec))
        assert by_text["CC"] == 0 and by_text["CCO"] == 0

    def test_single_token_entry(self, toy_mfg):
        vec = encode_mfg(tokenize_smiles("CCO"), toy_mfg)
        by_text = dict(zip((e.text for e in toy_mfg.entries), vec))
        assert by_text["C"] == 1

    def test_token_not_byte_semantics(self):
        # "Cl" must not match the single-token entry "C"+"l" byte-wise
        vocab = mine_mfg(["CCO"] * 5, eta=2, mvs=100)
        bits = encode_mfg(tokenize_smiles("ClCCl"), vocab)
        by_text = dict(zip((e.text for e in vocab.entries), bits))
        assert by_text["O"] == 0
        assert by_text["C"] == 1  # genuine C tokens exist

    def test_mfg_bits_are_string_order_sensitive(self, starter):
        # documented: MFG bits depend on the SMILES writing, unlike FG bits
        vocab = mine_mfg(["OCC"] * 10, eta=2, mvs=100)
        a = encode_mfg(tokenize_smiles("OCC"), vocab)
        b = encode_mfg(tokenize_smiles("CCO"), vocab)
        assert not np.array_equal(a, b)


class TestTrieEncoder:
    """encode_mfg walks a token trie; the set encoder is the reference."""

    @pytest.mark.parametrize("eta", [2, 10])
    def test_bundled_corpus_matches_set_encoder(self, eta):
        corpus = load_bundled_corpus()
        vocab = mine_mfg(corpus, eta=eta, mvs=10 ** 6)
        rng = random.Random(eta)
        for smiles in rng.sample(corpus, 250):
            tokens = tokenize_smiles(smiles)
            assert np.array_equal(encode_mfg(tokens, vocab),
                                  oracle_mfg_bits(tokens, vocab.entries)), smiles

    def test_repeated_and_overlong_entries(self):
        corpus = load_bundled_corpus()
        longest = max(len(tokenize_smiles(s)) for s in corpus)
        entries = [MFGEntry(("C",), 9), MFGEntry(("c", "1"), 5), MFGEntry(("C",), 9),
                   MFGEntry(("O",), 4), MFGEntry(("C",) * (longest + 1), 1),
                   MFGEntry(("c", "1"), 5)]
        vocab = MFGVocabulary(entries=entries)
        hits = 0
        for smiles in corpus:
            tokens = tokenize_smiles(smiles)
            bits = encode_mfg(tokens, vocab)
            assert np.array_equal(bits, oracle_mfg_bits(tokens, entries)), smiles
            assert bits[0] == bits[2] and bits[1] == bits[5] and bits[4] == 0
            hits += int(bits[1])
        assert hits > 0

    def test_empty_vocabulary_and_empty_tokens(self, toy_mfg):
        assert encode_mfg(tokenize_smiles("CCO"), MFGVocabulary()).shape == (0,)
        assert not encode_mfg([], toy_mfg).any()


class TestEncoderArrays:
    def test_each_encoder_returns_an_array(self, starter, toy_mfg):
        mol = parse_smiles("CCO")
        fg = encode_fg(mol, starter)
        mfg = encode_mfg(tokenize_smiles("CCO"), toy_mfg)
        desc = compute_descriptors(mol)
        for arr, dtype, width in ((fg, np.uint8, starter.size),
                                  (mfg, np.uint8, toy_mfg.size),
                                  (desc, np.float64, 211)):
            assert isinstance(arr, np.ndarray)
            assert arr.dtype == dtype and arr.shape == (width,)


class TestCombined:
    """The [FG | MFG] row is built in one place, encode_records."""

    def test_concatenation_structure(self, starter, toy_mfg):
        mol = parse_smiles("CCO")
        tokens = tokenize_smiles("CCO")
        X, D = encode_records([(mol, tokens)], starter, toy_mfg)
        assert D is None
        assert X.shape == (1, starter.size + toy_mfg.size)
        assert np.array_equal(X[0, :starter.size], encode_fg(mol, starter))
        assert np.array_equal(X[0, starter.size:], encode_mfg(tokens, toy_mfg))

    def test_combined_property_random(self, starter, toy_mfg):
        rng = random.Random(77)
        smiles = [random_molecule_smiles(rng) for _ in range(10)]
        records = [(parse_smiles(s), tokenize_smiles(s)) for s in smiles]
        X, D = encode_records(iter(records), starter, toy_mfg, 211)
        for row, desc, (mol, tokens) in zip(X, D, records):
            assert np.array_equal(
                row, np.concatenate([encode_fg(mol, starter),
                                     encode_mfg(tokens, toy_mfg)]))
            assert np.array_equal(desc, l2_normalize(compute_descriptors(mol)))

    def test_no_fingerprint_reads_per_row(self, starter, toy_mfg, monkeypatch):
        reads = []

        def counted(prop):
            def fget(vocab):
                reads.append(vocab)
                return prop.fget(vocab)
            return property(fget)

        for cls in (FGVocabulary, MFGVocabulary):
            monkeypatch.setattr(cls, "fingerprint", counted(cls.fingerprint))
        smiles = ["CCO", "c1ccccc1O", "CC(=O)N", "ClCCl", "CCN"] * 4
        records = ((parse_smiles(s), tokenize_smiles(s)) for s in smiles)
        X, _ = encode_records(records, starter, toy_mfg, 211)
        assert X.shape[0] == len(smiles)
        assert reads == []
        feature_columns(starter, toy_mfg, 211)
        assert reads == [starter, toy_mfg]


class TestDescriptors:
    def test_methane(self):
        v = dict(zip(DESCRIPTOR_NAMES, compute_descriptors(parse_smiles("C"))))
        assert v["heavy_atoms"] == 1
        assert v["rings"] == 0
        assert v["hbond_donors"] == 0
        assert abs(v["mol_weight"] - 16.0313) < 1e-3

    def test_ethanol_donor_acceptor(self):
        v = dict(zip(DESCRIPTOR_NAMES, compute_descriptors(parse_smiles("CCO"))))
        assert v["hbond_donors"] == 1
        assert v["hbond_acceptors"] == 1

    def test_benzene(self):
        v = dict(zip(DESCRIPTOR_NAMES, compute_descriptors(parse_smiles("c1ccccc1"))))
        assert v["aromatic_rings"] == 1
        assert v["fraction_csp3"] == 0.0

    def test_padding_and_names(self, starter):
        d = compute_descriptors(parse_smiles("CCO"))
        assert len(d) == 211
        labels, kinds, _ = feature_columns(starter, None, 211)
        assert labels[starter.size:starter.size + len(DESCRIPTOR_NAMES)] == DESCRIPTOR_NAMES
        assert len(labels) - starter.size == 211 and kinds[-1] == "DESC"
        assert np.all(d[len(DESCRIPTOR_NAMES):] == 0.0)

    def test_mw_additive_over_components(self):
        lhs = compute_descriptors(parse_smiles("CC.O"))[0]
        rhs = (compute_descriptors(parse_smiles("CC"))[0]
               + compute_descriptors(parse_smiles("O"))[0])
        assert abs(lhs - rhs) < 1e-9

    def test_nonnegative_except_charge(self):
        rng = random.Random(15)
        for _ in range(15):
            d = compute_descriptors(parse_smiles(random_molecule_smiles(rng)))
            mask = np.ones(len(d), dtype=bool)
            mask[9] = False  # net formal charge may be negative
            assert np.all(d[mask] >= 0.0)

    def test_longest_chain_and_electrons(self):
        v = dict(zip(DESCRIPTOR_NAMES,
                     compute_descriptors(parse_smiles("CCCCCC"))[:14]))
        assert v["longest_aliphatic_chain"] == 6
        assert v["electrons"] == 6 * 6 + 14  # 6 C + 14 H
        ring = dict(zip(DESCRIPTOR_NAMES,
                        compute_descriptors(parse_smiles("C1CCCCC1"))[:14]))
        assert ring["longest_aliphatic_chain"] == 0  # ring carbons excluded


class TestL2Normalize:
    def test_three_four_five(self):
        assert np.allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-15)

    def test_zero_vector_unchanged(self):
        assert np.array_equal(l2_normalize(np.zeros(4)), np.zeros(4))

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_output_norm_property(self, values):
        v = np.array(values)
        out = l2_normalize(v)
        norm = np.linalg.norm(out)
        if np.linalg.norm(v) == 0:
            assert norm == 0
        else:
            assert abs(norm - 1.0) < 1e-12

    def test_subnormal_squared_norm_rescaled(self):
        v = np.array([2.2e-157, 0.0, 1e-160])
        out = l2_normalize(v)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        assert np.allclose(out, v / 2.2e-157 / np.linalg.norm(v / 2.2e-157))

    def test_overflowing_squared_norm_rescaled(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = l2_normalize(np.array([1e200, -1e200]))
        assert np.allclose(out, [2 ** -0.5, -(2 ** -0.5)], rtol=1e-15)

    def test_underflowed_norm_passes_through(self):
        # the norm of [1e-170] computes as 0, so it counts as a zero vector
        v = np.array([1e-170])
        assert np.array_equal(l2_normalize(v), v)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            l2_normalize(np.array([1.0, np.nan]))
        with pytest.raises(NonFiniteInput):
            l2_normalize(np.array([np.inf]))


class TestMatrixExport:
    def test_binary_round_trip(self, tmp_path):
        X = np.random.default_rng(0).integers(0, 2, (5, 7)).astype(np.float64)
        p = tmp_path / "m.bin"
        save_matrix(X, p, {"fg": "abc"})
        loaded, header = load_matrix(p)
        assert np.array_equal(loaded, X)
        assert header["fingerprints"] == {"fg": "abc"}
        assert (header["rows"], header["cols"]) == (5, 7)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"nope")
        with pytest.raises(VersionMismatch):
            load_matrix(p)

    @pytest.fixture
    def saved(self, tmp_path):
        p = tmp_path / "m.bin"
        save_matrix(np.ones((3, 4)), p, {"fg": "abc"})
        return p

    def test_truncated_payload(self, saved):
        saved.write_bytes(saved.read_bytes()[:-1])
        with pytest.raises(ShapeMismatch):
            load_matrix(saved)

    def test_over_long_payload(self, saved):
        saved.write_bytes(saved.read_bytes() + b"\0" * 8)
        with pytest.raises(ShapeMismatch):
            load_matrix(saved)

    def test_non_json_header(self, saved):
        magic, _, payload = saved.read_bytes().split(b"\n", 2)
        saved.write_bytes(magic + b"\n{rows: 3\n" + payload)
        with pytest.raises(VersionMismatch):
            load_matrix(saved)

    def test_missing_header_key(self, saved):
        magic, header, payload = saved.read_bytes().split(b"\n", 2)
        fields = json.loads(header)
        del fields["cols"]
        saved.write_bytes(magic + b"\n" + json.dumps(fields).encode() + b"\n" + payload)
        with pytest.raises(VersionMismatch):
            load_matrix(saved)

    def test_unparseable_dtype(self, saved):
        saved.write_bytes(saved.read_bytes().replace(b'"float64"', b'",float64"', 1))
        with pytest.raises(VersionMismatch):
            load_matrix(saved)

    def test_tsv_mode(self, tmp_path):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = tmp_path / "m.tsv"
        save_matrix_tsv(X, p, ["a", "b"])
        lines = p.read_text().splitlines()
        assert lines[0] == "a\tb"
        assert lines[1] == "1\t0"
