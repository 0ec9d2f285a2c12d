import gzip
import hashlib
import random

import pytest

from fgrkit.chem import tokenize_smiles
from fgrkit.datasets import starter_fg_vocab_path
from fgrkit.errors import (
    ConfigError,
    CorruptCorpus,
    EmptyCorpus,
    MalformedLine,
    VersionMismatch,
)
from fgrkit.vocab import (
    load_fg_vocab,
    load_mfg_vocab,
    mine_mfg,
    read_corpus,
    save_vocab,
    scan_pair_frequencies,
)

from helpers import random_molecule_smiles
from oracles import oracle_merge_sequence


def synthetic_corpus(n: int, seed: int = 0) -> list[str]:
    rng = random.Random(seed)
    return [random_molecule_smiles(rng) for _ in range(n)]


class TestFGLoad:
    def test_small_file(self, tmp_path):
        p = tmp_path / "fg.tsv"
        p.write_text("hydroxyl\t[OX2H]\ncarbonyl\t[CX3]=[OX1]\nnitro\t[N+](=[OX1])[OX1-]\n")
        v = load_fg_vocab(p)
        assert v.size == 3
        assert v.names == ["hydroxyl", "carbonyl", "nitro"]

    def test_strict_mode_rejects_recursive(self, tmp_path):
        p = tmp_path / "fg.tsv"
        p.write_text("ok\t[OX2H]\nbad\t[$(C=O)]\n")
        with pytest.raises(MalformedLine) as exc:
            load_fg_vocab(p)
        assert exc.value.lineno == 2

    def test_skip_invalid_reports_line_numbers(self, tmp_path):
        p = tmp_path / "fg.tsv"
        p.write_text("ok\t[OX2H]\nbad\t[$(C=O)]\nbad_digit\t[#²]\nalso_ok\tC=O\n")
        v = load_fg_vocab(p, skip_invalid=True)
        assert v.size == 2
        assert [lineno for lineno, _ in v.rejected] == [2, 3]

    def test_non_utf8_line_is_a_malformed_line(self, tmp_path):
        p = tmp_path / "fg.tsv"
        p.write_bytes(b"ok\t[OX2H]\nbad\tC\xf2\nalso_ok\tC=O\n")
        with pytest.raises(MalformedLine, match="not valid UTF-8") as exc:
            load_fg_vocab(p)
        assert exc.value.lineno == 2
        v = load_fg_vocab(p, skip_invalid=True)
        assert v.names == ["ok", "also_ok"]
        assert v.rejected == [(2, "not valid UTF-8")]

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "fg.tsv"
        p.write_text("# comment\n\nhydroxyl\t[OX2H]\n")
        assert load_fg_vocab(p).size == 1

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_fg_vocab("/nonexistent/vocab.tsv")

    def test_starter_vocabulary_loads_clean(self):
        v = load_fg_vocab(starter_fg_vocab_path())
        assert v.size >= 120
        assert v.rejected == []

    def test_indices_stable(self, tmp_path):
        p = tmp_path / "fg.tsv"
        p.write_text("a\tC\nb\tN\nc\tO\n")
        v1, v2 = load_fg_vocab(p), load_fg_vocab(p)
        assert v1.names == v2.names
        assert v1.fingerprint == v2.fingerprint


class TestPairScan:
    def test_simple(self):
        assert scan_pair_frequencies([["C", "C", "O"]]) == {("C", "C"): 1, ("C", "O"): 1}

    def test_overlaps_counted(self):
        assert scan_pair_frequencies([["C", "C", "C"]]) == {("C", "C"): 2}

    def test_order_sensitive(self):
        counts = scan_pair_frequencies([["C", "O"], ["O", "C"]])
        assert counts == {("C", "O"): 1, ("O", "C"): 1}

    def test_empty_errors(self):
        with pytest.raises(EmptyCorpus):
            scan_pair_frequencies([])


class TestMineMFG:
    def test_spec_toy_trace(self):
        v = mine_mfg(["CCO", "CCO", "CCN"], eta=2, mvs=100)
        assert v.merge_log == [(("C", "C"), 3), (("CC", "O"), 2)]
        assert [(e.text, e.frequency) for e in v.merged_entries] == [("CC", 3), ("CCO", 2)]

    def test_unreachable_threshold_gives_initial_alphabet(self):
        corpus = synthetic_corpus(20)
        v = mine_mfg(corpus, eta=10 ** 9, mvs=1000)
        assert v.merged_entries == []
        assert v.n_initial == v.size > 0

    def test_boundary_frequency_equal_eta_merges(self):
        v = mine_mfg(["CC"] * 500, eta=500, mvs=100)
        assert v.merge_log == [(("C", "C"), 500)]

    def test_mvs_caps_size(self):
        corpus = synthetic_corpus(200, seed=3)
        unlimited = mine_mfg(corpus, eta=2, mvs=10 ** 6)
        cap = unlimited.n_initial + 5
        v = mine_mfg(corpus, eta=2, mvs=cap)
        assert v.size == cap
        assert len(v.merged_entries) == 5

    def test_merged_frequencies_at_least_eta(self):
        v = mine_mfg(synthetic_corpus(300, seed=5), eta=4, mvs=10 ** 6)
        assert all(e.frequency >= 4 for e in v.merged_entries)

    def test_initial_entries_precede_merged(self):
        v = mine_mfg(synthetic_corpus(100, seed=8), eta=3, mvs=10 ** 6)
        lengths = [len(e.tokens) for e in v.entries]
        first_merged = next((i for i, n in enumerate(lengths) if n > 1), len(lengths))
        assert all(n == 1 for n in lengths[:first_merged])
        assert all(n > 1 for n in lengths[first_merged:])

    def test_untokenizable_lines_skipped(self):
        v = mine_mfg(["CCO", "not smiles!!", "CCN"], eta=2, mvs=100)
        assert v.skipped_lines == 1

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            mine_mfg(["", "   "], eta=2, mvs=10)

    def test_determinism(self):
        corpus = synthetic_corpus(150, seed=11)
        v1 = mine_mfg(corpus, eta=3, mvs=10 ** 6)
        v2 = mine_mfg(corpus, eta=3, mvs=10 ** 6)
        assert v1 == v2 and v1.merge_log == v2.merge_log

    @pytest.mark.parametrize("eta", [2, 5, 50])
    def test_merge_sequence_matches_recount_oracle(self, eta):
        corpus = synthetic_corpus(250, seed=17)
        v = mine_mfg(corpus, eta=eta, mvs=10 ** 6)
        from fgrkit.chem import tokenize_smiles
        sequences = [tokenize_smiles(s) for s in corpus]
        want = oracle_merge_sequence(sequences, eta, 10 ** 6, v.n_initial)
        assert v.merge_log == want


def small_alphabet_corpus(rng: random.Random) -> list[str]:
    """Lines over two or three tokens: long runs of one token give
    overlapping pairs and back-to-back merge sites, and later merges join
    tokens that are merges themselves."""
    alphabet = rng.choice([["C"], ["C", "O"], ["C", "O", "N"], ["c", "C"],
                           ["C", "Cl"], ["C", "1"]])
    return ["".join(rng.choice(alphabet) * rng.randint(1, 6)
                    for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(2, 30))]


class TestMinerUpdates:
    """The merge loop updates only the pairs next to each merge site; these
    corpora stress exactly those updates against the full re-count."""

    def test_small_alphabet_corpora_match_recount_oracle(self):
        rng = random.Random(23)
        nested = 0
        for _ in range(80):
            corpus = small_alphabet_corpus(rng)
            eta = rng.choice([1, 2, 3, 5])
            v = mine_mfg(corpus, eta=eta, mvs=10 ** 6)
            assert v.skipped_lines == 0
            sequences = [tokenize_smiles(s) for s in corpus]
            assert v.merge_log == oracle_merge_sequence(sequences, eta, 10 ** 6,
                                                        v.n_initial), corpus
            nested += sum(len(a) > 1 and len(b) > 1 for (a, b), _ in v.merge_log)
        assert nested > 0  # some merges joined two merged tokens

    def test_back_to_back_sites_counted_once(self):
        # C C C C C: merging (C, C) leaves CC CC C; the (C, C) pair between
        # the two sites must be removed once, not twice
        v = mine_mfg(["CCCCC", "CCCCC"], eta=2, mvs=100)
        assert v.merge_log == [(("C", "C"), 8), (("CC", "C"), 2), (("CC", "CCC"), 2)]

    @pytest.mark.parametrize("seed", [3, 9])
    def test_capped_vocabulary_is_a_prefix_of_the_uncapped(self, seed):
        rng = random.Random(seed)
        corpus = synthetic_corpus(150, seed=seed) + small_alphabet_corpus(rng)
        full = mine_mfg(corpus, eta=2, mvs=10 ** 6)
        for extra in (-1, 0, 1, 2, 7, 30):
            capped = mine_mfg(corpus, eta=2, mvs=max(1, full.n_initial + extra))
            assert capped.entries == full.entries[:len(capped.entries)]
            assert capped.merge_log == full.merge_log[:len(capped.merge_log)]
            assert len(capped.merged_entries) == max(0, extra)


class TestMiningInput:
    def test_generator_input_and_fingerprint_of_kept_lines(self):
        lines = ["CCO", "", "not smiles!!", "CC\udcf2O", "  CCN  ", "c1ccccc1"]
        v = mine_mfg(iter(lines), eta=2, mvs=100)
        assert v.skipped_lines == 2
        want = hashlib.sha256("CCO\nCCN\nc1ccccc1".encode()).hexdigest()
        assert v.corpus_fingerprint == want
        assert v == mine_mfg(["CCO", "CCN", "c1ccccc1"], eta=2, mvs=100)

    @pytest.mark.parametrize("eta, mvs", [(0, 10), (2, 0), (-1, 5)])
    def test_non_positive_eta_or_mvs(self, eta, mvs):
        with pytest.raises(ConfigError):
            mine_mfg(["CCO"], eta=eta, mvs=mvs)

    def test_undecodable_corpus_line_skipped(self, tmp_path):
        p = tmp_path / "c.smi"
        p.write_bytes(b"CCO\nC[C\xf2]O\nCCN\n")
        v = mine_mfg(read_corpus(p), eta=1, mvs=100)
        assert v.skipped_lines == 1
        assert v.corpus_fingerprint == hashlib.sha256(b"CCO\nCCN").hexdigest()
        assert all("\udcf2" not in e.text for e in v.entries)

    def test_truncated_and_non_gzip_files(self, tmp_path):
        truncated = tmp_path / "t.smi.gz"
        truncated.write_bytes(gzip.compress(b"CCO\n" * 200)[:-12])
        fake = tmp_path / "f.smi.gz"
        fake.write_bytes(b"CCO\n")
        for path in (truncated, fake):
            with pytest.raises(CorruptCorpus):
                list(read_corpus(path))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        v = mine_mfg(synthetic_corpus(50, seed=2), eta=2, mvs=500)
        p = tmp_path / "v.mfg"
        save_vocab(v, p)
        assert load_mfg_vocab(p) == v

    def test_provenance_preserved(self, tmp_path):
        v = mine_mfg(["CCO"] * 10, eta=5, mvs=30000)
        p = tmp_path / "v.mfg"
        save_vocab(v, p)
        loaded = load_mfg_vocab(p)
        assert (loaded.eta, loaded.mvs) == (5, 30000)
        assert loaded.corpus_fingerprint == v.corpus_fingerprint

    def test_undecodable_line_names_its_number(self, tmp_path):
        p = tmp_path / "bad.mfg"
        p.write_bytes(b"fgr-mfg v1 eta=2 mvs=10 corpus=ab\n3\tC\n2\tC\xf2\n")
        with pytest.raises(MalformedLine, match="line 3"):
            load_mfg_vocab(p)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.mfg"
        p.write_text("some other file\n")
        with pytest.raises(VersionMismatch):
            load_mfg_vocab(p)

    def test_saved_bytes_deterministic(self, tmp_path):
        corpus = synthetic_corpus(80, seed=4)
        p1, p2 = tmp_path / "a.mfg", tmp_path / "b.mfg"
        save_vocab(mine_mfg(corpus, eta=2, mvs=1000), p1)
        save_vocab(mine_mfg(corpus, eta=2, mvs=1000), p2)
        assert p1.read_bytes() == p2.read_bytes()
