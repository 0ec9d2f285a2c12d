import random
from math import perm

import pytest

from fgrkit.chem import parse_smiles
from fgrkit.datasets import load_bundled_corpus, starter_fg_vocab_path
from fgrkit.errors import MalformedQuery, ParseError, UnsupportedPrimitive
from fgrkit.smarts import AtomQuery, find_embeddings, match_exists, parse_smarts
from fgrkit.vocab import load_fg_vocab

from helpers import random_molecule_smiles, relabeled_copy
from oracles import oracle_embeddings, oracle_match


class TestParseSmarts:
    def test_hydroxyl_primitives(self):
        q = parse_smarts("[OX2H]")
        assert q.num_atoms == 1
        tree = q.atoms[0].tree
        assert tree[0] == "and"
        kinds = {t[0] for t in tree[1]}
        assert kinds == {"element", "connectivity", "totalh"}

    def test_smiles_compatible_ring(self):
        q = parse_smarts("c1ccccc1")
        assert q.num_atoms == 6
        assert len(q.bonds) == 6
        assert all(a.aromatic_hint for a in q.atoms)

    def test_recursive_rejected(self):
        with pytest.raises(UnsupportedPrimitive) as exc:
            parse_smarts("[$(C=O)]")
        assert exc.value.primitive == "recursive"

    def test_stereo_rejected(self):
        with pytest.raises(UnsupportedPrimitive):
            parse_smarts("C/C=C/C")
        with pytest.raises(UnsupportedPrimitive):
            parse_smarts("[C@H](N)C")

    def test_component_grouping_rejected(self):
        with pytest.raises(UnsupportedPrimitive):
            parse_smarts("C.C")

    def test_bond_logic_rejected(self):
        with pytest.raises(UnsupportedPrimitive):
            parse_smarts("C=~C")

    def test_isotope_rejected(self):
        with pytest.raises(UnsupportedPrimitive):
            parse_smarts("[13C]")

    def test_malformed(self):
        with pytest.raises(MalformedQuery):
            parse_smarts("C(C")
        with pytest.raises(MalformedQuery):
            parse_smarts("C1CC")
        with pytest.raises(MalformedQuery):
            parse_smarts("")
        # digits are ASCII only
        for text in ["[#²]", "[D²]", "[R²]", "[X²]", "[+²]", "C²CC²", "C١CC١"]:
            with pytest.raises(MalformedQuery):
                parse_smarts(text)

    @pytest.mark.parametrize("text, offset", [
        ("1C", 0), ("C1CC", 1), ("C%10CC", 1), ("C11", 2), ("C=1CC-1", 6)])
    def test_ring_closure_errors_point_at_the_token_as_in_smiles(self, text, offset):
        from fgrkit.errors import UnbalancedRingClosure
        with pytest.raises(MalformedQuery) as smarts_error:
            parse_smarts(text)
        with pytest.raises(UnbalancedRingClosure) as smiles_error:
            parse_smiles(text)
        assert smarts_error.value.offset == smiles_error.value.offset == offset

    def test_empty_or_dangling_atom_expressions(self):
        # regression: an empty bracket once looped forever in charge parsing
        for bad in ["[]", "[])6N", "[,]", "[;]", "[&]", "[!]", "[C&]", "[C,]"]:
            with pytest.raises(MalformedQuery):
                parse_smarts(bad)

    def test_or_and_negation(self):
        q = parse_smarts("[C,N;!R]")
        assert q.num_atoms == 1
        assert q.atoms[0].tree[0] == "and"


    @pytest.mark.parametrize("deep, plain", [
        ("[" + "!" * 1000 + "C]", "[C]"),
        ("[" + "!" * 999 + "C]", "[!C]"),
        ("[C;" + "!" * 999 + "N]", "[C;!N]"),
        ("[C;" + "!" * 1000 + "N]", "[C;N]"),
    ], ids=["even", "odd", "and-odd", "and-even"])
    def test_negation_runs_parse_as_their_parity(self, deep, plain):
        q, ref = parse_smarts(deep), parse_smarts(plain)
        assert q.atoms == ref.atoms
        for smiles in ["CCO", "c1ccccc1N", "NC(=O)C", "O=[N+]([O-])c1ccncc1"]:
            mol = parse_smiles(smiles)
            assert match_exists(q, mol) == match_exists(ref, mol)
            assert find_embeddings(q, mol) == find_embeddings(ref, mol)

    def test_double_negation_is_the_operand(self):
        q = parse_smarts("[!!c]")
        assert q.atoms == parse_smarts("[c]").atoms
        assert q.atoms[0].aromatic_hint and q.mandatory_numbers == [6]

    @pytest.mark.parametrize("text", ["[#" + "9" * 5000 + "]", "[D" + "1" * 4400 + "]"],
                             ids=["number", "degree"])
    def test_overlong_number_is_malformed(self, text, tmp_path):
        with pytest.raises(MalformedQuery) as exc:
            parse_smarts(text)
        assert exc.value.offset == 2
        p = tmp_path / "fg.tsv"
        p.write_text(f"ok\t[OX2H]\nlong\t{text}\nalso_ok\tC=O\n")
        v = load_fg_vocab(p, skip_invalid=True)
        assert v.names == ["ok", "also_ok"]
        assert [lineno for lineno, _ in v.rejected] == [2]

    @pytest.mark.parametrize("text, cls, offset, message", [
        # outside brackets
        ("", MalformedQuery, 0, "empty SMARTS"),
        ("[C", MalformedQuery, 0, "unterminated bracket"),
        ("C$", UnsupportedPrimitive, 1, "recursive"),
        ("C/C", UnsupportedPrimitive, 1, "stereo"),
        ("C\\C", UnsupportedPrimitive, 1, "stereo"),
        ("C.C", UnsupportedPrimitive, 1, "component-grouping"),
        ("C!C", UnsupportedPrimitive, 1, "bond-negation"),
        ("C=-C", UnsupportedPrimitive, 2, "bond-expression"),
        ("(C", MalformedQuery, 0, "branch before any atom"),
        (")$", MalformedQuery, 0, "unmatched ')'"),
        ("%1", MalformedQuery, 0, "malformed %nn ring closure"),
        ("C%", MalformedQuery, 1, "malformed %nn ring closure"),
        ("1C", MalformedQuery, 0, "ring closure before any atom"),
        ("C=1CC-1", MalformedQuery, 6, "conflicting ring-closure bonds"),
        ("C11", MalformedQuery, 2, "ring bond to same query atom"),
        ("-C", MalformedQuery, 0, "bond with no preceding atom"),
        ("C1CC", MalformedQuery, 1, "unclosed ring closure"),
        ("C(C", MalformedQuery, 3, "unclosed '('"),
        ("C-", MalformedQuery, 1, "dangling bond at end"),
        ("k", UnsupportedPrimitive, 0, "aromatic-k"),
        ("K", MalformedQuery, 0, "unexpected symbol 'K'"),
        ("?", MalformedQuery, 0, "unexpected character '?'"),
        # inside brackets
        ("[]", MalformedQuery, 1, "empty atom expression"),
        ("[#]", MalformedQuery, 1, "'#' without atomic number"),
        ("[#" + "9" * 5000 + "]", MalformedQuery, 2, "number too long"),
        ("[13C]", UnsupportedPrimitive, 1, "isotope"),
        ("[C@H]", UnsupportedPrimitive, 2, "stereo"),
        ("[$(C=O)]", UnsupportedPrimitive, 1, "recursive"),
        ("[Q]", MalformedQuery, 1, "unknown element 'Q'"),
        ("[C?]", MalformedQuery, 2, "unexpected character '?' in atom expression"),
    ], ids=lambda v: v[:12] if isinstance(v, str) else None)
    def test_raise_sites(self, text, cls, offset, message):
        with pytest.raises(ParseError) as exc:
            parse_smarts(text)
        assert type(exc.value) is cls
        assert exc.value.offset == offset
        assert str(exc.value) == (f"unsupported SMARTS primitive: {message}"
                                  if cls is UnsupportedPrimitive else message) \
            + f" (offset {offset})"

    def test_one_letter_primitives_precede_two_letter_elements(self):
        # D H X R A a are read first inside brackets; see the module docstring
        ring_and = lambda sym: [AtomQuery(("and", [("ring_any",), ("element", sym, True)]), True)]
        assert parse_smarts("[Rb]").atoms == ring_and("B")
        assert parse_smarts("[Rn]").atoms == ring_and("N")
        assert match_exists(parse_smarts("[Rn]"), parse_smiles("c1cc[nH]c1"))
        for text, kind in [("[Hg]", "aromatic-g"), ("[Al]", "aromatic-l")]:
            with pytest.raises(UnsupportedPrimitive) as exc:
                parse_smarts(text)
            assert (exc.value.primitive, exc.value.offset) == (kind, 2)
        for sym in ["Na", "Se"]:
            assert parse_smarts(f"[{sym}]").atoms == [AtomQuery(("element", sym, False))]


class TestMatching:
    def test_hydroxyl_matches_ethanol(self):
        q = parse_smarts("[OX2H]")
        assert match_exists(q, parse_smiles("CCO"))

    def test_aromatic_ring_vs_aliphatic(self):
        q = parse_smarts("c1ccccc1")
        assert match_exists(q, parse_smiles("c1ccccc1CC"))
        assert not match_exists(q, parse_smiles("C1CCCCC1"))

    def test_wildcard_matches_everything(self):
        q = parse_smarts("*")
        for s in ["C", "N", "[Na+]", "c1ccccc1"]:
            assert match_exists(q, parse_smiles(s))

    def test_carbon_embeddings_in_ethanol(self):
        q = parse_smarts("[#6]")
        assert find_embeddings(q, parse_smiles("CCO")) == [(0,), (1,)]

    def test_cc_embeddings_both_orientations(self):
        q = parse_smarts("CC")
        assert find_embeddings(q, parse_smiles("CCC")) == [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_no_oxygen_in_benzene(self):
        q = parse_smarts("[OX2H]")
        assert find_embeddings(q, parse_smiles("c1ccccc1")) == []

    def test_limit_respected(self):
        q = parse_smarts("[#6]")
        out = find_embeddings(q, parse_smiles("CCCCCC"), limit=3)
        assert out == [(0,), (1,), (2,)]

    def test_charge_primitive(self):
        q = parse_smarts("[N+]")
        assert match_exists(q, parse_smiles("C[N+](C)(C)C"))
        assert not match_exists(q, parse_smiles("CNC"))

    def test_ring_membership(self):
        q = parse_smarts("[R]")
        assert match_exists(q, parse_smiles("C1CC1"))
        assert not match_exists(q, parse_smiles("CCC"))
        q0 = parse_smarts("[R0]")
        assert match_exists(q0, parse_smiles("C1CC1C"))
        assert not match_exists(q0, parse_smiles("C1CC1"))

    def test_ring_size(self):
        q6 = parse_smarts("[r6]")
        assert match_exists(q6, parse_smiles("C1CCCCC1"))
        assert not match_exists(q6, parse_smiles("C1CCCC1"))

    def test_ring_bond_predicate(self):
        q = parse_smarts("C@C")
        assert match_exists(q, parse_smiles("C1CC1"))
        assert not match_exists(q, parse_smiles("CC"))

    def test_default_bond_between_aromatics_spans_biphenyl(self):
        # unspecified bond between aromatic query atoms: single-or-aromatic
        biphenyl = parse_smiles("c1ccccc1-c1ccccc1")  # atoms 5 and 6 are the link
        assert (5, 6) in find_embeddings(parse_smarts("cc"), biphenyl)
        # explicit aromatic bond must not match the biphenyl single link
        q_arom = parse_smarts("c:c")
        assert (5, 6) not in find_embeddings(q_arom, biphenyl)
        assert match_exists(q_arom, parse_smiles("c1ccccc1"))

    def test_double_bond(self):
        q = parse_smarts("C=O")
        assert match_exists(q, parse_smiles("CC(=O)C"))
        assert not match_exists(q, parse_smiles("CCO"))


class TestOracleEquivalence:
    QUERY_POOL = [
        "C", "N", "O", "c", "n", "[OH]", "[NH2]", "[#6]", "[!O]", "[C,N]",
        "[R]", "[!R]", "[X2]", "[OX2H]", "[CD2]", "[CH3]", "[N+]", "[O-]",
        "[#7X3]", "*", "CC", "C=O", "C~N", "CO", "C(C)C", "ccc", "C=C",
        "[#6][#8]", "[CH2][CH2]", "CCO", "[R][R]", "C@C",
        "[C;!R]", "[c,n][c,n]", "O=C[OH]", "NC=O",
        # screen edge cases: elements under 'not'/'or' force nothing, and
        # repeated elements need as many molecule atoms
        "[!C]", "[N,O]", "[!#6]", "[#8]", "OCO", "C(O)(O)O", "[Cl]", "[!c;!n]",
        "[#1]", "[#6;H1]", "[O;!H0]",
    ]
    EXPLICIT_H = ["[H]OC([H])([H])[H]", "[H]N([H])C(=O)O", "[H]c1ccccc1",
                  "[H]C(O)(O)O", "[H]Cl", "[H][H]", "[2H]OC", "C[N+]([H])(C)C"]

    def test_agreement_on_random_pairs(self):
        rng = random.Random(99)
        pairs = 0
        disagreements = 0
        while pairs < 250:
            smiles = random_molecule_smiles(rng, max_atoms=12)
            mol = parse_smiles(smiles)
            if mol.num_atoms > 12:
                continue
            query = parse_smarts(rng.choice(self.QUERY_POOL))
            if query.num_atoms > 4:
                continue
            pairs += 1
            got = match_exists(query, mol)
            want = oracle_match(query, mol)
            if got != want:
                disagreements += 1
        assert disagreements == 0

    def test_embedding_lists_match_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            mol = parse_smiles(random_molecule_smiles(rng, max_atoms=12))
            if mol.num_atoms > 12:
                continue
            query = parse_smarts(rng.choice(self.QUERY_POOL))
            if query.num_atoms > 4:
                continue
            got = find_embeddings(query, mol, limit=100000)
            assert got == oracle_embeddings(query, mol)

    def test_match_iff_embedding_found(self):
        rng = random.Random(21)
        for _ in range(80):
            mol = parse_smiles(random_molecule_smiles(rng))
            query = parse_smarts(rng.choice(self.QUERY_POOL))
            assert match_exists(query, mol) == bool(find_embeddings(query, mol, limit=1))

    def test_relabeling_invariance(self):
        rng = random.Random(3)
        for _ in range(40):
            mol = parse_smiles(random_molecule_smiles(rng, max_atoms=12))
            perm = relabeled_copy(mol, rng)
            query = parse_smarts(rng.choice(self.QUERY_POOL))
            assert match_exists(query, mol) == match_exists(query, perm)

    def test_monotone_under_added_fragment(self):
        rng = random.Random(17)
        for _ in range(30):
            smiles = random_molecule_smiles(rng)
            query = parse_smarts(rng.choice(self.QUERY_POOL))
            mol = parse_smiles(smiles)
            if match_exists(query, mol):
                assert match_exists(query, parse_smiles(smiles + ".CC"))

    def test_explicit_hydrogen_molecules_match_oracle(self):
        for smiles in self.EXPLICIT_H:
            mol = parse_smiles(smiles)
            for text in self.QUERY_POOL:
                query = parse_smarts(text)
                want = oracle_embeddings(query, mol)
                assert find_embeddings(query, mol, limit=100000) == want, (smiles, text)
                assert match_exists(query, mol) == bool(want), (smiles, text)

    def test_bundled_corpus_against_starter_vocab(self):
        # seeded (molecule, pattern) pairs for which the brute-force oracle's
        # nm!/(nm-nq)! assignments stay cheap; about 3 s on a 2-CPU machine
        mols = [parse_smiles(s) for s in load_bundled_corpus()]
        patterns = [e.pattern for e in load_fg_vocab(starter_fg_vocab_path()).entries]
        rng = random.Random(12)
        pairs = hits = 0
        while pairs < 1000:
            mol, query = rng.choice(mols), rng.choice(patterns)
            if perm(mol.num_atoms, query.num_atoms) > 5000:
                continue
            pairs += 1
            want = oracle_embeddings(query, mol)
            hits += bool(want)
            assert match_exists(query, mol) == bool(want), (mol.source, query.source)
            assert find_embeddings(query, mol, limit=10 ** 6) == want
        assert hits >= 20
