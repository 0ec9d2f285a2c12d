import random

import pytest

from fgrkit.chem import (
    AROMATIC,
    DOUBLE,
    SINGLE,
    Atom,
    Bond,
    Molecule,
    canonical_smiles,
    murcko_scaffold,
    parse_smiles,
    perceive_rings,
    scaffold_key,
    tokenize_smiles,
)
from fgrkit.datasets import load_bundled_corpus
from fgrkit.elements import atomic_number
from fgrkit.encode import compute_descriptors
from fgrkit.errors import (
    CanonicalizationBudgetExceeded,
    ParseError,
    UnbalancedParenthesis,
    UnbalancedRingClosure,
    UnknownAtomSymbol,
    UnterminatedBracketAtom,
    ValenceOverflow,
)
from fgrkit.smarts import match_exists, parse_smarts

from helpers import graph_summary, random_molecule_smiles, relabeled_copy
from oracles import oracle_isomorphic


class TestTokenizer:
    def test_simple_chain(self):
        assert tokenize_smiles("CCO") == ["C", "C", "O"]

    def test_two_letter_symbols(self):
        assert tokenize_smiles("CCl") == ["C", "Cl"]
        assert tokenize_smiles("BrCBr") == ["Br", "C", "Br"]

    def test_bracket_atom_single_token(self):
        assert tokenize_smiles("C(=O)[O-]") == ["C", "(", "=", "O", ")", "[O-]"]

    def test_percent_ring_closure(self):
        assert tokenize_smiles("C%12CC%12") == ["C", "%12", "C", "C", "%12"]

    def test_round_trip_identity(self):
        for s in ["CCO", "c1ccccc1", "C(=O)[O-]", "CC(C)(C)c1ccccc1",
                  "[Na+].[O-]S(=O)(=O)c1ccccc1", "C/C=C/C", "N#Cc1ccc(Cl)cc1"]:
            assert "".join(tokenize_smiles(s)) == s

    def test_unterminated_bracket(self):
        with pytest.raises(UnterminatedBracketAtom) as exc:
            tokenize_smiles("C[OH")
        assert exc.value.offset == 1

    def test_unknown_character(self):
        with pytest.raises(UnknownAtomSymbol):
            tokenize_smiles("CXC")


class TestParser:
    def test_ethanol(self):
        m = parse_smiles("CCO")
        assert m.num_atoms == 3
        assert m.num_bonds == 2
        assert all(b.order == SINGLE for b in m.bonds)
        assert m.atoms[2].element == "O"
        assert m.atoms[2].implicit_h == 1

    def test_cyclopropane_ring_closure(self):
        m = parse_smiles("C1CC1")
        assert m.num_atoms == 3
        assert m.num_bonds == 3

    def test_benzene(self):
        m = parse_smiles("c1ccccc1")
        assert m.num_atoms == 6
        assert all(a.aromatic for a in m.atoms)
        assert all(b.order == AROMATIC for b in m.bonds)
        assert all(a.implicit_h == 1 for a in m.atoms)

    def test_charge_and_explicit_h(self):
        m = parse_smiles("[NH4+]")
        atom = m.atoms[0]
        assert atom.formal_charge == 1
        assert atom.explicit_h == 4
        assert atom.implicit_h == 0

    def test_double_minus_charge(self):
        assert parse_smiles("[O--]").atoms[0].formal_charge == -2
        assert parse_smiles("[O-2]").atoms[0].formal_charge == -2

    def test_isotope_and_class_consumed(self):
        m = parse_smiles("[13CH4]")
        assert m.atoms[0].element == "C"
        assert m.atoms[0].explicit_h == 4

    def test_stereo_recorded_and_ignored(self):
        m = parse_smiles("C/C=C/C")
        assert m.num_bonds == 3
        assert [b.order for b in m.bonds] == [SINGLE, DOUBLE, SINGLE]
        assert [tok for tok in m.tokens if tok in "/\\"] == ["/", "/"]

    def test_parse_builds_no_adjacency(self):
        m = parse_smiles("CC(=O)Nc1ccc(O)cc1")
        assert m._adjacency is None
        assert m.tokens == tokenize_smiles("CC(=O)Nc1ccc(O)cc1")

    def test_dot_components(self):
        m = parse_smiles("CC.O")
        assert m.num_atoms == 3
        assert m.num_bonds == 1
        assert len(m.components()) == 2

    def test_hypervalent_sulfur(self):
        m = parse_smiles("CS(=O)(=O)C")  # S uses valence 6
        s = m.atoms[1]
        assert s.element == "S"
        assert s.implicit_h == 0

    def test_errors_carry_offsets(self):
        with pytest.raises(UnbalancedRingClosure) as exc:
            parse_smiles("C1CC")
        assert exc.value.offset == 1
        with pytest.raises(UnbalancedParenthesis) as exc:
            parse_smiles("C(CC")
        assert exc.value.offset == 4
        with pytest.raises(UnbalancedParenthesis):
            parse_smiles("CC)C")
        with pytest.raises(UnknownAtomSymbol):
            parse_smiles("C[Xx]C")
        # digits are ASCII only: other Unicode digits are unknown symbols
        for text, offset in [("[CH²]", 0), ("[C+²]", 0), ("C²CC²", 1), ("C١CC١", 1)]:
            with pytest.raises(UnknownAtomSymbol) as exc:
                parse_smiles(text)
            assert exc.value.offset == offset

    def test_valence_overflow(self):
        # explicit aromatic bonds on an uppercase atom (C:O:C) can push the
        # H-fill accounting past the valence table; that must be a named error
        for text, offset in [("C(C)(C)(C)(C)C", 0), ("O=C(=O)=O", 2), ("C:O:C", 2),
                             ("C[CH4]", 1)]:
            with pytest.raises(ValenceOverflow) as exc:
                parse_smiles(text)
            assert exc.value.offset == offset

    def test_empty_and_oversize_rejected(self):
        with pytest.raises(ParseError):
            parse_smiles("")
        with pytest.raises(ParseError):
            parse_smiles("C" * 5000)

    def test_nitro_needs_charged_form(self):
        # N is pinned to valence 3, so the neutral pentavalent form overflows
        with pytest.raises(ValenceOverflow):
            parse_smiles("CN(=O)=O")
        m = parse_smiles("C[N+](=O)[O-]")
        assert m.num_atoms == 4


class TestRings:
    def test_benzene_one_ring(self):
        m = parse_smiles("c1ccccc1")
        cycles = perceive_rings(m)
        assert len(cycles) == 1
        assert len(cycles[0]) == 6

    def test_acyclic_no_rings(self):
        assert perceive_rings(parse_smiles("CCO")) == []

    def test_naphthalene_basis(self):
        m = parse_smiles("c1ccc2ccccc2c1")
        cycles = perceive_rings(m)
        assert len(cycles) == m.num_bonds - m.num_atoms + 1 == 2
        assert sum(bool(sizes) for sizes in m.atom_ring_sizes()) == 10

    def test_basis_size_formula_random(self):
        rng = random.Random(7)
        for _ in range(50):
            m = parse_smiles(random_molecule_smiles(rng))
            cycles = perceive_rings(m)
            assert len(cycles) == m.num_bonds - m.num_atoms + len(m.components())

    def test_spiro_and_disconnected(self):
        m = parse_smiles("C1CC12CC2.C1CC1")
        cycles = perceive_rings(m)
        assert len(cycles) == m.num_bonds - m.num_atoms + len(m.components()) == 3

    def test_perception_writes_nothing_to_the_molecule(self):
        for smiles in ("C1CCO1", "c1ccc2ccccc2c1", "C1CC12CC2.C1CC1", "CCO"):
            m = parse_smiles(smiles)
            cycles = perceive_rings(m)
            assert m == parse_smiles(smiles) and m._rings is None
            assert m.rings() == cycles


def _scan_bond(mol, i, j):
    """Reference: the first bond in list order joining i and j."""
    for bond in mol.bonds:
        if (bond.a, bond.b) in ((i, j), (j, i)):
            return bond
    return None


class TestMoleculeCaches:
    def test_bond_between_equals_a_linear_scan_on_the_bundled_corpus(self):
        for smiles in load_bundled_corpus():
            mol = parse_smiles(smiles)
            for i in range(mol.num_atoms):
                for j in range(mol.num_atoms):  # self and non-bonded pairs included
                    assert mol.bond_between(i, j) is _scan_bond(mol, i, j)

    def test_bond_between_returns_the_lowest_index_bond(self):
        mol = Molecule(atoms=[Atom("C", index=0), Atom("C", index=1), Atom("O", index=2)],
                       bonds=[Bond(0, 1), Bond(1, 2), Bond(1, 0, order="double")])
        assert mol.bond_between(1, 0) is mol.bond_between(0, 1) is mol.bonds[0]
        assert mol.bond_between(0, 2) is None
        assert mol.bond_between(0, 2) is _scan_bond(mol, 0, 2)
        assert mol.bond_between(2, 1) is _scan_bond(mol, 2, 1)

    def test_ring_sizes_and_element_index(self):
        rng = random.Random(5)
        for _ in range(40):
            mol = parse_smiles(random_molecule_smiles(rng))
            cycles = mol.rings()
            assert mol.atom_ring_sizes() == [
                [len(c) for c in cycles if i in c] for i in range(mol.num_atoms)]
            index = mol.atoms_by_number()
            assert sorted(i for atoms in index.values() for i in atoms) == list(
                range(mol.num_atoms))
            for z, atoms in index.items():
                assert atoms == sorted(atoms)
                assert all(atomic_number(mol.atoms[i].element) == z for i in atoms)

    def test_caches_stay_out_of_repr_and_equality(self):
        a, b = parse_smiles("c1ccccc1O"), parse_smiles("c1ccccc1O")
        a.rings(), a.atom_ring_sizes(), a.bond_between(0, 1), a.atoms_by_number()
        murcko_scaffold(a), compute_descriptors(a)
        assert match_exists(parse_smarts("c@c"), a)
        assert a == b  # b is freshly parsed: no cache filled
        assert all(f"_{name}" not in repr(a) for name in (
            "adjacency", "bond_index", "rings", "atom_ring_sizes", "ring_bonds",
            "atoms_by_number"))


class TestScaffold:
    def test_benzene_is_its_own_scaffold(self):
        m = parse_smiles("c1ccccc1")
        sc = murcko_scaffold(m)
        assert graph_summary(sc) == graph_summary(m)

    def test_toluene_prunes_to_benzene(self):
        sc = murcko_scaffold(parse_smiles("Cc1ccccc1"))
        benzene = parse_smiles("c1ccccc1")
        assert scaffold_key(sc) == scaffold_key(benzene)

    def test_acyclic_gives_empty_sentinel(self):
        sc = murcko_scaffold(parse_smiles("CCO"))
        assert sc.num_atoms == 0
        assert scaffold_key(sc) == ""

    def test_linker_between_rings_kept(self):
        sc = murcko_scaffold(parse_smiles("c1ccccc1CCc1ccccc1"))
        assert sc.num_atoms == 14

    def test_idempotent(self):
        rng = random.Random(13)
        for _ in range(30):
            m = parse_smiles(random_molecule_smiles(rng))
            sc = murcko_scaffold(m)
            sc2 = murcko_scaffold(sc) if sc.num_atoms else sc
            assert scaffold_key(sc) == scaffold_key(sc2)


class TestScaffoldKey:
    def test_benzene_orderings_identical(self):
        keys = {scaffold_key(parse_smiles(s))
                for s in ["c1ccccc1", "c1ccc(cc1)", "c1ccccc1"]}
        # middle form: benzene written with an empty-looking branch ordering
        assert len(keys) == 1

    def test_empty_scaffold_key(self):
        assert scaffold_key(Molecule()) == ""

    def test_relabeling_invariance(self):
        rng = random.Random(29)
        for _ in range(40):
            m = parse_smiles(random_molecule_smiles(rng, max_atoms=12))
            perm_mol = relabeled_copy(m, rng)
            assert scaffold_key(m) == scaffold_key(perm_mol)

    def test_distinct_graphs_distinct_keys(self):
        k1 = scaffold_key(parse_smiles("c1ccccc1"))
        k2 = scaffold_key(parse_smiles("C1CCCCC1"))
        k3 = scaffold_key(parse_smiles("c1ccncc1"))
        assert len({k1, k2, k3}) == 3

    def test_atom_cutoff_hash_fallback_is_invariant(self):
        big = "C" * 130  # above the canonical-emission atom cutoff
        key = scaffold_key(parse_smiles(big))
        assert key.startswith("invhash:")
        rng = random.Random(2)
        perm_key = scaffold_key(relabeled_copy(parse_smiles(big), rng))
        assert perm_key == key

    def test_budget_exhaustion_raises_named_error(self):
        from fgrkit.errors import CanonicalizationBudgetExceeded
        mol = parse_smiles("c1ccc2ccccc2c1")
        with pytest.raises(CanonicalizationBudgetExceeded):
            canonical_smiles(mol, walk_budget=3)

    def test_key_equality_iff_isomorphic(self):
        # soundness and completeness against a brute-force permutation
        # oracle: equal keys <=> isomorphic graphs (single-component, <= 9
        # atoms to keep the oracle tractable)
        pool = ["CCO", "OCC", "CC(=O)O", "OC(C)=O", "C1CC1", "C1CC1C",
                "CC1CC1", "c1ccccc1", "c1ccncc1", "Cc1ccncc1",
                "CCN", "NCC", "CCC", "CC(C)O", "OC(C)C", "CCOC", "COCC",
                "C1CCC1", "C=CC", "CC=C", "C#CC", "CNC", "CN(C)C"]
        mols = []
        for s in pool:
            mol = parse_smiles(s)
            if mol.num_atoms <= 9:
                mols.append(mol)
        for i, a in enumerate(mols):
            for b in mols[i:]:
                same_key = scaffold_key(a) == scaffold_key(b)
                assert same_key == oracle_isomorphic(a, b), (a.source, b.source)


class TestCanonicalDepth:
    """Emission runs on explicit stacks: depth gives a string or a typed
    budget error, never a RecursionError."""

    PHENYLS_60 = "c1ccc(cc1)" * 59 + "c1ccccc1"

    def test_long_chain_with_unique_start_emits(self):
        s = canonical_smiles(parse_smiles("Br" + "C" * 1000))
        assert s == "Br" + "C" * 1000
        assert canonical_smiles(parse_smiles(s)) == s
        assert scaffold_key(murcko_scaffold(parse_smiles(s))) == ""

    @pytest.mark.parametrize("smiles", ["C" * 400, "C" * 1000, PHENYLS_60],
                             ids=["C400", "C1000", "phenyl60"])
    def test_deep_symmetric_input_exceeds_budget(self, smiles):
        mol = parse_smiles(smiles)
        with pytest.raises(CanonicalizationBudgetExceeded):
            canonical_smiles(mol)
        assert isinstance(scaffold_key(mol), str)
        assert isinstance(scaffold_key(murcko_scaffold(mol)), str)

    def test_invariant_hash_key_is_pinned(self):
        # a change to the fallback key's rows would move every stored key
        assert scaffold_key(parse_smiles("C" * 400)) == (
            "invhash:e96fb6bb9502415d294740b8a077b91ecaa825a454c8063f3690fbb32252a77c")

    def test_many_tied_neighbours_fail_fast(self):
        # 8 equal methyls on one atom have 8! > 20 000 orderings, each
        # costing a visit: the same fallback, decided before building them
        from fgrkit.chem import _tie_orderings
        mol = parse_smiles("[Xe]" + "(C)" * 7 + "C")
        with pytest.raises(CanonicalizationBudgetExceeded):
            canonical_smiles(mol)
        assert scaffold_key(mol).startswith("invhash:")
        tied = list(range(12))
        with pytest.raises(CanonicalizationBudgetExceeded):
            _tie_orderings(tied, dict.fromkeys(tied, 0), 20000)
        assert len(_tie_orderings(tied[:7], dict.fromkeys(tied, 0), 5040)) == 5040

    # the smallest walk budget that succeeds; it decides which molecules
    # fall back, so pruning the enumeration must not move it
    @pytest.mark.parametrize("smiles, threshold", [
        ("c1ccccc1", 66),
        ("c1ccc2ccccc2c1", 202),
        ("C12C3C4C1C5C2C3C45", 2072),
        ("C1C2CC3CC1CC(C2)C3", 1366),
        ("CC(C)(C)C", 177),
        ("C(c1ccccc1)(c1ccccc1)(c1ccccc1)c1ccccc1", 3961),
        ("OCC.c1ccccc1", 72),
    ])
    def test_walk_budget_threshold(self, smiles, threshold):
        mol = parse_smiles(smiles)
        assert canonical_smiles(mol, walk_budget=threshold) == canonical_smiles(mol)
        with pytest.raises(CanonicalizationBudgetExceeded):
            canonical_smiles(mol, walk_budget=threshold - 1)


class TestCanonicalEmission:
    ROUND_TRIP_CASES = [
        "CCO", "c1ccccc1", "Cc1ccccc1", "C1CC1", "c1ccc2ccccc2c1",
        "CC(C)(C)c1ccc(O)cc1", "[Na+].[O-]C(=O)C", "C[N+](=O)[O-]",
        "c1ccccc1-c1ccccc1", "O=C(O)c1ccccc1", "C/C=C/C", "N#Cc1ccncc1",
        "CS(=O)(=O)N", "c1cc[nH]c1", "c1ccoc1", "C%12CC%12",
    ]

    @pytest.mark.parametrize("smiles", ROUND_TRIP_CASES)
    def test_parse_emit_parse_isomorphic(self, smiles):
        m = parse_smiles(smiles)
        emitted = canonical_smiles(m)
        m2 = parse_smiles(emitted)
        assert scaffold_key(m) == scaffold_key(m2)
        assert graph_summary(m) == graph_summary(m2)

    def test_random_round_trips(self):
        rng = random.Random(41)
        for _ in range(60):
            m = parse_smiles(random_molecule_smiles(rng))
            m2 = parse_smiles(canonical_smiles(m))
            assert scaffold_key(m) == scaffold_key(m2)
            assert graph_summary(m) == graph_summary(m2)

    def test_emission_is_canonical_across_input_orderings(self):
        variants = ["OC(=O)c1ccccc1", "c1ccccc1C(O)=O", "C(=O)(O)c1ccccc1"]
        emissions = {canonical_smiles(parse_smiles(s)) for s in variants}
        assert len(emissions) == 1
