"""Molecular graphs from SMILES: tokenizer, parser, rings, scaffolds.

The grammar subset is: organic-subset atoms (B C N O P S F Cl Br I and the
aromatic forms b c n o p s), bracket atoms with isotope / explicit H /
charge / atom class, ring closures 1-9 and %nn, branches, bond symbols
``- = # : / \\``, and dot-disconnected components. Stereo markers and
isotopes are consumed and ignored. Aromaticity is taken from the input
(lowercase symbols); no perception or kekulization. Digits are ASCII.

Implicit hydrogens follow one rule, ``_hydrogen_fill``, over a fixed valence
table (see ``elements``); an aromatic atom's available valence is reduced by
one per aromatic bond pair. Inputs whose sigma-bond count exceeds the table
valence raise ``ValenceOverflow`` rather than being silently patched.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from itertools import count, groupby, permutations, product
from math import factorial, prod

from .elements import (
    AROMATIC_OK,
    ORGANIC_SUBSET,
    STANDARD_VALENCES,
    ATOMIC_NUMBERS,
    atomic_number,
)
from .errors import (
    CanonicalizationBudgetExceeded,
    ParseError,
    UnbalancedParenthesis,
    UnbalancedRingClosure,
    UnknownAtomSymbol,
    UnterminatedBracketAtom,
    ValenceOverflow,
)

MAX_SMILES_LENGTH = 4096

SINGLE = "single"
DOUBLE = "double"
TRIPLE = "triple"
AROMATIC = "aromatic"

# Valence used by a non-aromatic bond; aromatic bonds are counted apart
# (see ``_hydrogen_fill``).
_ORDER_VALUE = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3}
_BOND_FROM_CHAR = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC,
                   "/": SINGLE, "\\": SINGLE}
_CHAR_FROM_BOND = {SINGLE: "-", DOUBLE: "=", TRIPLE: "#", AROMATIC: ":"}


@dataclass
class Atom:
    """One heavy atom (or explicit [H]) of a molecular graph."""

    element: str
    aromatic: bool = False
    formal_charge: int = 0
    explicit_h: int = 0
    implicit_h: int = 0
    index: int = -1
    from_bracket: bool = False

    @property
    def total_h(self) -> int:
        return self.explicit_h + self.implicit_h


@dataclass
class Bond:
    """Undirected edge between two atom indices."""

    a: int
    b: int
    order: str = SINGLE

    def other(self, idx: int) -> int:
        return self.b if idx == self.a else self.a

    @property
    def pair(self) -> tuple[int, int]:
        return (self.a, self.b) if self.a < self.b else (self.b, self.a)


@dataclass
class Molecule:
    """Attributed graph parsed from SMILES; the unit all matching works on.

    ``tokens`` is the lossless token list of ``source`` from the parse's own
    scan (what ``tokenize_smiles`` returns); it is empty for built graphs
    such as scaffolds, and equality ignores it.
    """

    atoms: list[Atom] = field(default_factory=list)
    bonds: list[Bond] = field(default_factory=list)
    source: str = ""
    tokens: list[str] = field(default_factory=list, compare=False, repr=False)
    _adjacency: list[list[tuple[int, int]]] | None = field(default=None, compare=False, repr=False)
    _bond_index: dict[tuple, int] | None = field(default=None, compare=False, repr=False)
    _rings: list[list[int]] | None = field(default=None, compare=False, repr=False)
    _atom_ring_sizes: list | None = field(default=None, compare=False, repr=False)
    _ring_bonds: set | None = field(default=None, compare=False, repr=False)
    _atoms_by_number: dict | None = field(default=None, compare=False, repr=False)

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    @property
    def num_bonds(self) -> int:
        return len(self.bonds)

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-atom list of (neighbor index, bond index), ascending."""
        if self._adjacency is None:
            adj: list[list[tuple[int, int]]] = [[] for _ in self.atoms]
            index: dict[tuple[int, int], int] = {}
            for bi, bond in enumerate(self.bonds):
                adj[bond.a].append((bond.b, bi))
                adj[bond.b].append((bond.a, bi))
                index.setdefault((bond.a, bond.b), bi)
                index.setdefault((bond.b, bond.a), bi)
            for row in adj:
                row.sort()
            self._adjacency = adj
            self._bond_index = index
        return self._adjacency

    def degree(self, idx: int) -> int:
        return len(self.adjacency()[idx])

    def bond_between(self, i: int, j: int) -> Bond | None:
        """The lowest-index bond joining atoms i and j, or None."""
        self.adjacency()
        bi = self._bond_index.get((i, j))
        return None if bi is None else self.bonds[bi]

    def rings(self) -> list[list[int]]:
        """The cycle basis of ``perceive_rings``, computed once; the other
        ring caches derive from it."""
        if self._rings is None:
            self._rings = perceive_rings(self)
        return self._rings

    def atom_ring_sizes(self) -> list[list[int]]:
        """Per atom, the size of each basis cycle through it (so, its ring count)."""
        if self._atom_ring_sizes is None:
            sizes: list[list[int]] = [[] for _ in self.atoms]
            for cyc in self.rings():
                for idx in cyc:
                    sizes[idx].append(len(cyc))
            self._atom_ring_sizes = sizes
        return self._atom_ring_sizes

    def ring_bonds(self) -> set[tuple[int, int]]:
        """Atom pairs (lower index first) of the bonds on a basis cycle."""
        if self._ring_bonds is None:
            self._ring_bonds = {(i, j) if i < j else (j, i)
                                for cyc in self.rings() for i, j in zip(cyc, cyc[1:] + cyc[:1])}
        return self._ring_bonds

    def atoms_by_number(self) -> dict[int, list[int]]:
        """Atomic number -> ascending indices of the atoms that carry it."""
        if self._atoms_by_number is None:
            index: dict[int, list[int]] = {}
            for i, atom in enumerate(self.atoms):
                index.setdefault(atomic_number(atom.element), []).append(i)
            self._atoms_by_number = index
        return self._atoms_by_number

    def components(self) -> list[list[int]]:
        """Connected components as sorted atom-index lists."""
        seen = [False] * self.num_atoms
        comps = []
        adj = self.adjacency()
        for start in range(self.num_atoms):
            if seen[start]:
                continue
            stack, comp = [start], []
            seen[start] = True
            while stack:
                u = stack.pop()
                comp.append(u)
                for v, _ in adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            comps.append(sorted(comp))
        return comps


# ---------------------------------------------------------------------------
# scanning / tokenizing
# ---------------------------------------------------------------------------

# One named group per token kind, tried in order (so ``Cl``/``Br`` before the
# one-letter symbols); ``bad`` takes any other character so the scan can name
# its error. Digits are ASCII only, as in OpenSMILES.
_TOKEN = re.compile(
    r"(?P<bracket>\[[^\]]*\])|(?P<ring>%[0-9][0-9]|[0-9])|(?P<bond>[-=#:/\\])"
    r"|(?P<open>\()|(?P<close>\))|(?P<dot>\.)|(?P<atom>Cl|Br|[BCNOPSFIbcnops*])"
    r"|(?P<bad>.)", re.DOTALL)


def _scan(text: str) -> list[tuple[str, str, int]]:
    """Lossless scan into (kind, token, offset) triples."""
    out: list[tuple[str, str, int]] = []
    for m in _TOKEN.finditer(text):
        kind, i = m.lastgroup, m.start()
        if kind == "bad":
            ch = text[i]
            if ch == "[":
                raise UnterminatedBracketAtom("unterminated bracket atom", i, text)
            if ch == "%":
                raise UnbalancedRingClosure("malformed %nn ring closure", i, text)
            raise UnknownAtomSymbol(f"unrecognized character {ch!r}", i, text)
        out.append((kind, m.group(), i))
    return out


def tokenize_smiles(text: str) -> list[str]:
    """Lossless token list: ``"".join(tokens) == text``.

    Cl/Br come out as single tokens, bracket atoms come out whole.
    """
    if not text:
        raise ParseError("empty SMILES", 0, text)
    return [tok for _, tok, _ in _scan(text)]


# ---------------------------------------------------------------------------
# bracket atom parsing
# ---------------------------------------------------------------------------

_DIGITS = re.compile("[0-9]*")


def _parse_bracket(token: str, offset: int, text: str) -> Atom:
    """Parse one ``[...]`` token into an Atom."""
    body = token[1:-1]
    if not body:
        raise UnknownAtomSymbol("empty bracket atom", offset, text)
    # isotope: parsed and discarded (Atom carries no isotope field)
    i = _DIGITS.match(body).end()
    if i >= len(body):
        raise UnknownAtomSymbol("bracket atom without element", offset, text)
    # element symbol
    aromatic = False
    if body[i] == "*":
        element = "*"
        i += 1
    elif body[i].islower():
        element = body[i].upper()
        if element not in AROMATIC_OK:
            raise UnknownAtomSymbol(f"aromatic form not allowed for {body[i]!r}",
                                    offset, text)
        aromatic = True
        i += 1
    else:
        if i + 1 < len(body) and body[i + 1].islower() and body[i:i + 2] in ATOMIC_NUMBERS:
            element = body[i:i + 2]
            i += 2
        else:
            element = body[i]
            i += 1
        if element not in ATOMIC_NUMBERS:
            raise UnknownAtomSymbol(f"unknown element {element!r}", offset, text)
    # chirality: consumed and ignored
    while i < len(body) and body[i] == "@":
        i += 1
    # explicit hydrogen count
    hcount = 0
    if i < len(body) and body[i] == "H":
        j = _DIGITS.match(body, i + 1).end()
        hcount = int(body[i + 1:j] or 1)
        i = j
    # formal charge
    charge = 0
    if i < len(body) and body[i] in "+-":
        sign = 1 if body[i] == "+" else -1
        symbol = body[i]
        i += 1
        j = _DIGITS.match(body, i).end()
        if j > i:
            charge = sign * int(body[i:j])
            i = j
        else:
            charge = sign
            while i < len(body) and body[i] == symbol:
                charge += sign
                i += 1
    # atom class: parsed and discarded
    if i < len(body) and body[i] == ":":
        j = _DIGITS.match(body, i + 1).end()
        if j == i + 1:
            raise UnknownAtomSymbol("malformed atom class", offset, text)
        i = j
    if i != len(body):
        raise UnknownAtomSymbol(f"trailing bracket content {body[i:]!r}", offset, text)
    return Atom(element=element, aromatic=aromatic, formal_charge=charge,
                explicit_h=hcount, from_bracket=True)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def parse_smiles(text: str, max_length: int = MAX_SMILES_LENGTH) -> Molecule:
    """Parse a SMILES string into a Molecule with implicit hydrogens assigned
    and ``tokens`` kept from the one scan of the text.

    Raises UnbalancedRingClosure, UnbalancedParenthesis, UnknownAtomSymbol,
    ValenceOverflow or UnterminatedBracketAtom, each carrying the 0-based
    byte offset of the offending character.
    """
    if not text:
        raise ParseError("empty SMILES", 0, text)
    if len(text) > max_length:
        raise ParseError(f"SMILES longer than {max_length} characters", max_length, text)

    scanned = _scan(text)
    mol = Molecule(source=text, tokens=[tok for _, tok, _ in scanned])
    atom_offsets: list[int] = []
    anchor: int | None = None
    pending_bond: str | None = None
    pending_offset = 0
    branch_stack: list[int] = []
    open_rings: dict[str, tuple[int, str | None, int]] = {}
    bond_pairs: set[tuple[int, int]] = set()

    def add_bond(i: int, j: int, order: str | None, offset: int) -> None:
        if i == j:
            raise UnbalancedRingClosure("ring bond to the same atom", offset, text)
        pair = (i, j) if i < j else (j, i)
        if pair in bond_pairs:
            raise UnbalancedRingClosure("duplicate bond between atoms", offset, text)
        if order is None:
            both_aromatic = mol.atoms[i].aromatic and mol.atoms[j].aromatic
            order = AROMATIC if both_aromatic else SINGLE
        bond_pairs.add(pair)
        mol.bonds.append(Bond(a=i, b=j, order=order))

    for kind, token, offset in scanned:
        if kind == "atom" or kind == "bracket":
            if kind == "bracket":
                atom = _parse_bracket(token, offset, text)
            else:
                if token == "*":
                    atom = Atom(element="*")
                else:
                    element = token.upper() if token.islower() else token
                    if token.islower() and element not in AROMATIC_OK:
                        raise UnknownAtomSymbol(
                            f"aromatic form not allowed for {token!r}", offset, text)
                    atom = Atom(element=element, aromatic=token.islower())
            atom.index = len(mol.atoms)
            mol.atoms.append(atom)
            atom_offsets.append(offset)
            if anchor is not None:
                add_bond(anchor, atom.index, pending_bond, offset)
            elif pending_bond is not None:
                raise ParseError("bond symbol with no preceding atom",
                                 pending_offset, text)
            pending_bond = None
            anchor = atom.index
        elif kind == "bond":
            if pending_bond is not None:
                raise ParseError("two consecutive bond symbols", offset, text)
            pending_bond = _BOND_FROM_CHAR[token]
            pending_offset = offset
        elif kind == "ring":
            if anchor is None:
                raise UnbalancedRingClosure("ring closure before any atom", offset, text)
            if token in open_rings:
                partner, opened_bond, opened_at = open_rings.pop(token)
                if pending_bond is not None and opened_bond is not None \
                        and pending_bond != opened_bond:
                    raise UnbalancedRingClosure(
                        "conflicting bond orders on ring closure", offset, text)
                add_bond(partner, anchor, pending_bond or opened_bond, offset)
                pending_bond = None
            else:
                open_rings[token] = (anchor, pending_bond, offset)
                pending_bond = None
        elif kind == "open":
            if anchor is None:
                raise UnbalancedParenthesis("branch before any atom", offset, text)
            if pending_bond is not None:
                raise ParseError("bond symbol before branch open", offset, text)
            branch_stack.append(anchor)
        elif kind == "close":
            if not branch_stack:
                raise UnbalancedParenthesis("unmatched ')'", offset, text)
            if pending_bond is not None:
                raise ParseError("dangling bond before ')'", offset, text)
            anchor = branch_stack.pop()
        elif kind == "dot":
            if pending_bond is not None:
                raise ParseError("bond symbol before '.'", pending_offset, text)
            anchor = None

    if open_rings:
        first = min(off for (_, _, off) in open_rings.values())
        raise UnbalancedRingClosure("unclosed ring closure", first, text)
    if branch_stack:
        raise UnbalancedParenthesis("unclosed '('", len(text), text)
    if pending_bond is not None:
        raise ParseError("dangling bond at end of input", pending_offset, text)

    for atom, (n_arom, others), offset in zip(mol.atoms, _bond_sums(mol), atom_offsets):
        valences = STANDARD_VALENCES.get(atom.element)
        sigma = n_arom + others
        if atom.from_bracket or atom.element == "*":
            if (valences is not None and atom.formal_charge == 0
                    and sigma + atom.explicit_h > max(valences)):
                raise ValenceOverflow(
                    f"{atom.element} with {sigma} bonds + {atom.explicit_h}H "
                    f"exceeds valence {max(valences)}", offset, text)
            continue
        assert valences is not None  # organic subset is always in the table
        if sigma > max(valences):
            raise ValenceOverflow(
                f"{atom.element} with bond order sum {sigma} exceeds valence "
                f"{max(valences)}", offset, text)
        fill, implicit_h = _hydrogen_fill(atom, n_arom, others)
        if implicit_h is None:
            # fill can exceed sigma only via explicit aromatic bonds on an
            # uppercase atom; surface that as an overflow, never a crash
            raise ValenceOverflow(
                f"{atom.element} with effective bond order {fill} exceeds "
                f"valence {max(valences)}", offset, text)
        atom.implicit_h = implicit_h
    return mol


def encoder_input(smiles: str) -> tuple[Molecule, list[str]]:
    """(molecule, MFG tokens), or an FgrError: every encoder's text -> molecule step."""
    mol = parse_smiles(smiles)
    return mol, mol.tokens


def _bond_sums(mol: Molecule) -> list[list[int]]:
    """Per atom, [aromatic bond count, summed order of its other bonds]."""
    sums = [[0, 0] for _ in mol.atoms]
    for bond in mol.bonds:
        if bond.order == AROMATIC:
            sums[bond.a][0] += 1
            sums[bond.b][0] += 1
        else:
            value = _ORDER_VALUE[bond.order]
            sums[bond.a][1] += value
            sums[bond.b][1] += value
    return sums


def _hydrogen_fill(atom: Atom, n_arom: int, others: int) -> tuple[int, int | None]:
    """The implicit-hydrogen rule for an organic-subset atom with ``n_arom``
    aromatic bonds and other bonds of summed order ``others``: (H-fill bond
    count, implicit H count).

    The fill count charges an extra valence per aromatic bond pair. Aromatic
    atoms take the smallest table valence, others the smallest one that
    fits; the H count is None when no table valence fits a non-aromatic atom.
    """
    fill = n_arom + n_arom // 2 + others
    valences = STANDARD_VALENCES[atom.element]
    if atom.aromatic:
        return fill, max(0, min(valences) - fill)
    chosen = next((v for v in valences if v >= fill), None)
    return fill, None if chosen is None else chosen - fill


# ---------------------------------------------------------------------------
# rings
# ---------------------------------------------------------------------------

def perceive_rings(mol: Molecule) -> list[list[int]]:
    """Cycle basis via DFS back edges; reads ``mol`` and writes nothing to it.

    Basis size equals bonds - atoms + components. Callers go through the
    cached ``Molecule.rings()``.
    """
    adj = mol.adjacency()
    n = mol.num_atoms
    parent_atom = [-1] * n
    parent_bond = [-1] * n
    visited = [False] * n
    cycles: list[list[int]] = []
    ring_bond_idx: set[int] = set()

    for root in range(n):
        if visited[root]:
            continue
        visited[root] = True
        stack = [(root, iter(adj[root]))]
        order = {root: 0}
        while stack:
            u, it = stack[-1]
            advanced = False
            for v, bi in it:
                if bi == parent_bond[u]:
                    continue
                if not visited[v]:
                    visited[v] = True
                    parent_atom[v] = u
                    parent_bond[v] = bi
                    order[v] = len(order)
                    stack.append((v, iter(adj[v])))
                    advanced = True
                    break
                if order.get(v, -1) <= order[u] and bi not in ring_bond_idx:
                    # back edge u -> v: cycle = v .. u tree path + (u, v)
                    path = [u]
                    w = u
                    while w != v:
                        w = parent_atom[w]
                        path.append(w)
                    cycles.append(list(reversed(path)))
                    ring_bond_idx.add(bi)
            if not advanced:
                stack.pop()
    return cycles


# ---------------------------------------------------------------------------
# scaffolds
# ---------------------------------------------------------------------------

def murcko_scaffold(mol: Molecule) -> Molecule:
    """Ring systems plus inter-ring linkers; side chains pruned.

    Iteratively removes non-ring atoms of degree <= 1. Acyclic molecules
    come back as the empty sentinel (a molecule with no atoms). Implicit
    hydrogens of surviving non-bracket atoms are recomputed for the pruned
    environment so that e.g. toluene's scaffold equals benzene.
    """
    alive = [True] * mol.num_atoms
    adj = mol.adjacency()
    ring_sizes = mol.atom_ring_sizes()
    changed = True
    while changed:
        changed = False
        for i in range(mol.num_atoms):
            if not alive[i] or ring_sizes[i]:
                continue
            deg = sum(1 for v, _ in adj[i] if alive[v])
            if deg <= 1:
                alive[i] = False
                changed = True

    keep = [i for i in range(mol.num_atoms) if alive[i]]
    return _induced_subgraph(mol, keep)


def _induced_subgraph(mol: Molecule, keep: list[int]) -> Molecule:
    remap = {old: new for new, old in enumerate(keep)}
    sub = Molecule(source="")
    for old in keep:
        a = mol.atoms[old]
        sub.atoms.append(Atom(element=a.element, aromatic=a.aromatic,
                              formal_charge=a.formal_charge,
                              explicit_h=a.explicit_h, index=remap[old],
                              from_bracket=a.from_bracket))
    for bond in mol.bonds:
        if bond.a in remap and bond.b in remap:
            sub.bonds.append(Bond(a=remap[bond.a], b=remap[bond.b], order=bond.order))
    for atom, (n_arom, others) in zip(sub.atoms, _bond_sums(sub)):
        if not (atom.from_bracket or atom.element == "*"):
            atom.implicit_h = _hydrogen_fill(atom, n_arom, others)[1] or 0
    return sub


# ---------------------------------------------------------------------------
# canonical emission and scaffold keys
# ---------------------------------------------------------------------------

SCAFFOLD_KEY_ATOM_CUTOFF = 128
_WALK_BUDGET = 20000


def _refined_ranks(mol: Molecule, atoms: list[int]) -> dict[int, int]:
    """Iterative neighborhood refinement (Morgan-style) ranks, 0-based."""
    adj = mol.adjacency()
    atom_set = set(atoms)
    inv = {i: (mol.atoms[i].element, mol.atoms[i].aromatic,
               mol.atoms[i].formal_charge, mol.atoms[i].total_h,
               sum(1 for v, _ in adj[i] if v in atom_set))
           for i in atoms}
    ranks = _ranks_from_keys(inv)
    while True:
        new_keys = {}
        for i in atoms:
            nbr = sorted((mol.bonds[bi].order, ranks[v])
                         for v, bi in adj[i] if v in atom_set)
            new_keys[i] = (ranks[i], tuple(nbr))
        new_ranks = _ranks_from_keys(new_keys)
        if len(set(new_ranks.values())) == len(set(ranks.values())):
            return new_ranks
        ranks = new_ranks


def _ranks_from_keys(keys: dict[int, object]) -> dict[int, int]:
    ordered = sorted(set(keys.values()))  # type: ignore[type-var]
    pos = {k: r for r, k in enumerate(ordered)}
    return {i: pos[k] for i, k in keys.items()}


def _atom_token(mol: Molecule, idx: int, bond_sums: list[int]) -> str:
    """Emission token for one atom, bare when re-parsing reproduces it;
    ``bond_sums`` is the atom's entry of ``_bond_sums(mol)``."""
    atom = mol.atoms[idx]
    symbol = atom.element.lower() if atom.aromatic else atom.element
    if atom.element == "*":
        return "*"
    bare_ok = (atom.element in ORGANIC_SUBSET and atom.formal_charge == 0
               and (not atom.aromatic or atom.element in AROMATIC_OK))
    if bare_ok and _hydrogen_fill(atom, *bond_sums)[1] == atom.total_h:
        return symbol
    h = atom.total_h
    hpart = "" if h == 0 else ("H" if h == 1 else f"H{h}")
    q = atom.formal_charge
    if q == 0:
        qpart = ""
    elif q == 1:
        qpart = "+"
    elif q == -1:
        qpart = "-"
    else:
        qpart = f"{'+' if q > 0 else '-'}{abs(q)}"
    return f"[{symbol}{hpart}{qpart}]"


def _bond_char(mol: Molecule, u: int, v: int) -> str:
    """Emitted symbol of the bond between atoms u and v; empty for defaults."""
    bond = mol.bond_between(u, v)
    assert bond is not None
    a_arom = mol.atoms[u].aromatic and mol.atoms[v].aromatic
    if bond.order == AROMATIC:
        return "" if a_arom else ":"
    if bond.order == SINGLE:
        return "-" if a_arom else ""
    return _CHAR_FROM_BOND[bond.order]


def _tie_orderings(cands: list[int], ranks: dict[int, int],
                   limit: int) -> list[list[int]]:
    """All orderings of candidate atoms that respect ascending refined rank,
    permuting within equal-rank groups only. Each ordering of non-empty
    ``cands`` costs a visit, so more than ``limit`` (the visits left in the
    budget) raise CanonicalizationBudgetExceeded before any is built."""
    ordered = sorted(cands, key=lambda v: (ranks[v], v))
    groups = [list(g) for _, g in groupby(ordered, key=ranks.__getitem__)]
    if groups and prod(factorial(len(g)) for g in groups) > limit:
        raise CanonicalizationBudgetExceeded("walk budget exhausted")
    return [[v for g in combo for v in g]
            for combo in product(*(permutations(g) for g in groups))]


def _component_walks(mol: Molecule, comp_set: set[int], ranks: dict[int, int],
                     start: int, budget: list[int]):
    """Enumerate DFS walks of one component from a fixed start atom.

    Yields (visit_order, tree_children, ring_edges) per walk. Frames (atom,
    child ordering, next position) form a linked stack of tuples. A visit
    records its ring edges to visited atoms other than the tree parent and
    follows the first ordering of its unvisited neighbours; a branch point
    keeps the walk's lengths, frames and other orderings, and the next walk
    is this one cut back to the newest branch point, on its next ordering.
    The budget counts atom visits across the whole enumeration, once per
    distinct prefix; it depends only on the graph, never on results so far,
    which keeps exhaustion (and therefore the hash fallback)
    isomorphism-invariant.
    """
    adj = mol.adjacency()
    visits: list[tuple[int, int]] = []  # (atom, tree parent) in visit order
    ring_edges: list[tuple[int, int]] = []
    seen: set[int] = set()
    branches = [(0, 0, None, -1, iter([[start]]))]  # start: only child of no atom
    while branches:
        n_visits, n_rings, frames, v, orderings = branches[-1]
        ordering = next(orderings, None)
        if ordering is None:
            branches.pop()
            continue
        seen.difference_update(a for a, _ in visits[n_visits:])
        del visits[n_visits:], ring_edges[n_rings:]
        frames = ((v, ordering, 0), frames)
        while frames:
            (u, ordering, k), frames = frames
            # skip children already reached through an earlier sibling
            # subtree; the edge was recorded as a ring edge then
            while k < len(ordering) and ordering[k] in seen:
                k += 1
            if k == len(ordering):
                continue
            v = ordering[k]
            frames = ((u, ordering, k + 1), frames)
            budget[0] -= 1
            if budget[0] < 0:
                raise CanonicalizationBudgetExceeded("walk budget exhausted")
            ring_edges += [(w, v) for w, _ in adj[v] if w in seen and w != u]
            visits.append((v, u))
            seen.add(v)
            cands = [w for w, _ in adj[v] if w in comp_set and w not in seen]
            first, *others = _tie_orderings(cands, ranks, budget[0])
            if others:
                branches.append((len(visits), len(ring_edges), frames, v, iter(others)))
            frames = ((v, first, 0), frames)
        if len(visits) == len(comp_set):
            children: dict[int, list[int]] = {}
            for a, u in visits[1:]:
                children.setdefault(u, []).append(a)
            yield [a for a, _ in visits], children, list(ring_edges)


def _emit(mol: Molecule, visit_order: list[int], tree_children: dict[int, list[int]],
          ring_edges: list[tuple[int, int]], tokens: dict[int, str]) -> str:
    """Render one completed walk as a SMILES string, from one stack of the
    atoms still to write and literal pieces (parentheses, tree bonds)."""
    # ring digits open at the first-visited endpoint, ordered by partner
    # visit: each ring edge is (earlier, later), listed as the later was visited
    opens: dict[int, list[int]] = {}
    for a, b in ring_edges:
        opens.setdefault(a, []).append(b)
    pending_close: dict[int, list[tuple[int, str]]] = {}
    in_use: set[int] = set()
    out: list[str] = []
    stack: list[int | str] = [visit_order[0]]
    while stack:
        u = stack.pop()
        if isinstance(u, str):
            out.append(u)
            continue
        out.append(tokens[u])
        for partner in opens.get(u, ()):
            d = next(d for d in count(1) if d not in in_use)
            in_use.add(d)
            label = str(d) if d < 10 else f"%{d:02d}"
            out.append(_bond_char(mol, u, partner) + label)
            pending_close.setdefault(partner, []).append((d, label))
        for d, label in pending_close.pop(u, ()):
            out.append(label)
            in_use.discard(d)
        for i, c in enumerate(reversed(tree_children.get(u, []))):
            piece = _bond_char(mol, u, c)
            stack += [c, piece] if i == 0 else [")", c, "(" + piece]
    return "".join(out)


def _best_component_emission(mol: Molecule, comp: list[int],
                             budget: list[int]) -> str:
    """Lexicographically minimal emission of one connected component."""
    comp_set = set(comp)
    ranks = _refined_ranks(mol, comp)
    sums = _bond_sums(mol)
    tokens = {i: _atom_token(mol, i, sums[i]) for i in comp}
    min_token = min(tokens[i] for i in comp)
    starts = [i for _, i in sorted((ranks[i], i) for i in comp
                                   if tokens[i] == min_token)]
    best: str | None = None
    for start in starts:
        for walk in _component_walks(mol, comp_set, ranks, start, budget):
            cand = _emit(mol, *walk, tokens)
            if best is None or cand < best:
                best = cand
    assert best is not None
    return best


def canonical_smiles(mol: Molecule, walk_budget: int = _WALK_BUDGET) -> str:
    """Lexicographically minimal DFS emission over all start atoms.

    Components are canonicalized independently and joined sorted with '.'.
    Raises CanonicalizationBudgetExceeded when the tie-branch search
    would exceed its deterministic budget; scaffold_key falls back to a
    hash key then.
    """
    if mol.num_atoms == 0:
        return ""
    budget = [walk_budget]
    pieces = [_best_component_emission(mol, comp, budget)
              for comp in mol.components()]
    return ".".join(sorted(pieces))


def _invariant_hash_key(mol: Molecule) -> str:
    """Isomorphism-invariant fallback key for over-budget molecules."""
    parts = []
    for comp in sorted(mol.components(), key=len):
        ranks = _refined_ranks(mol, comp)
        adj = mol.adjacency()
        rows = sorted(
            (mol.atoms[i].element, mol.atoms[i].aromatic, mol.atoms[i].formal_charge,
             mol.atoms[i].total_h, ranks[i],
             tuple(sorted((mol.bonds[bi].order, ranks[v]) for v, bi in adj[i]
                          if v in set(comp))))
            for i in comp)
        parts.append(repr(rows))
    digest = hashlib.sha256("|".join(sorted(parts)).encode()).hexdigest()
    return f"invhash:{digest}"


def scaffold_key(mol: Molecule) -> str:
    """Deterministic isomorphism-invariant key (canonical emission).

    Empty molecules map to "". Molecules above the atom cutoff, or whose
    canonical search exceeds its budget, fall back to an invariant hash.
    """
    if mol.num_atoms == 0:
        return ""
    if mol.num_atoms > SCAFFOLD_KEY_ATOM_CUTOFF:
        return _invariant_hash_key(mol)
    try:
        return canonical_smiles(mol)
    except CanonicalizationBudgetExceeded:
        return _invariant_hash_key(mol)
