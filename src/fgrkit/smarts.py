"""SMARTS-subset queries and substructure matching.

Supported atom primitives: element symbols (case carries the
aromatic/aliphatic constraint), atomic number ``#n``, wildcard ``*``,
``a``/``A``, degree ``D<n>``, total hydrogens ``H<n>``, connectivity
``X<n>``, formal charge, ring membership ``R``/``R0``/``R<n>`` and ring
size ``r<n>``, combined with ``!``, ``&`` (implicit), ``,`` and ``;``.
Bond predicates: ``- = # : ~ @``. Recursive SMARTS, stereo, isotopes,
bond logic and component grouping are rejected loudly with
UnsupportedPrimitive, never silently ignored. Digits are ASCII.

Ring-membership counts (``R<n>``) and ring sizes (``r<n>``) are read off
the DFS back-edge cycle basis from ``perceive_rings``, whose cycles depend
on the SMILES atom order. For fused systems they can differ from SSSR:
naphthalene written ``c1ccc2ccccc2c1`` has rings of sizes 6 and 10, while
``c1cccc2c1cccc2`` gives 6 and 6. Bare ``R`` (ring membership at all) is
order-independent.

Matching reads per-molecule caches that ``Molecule`` builds once and every
query shares: adjacency rows with a bond lookup by atom pair, each atom's
basis-cycle sizes, the ring bonds (read by ``@``) and the ascending atoms of
each atomic number. The backtracking search evaluates an atom predicate
only on a candidate it reaches, once per (query atom, molecule atom).
Before it searches, a screen returns no match when the molecule has fewer
atoms of some atomic number than the query forces. A query atom forces one
only through an element or ``#n`` primitive that stands alone or under
'and' (``&``, ``;`` or juxtaposition); one under ``,`` or ``!`` forces
nothing, so the screen never drops a match. The first query atom's
candidates are the ascending atoms of its forced element, which keeps
embeddings in lexicographic order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .chem import AROMATIC, SINGLE, Bond, Molecule
from .elements import ATOMIC_NUMBERS, AROMATIC_OK, atomic_number
from .errors import MalformedQuery, UnsupportedPrimitive

# predicate tree nodes: ("element", sym, aromatic|None), ("number", z),
# ("wildcard",), ("aromatic", bool), ("degree", n), ("totalh", n),
# ("connectivity", n), ("charge", q), ("ring_any",), ("ring_count", n),
# ("ring_size_any",), ("ring_size", n), ("not", node), ("and", [nodes]),
# ("or", [nodes])

_TWO_LETTER = sorted((s for s in ATOMIC_NUMBERS if len(s) == 2),
                     key=len, reverse=True)

BOND_SINGLE = "single"
BOND_DOUBLE = "double"
BOND_TRIPLE = "triple"
BOND_AROMATIC = "aromatic"
BOND_ANY = "any"
BOND_RING = "ring"
BOND_SINGLE_OR_AROMATIC = "single_or_aromatic"

_BOND_PRED_FROM_CHAR = {"-": BOND_SINGLE, "=": BOND_DOUBLE, "#": BOND_TRIPLE,
                        ":": BOND_AROMATIC, "~": BOND_ANY, "@": BOND_RING}


@dataclass
class AtomQuery:
    """Predicate tree over one query atom."""

    tree: tuple
    aromatic_hint: bool = False


@dataclass
class QueryPattern:
    """Connected query graph parsed from a SMARTS string."""

    atoms: list[AtomQuery] = field(default_factory=list)
    bonds: list[tuple[int, int, str]] = field(default_factory=list)
    source: str = ""

    @property
    def num_atoms(self) -> int:
        return len(self.atoms)

    @cached_property
    def mandatory_numbers(self) -> list[int | None]:
        """Per query atom, the atomic number every match must carry, if forced."""
        return [_mandatory_number(a.tree) for a in self.atoms]

    @cached_property
    def required_counts(self) -> dict[int, int]:
        """Atomic number -> how many query atoms are forced to carry it."""
        return Counter(z for z in self.mandatory_numbers if z is not None)


def _mandatory_number(node: tuple) -> int | None:
    """The atomic number ``node`` forces, if any (see the module docstring)."""
    if node[0] == "element":
        return atomic_number(node[1])
    if node[0] == "number":
        return node[1]
    if node[0] == "and":
        return next((z for z in map(_mandatory_number, node[1]) if z is not None), None)
    return None


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class _Cursor:
    def __init__(self, text: str, start: int, end: int):
        self.text = text
        self.i = start
        self.end = end

    def peek(self) -> str:
        return self.text[self.i] if self.i < self.end else ""

    def take(self) -> str:
        ch = self.peek()
        self.i += 1
        return ch

    def number(self) -> int | None:
        num = ""
        while "0" <= self.peek() <= "9":
            num += self.take()
        return int(num) if num else None


def _parse_primary(cur: _Cursor, text: str) -> tuple:
    ch = cur.peek()
    off = cur.i
    if not ch:
        raise MalformedQuery("empty atom expression", off, text)
    if ch == "!":
        cur.take()
        return ("not", _parse_primary(cur, text))
    if ch == "$":
        raise UnsupportedPrimitive("recursive", off, text)
    if ch == "@":
        raise UnsupportedPrimitive("stereo", off, text)
    if "0" <= ch <= "9":
        raise UnsupportedPrimitive("isotope", off, text)
    if ch == "*":
        cur.take()
        return ("wildcard",)
    if ch == "#":
        cur.take()
        z = cur.number()
        if z is None:
            raise MalformedQuery("'#' without atomic number", off, text)
        return ("number", z)
    if ch == "a":
        cur.take()
        return ("aromatic", True)
    if ch == "A":
        cur.take()
        return ("aromatic", False)
    if ch == "D":
        cur.take()
        n = cur.number()
        return ("degree", 1 if n is None else n)
    if ch == "H":
        cur.take()
        n = cur.number()
        return ("totalh", 1 if n is None else n)
    if ch == "X":
        cur.take()
        n = cur.number()
        return ("connectivity", 1 if n is None else n)
    if ch == "R":
        cur.take()
        n = cur.number()
        if n is None:
            return ("ring_any",)
        return ("ring_count", n)
    if ch == "r":
        cur.take()
        n = cur.number()
        if n is None:
            return ("ring_size_any",)
        return ("ring_size", n)
    if ch in "+-":
        sign = 1 if ch == "+" else -1
        cur.take()
        n = cur.number()
        if n is not None:
            return ("charge", sign * n)
        q = sign
        while cur.peek() == ch:
            cur.take()
            q += sign
        return ("charge", q)
    if ch.isalpha():
        two = cur.text[cur.i:cur.i + 2]
        if two in _TWO_LETTER:
            cur.take()
            cur.take()
            return ("element", two, False)
        cur.take()
        if ch.islower():
            sym = ch.upper()
            if sym not in AROMATIC_OK:
                raise UnsupportedPrimitive(f"aromatic-{ch}", off, text)
            return ("element", sym, True)
        if ch not in ATOMIC_NUMBERS:
            raise MalformedQuery(f"unknown element {ch!r}", off, text)
        return ("element", ch, False)
    raise MalformedQuery(f"unexpected character {ch!r} in atom expression", off, text)


def _parse_amp(cur: _Cursor, text: str) -> tuple:
    terms = [_parse_primary(cur, text)]
    while True:
        ch = cur.peek()
        if ch == "&":
            cur.take()
            terms.append(_parse_primary(cur, text))
        elif ch and ch not in ",;":
            terms.append(_parse_primary(cur, text))
        else:
            break
    return terms[0] if len(terms) == 1 else ("and", terms)


def _parse_comma(cur: _Cursor, text: str) -> tuple:
    terms = [_parse_amp(cur, text)]
    while cur.peek() == ",":
        cur.take()
        terms.append(_parse_amp(cur, text))
    return terms[0] if len(terms) == 1 else ("or", terms)


def _parse_atom_expr(text: str, start: int, end: int) -> tuple:
    cur = _Cursor(text, start, end)
    terms = [_parse_comma(cur, text)]
    while cur.peek() == ";":
        cur.take()
        terms.append(_parse_comma(cur, text))
    if cur.i != end:
        raise MalformedQuery("trailing atom-expression content", cur.i, text)
    return terms[0] if len(terms) == 1 else ("and", terms)


def _implies_aromatic(node: tuple) -> bool:
    kind = node[0]
    if kind == "element":
        return node[2] is True
    if kind == "aromatic":
        return node[1] is True
    if kind == "and":
        return any(_implies_aromatic(c) for c in node[1])
    if kind == "or":
        return all(_implies_aromatic(c) for c in node[1])
    return False


def parse_smarts(text: str) -> QueryPattern:
    """Parse a SMARTS-subset query into a connected QueryPattern."""
    if not text:
        raise MalformedQuery("empty SMARTS", 0, text)
    pattern = QueryPattern(source=text)
    anchor: int | None = None
    pending: str | None = None
    pending_off = 0
    branch_stack: list[int] = []
    open_rings: dict[str, tuple[int, str | None, int]] = {}

    def add_atom(tree: tuple) -> int:
        idx = len(pattern.atoms)
        pattern.atoms.append(AtomQuery(tree=tree, aromatic_hint=_implies_aromatic(tree)))
        return idx

    def add_bond(i: int, j: int, pred: str | None, offset: int) -> None:
        if i == j:
            raise MalformedQuery("ring bond to same query atom", offset, text)
        if pred is None:
            both = pattern.atoms[i].aromatic_hint and pattern.atoms[j].aromatic_hint
            pred = BOND_SINGLE_OR_AROMATIC if both else BOND_SINGLE
        pattern.bonds.append((i, j, pred))

    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "[":
            j = text.find("]", i + 1)
            if j < 0:
                raise MalformedQuery("unterminated bracket", i, text)
            tree = _parse_atom_expr(text, i + 1, j)
            idx = add_atom(tree)
            if anchor is not None:
                add_bond(anchor, idx, pending, i)
            elif pending is not None:
                raise MalformedQuery("bond with no preceding atom", pending_off, text)
            pending = None
            anchor = idx
            i = j + 1
        elif ch == "$":
            raise UnsupportedPrimitive("recursive", i, text)
        elif ch in "/\\":
            raise UnsupportedPrimitive("stereo", i, text)
        elif ch == ".":
            raise UnsupportedPrimitive("component-grouping", i, text)
        elif ch in _BOND_PRED_FROM_CHAR:
            if pending is not None:
                raise UnsupportedPrimitive("bond-expression", i, text)
            pending = _BOND_PRED_FROM_CHAR[ch]
            pending_off = i
            i += 1
        elif ch == "!":
            raise UnsupportedPrimitive("bond-negation", i, text)
        elif ch == "(":
            if anchor is None:
                raise MalformedQuery("branch before any atom", i, text)
            branch_stack.append(anchor)
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise MalformedQuery("unmatched ')'", i, text)
            anchor = branch_stack.pop()
            i += 1
        elif ch == "%" or "0" <= ch <= "9":
            token = text[i:i + 3] if ch == "%" else ch
            if ch == "%" and (len(token) < 3 or not (token.isascii() and token[1:].isdigit())):
                raise MalformedQuery("malformed %nn ring closure", i, text)
            if anchor is None:
                raise MalformedQuery("ring closure before any atom", i, text)
            if token in open_rings:
                partner, opened, _ = open_rings.pop(token)
                if pending is not None and opened is not None and pending != opened:
                    raise MalformedQuery("conflicting ring-closure bonds", i, text)
                add_bond(partner, anchor, pending or opened, i)
            else:
                open_rings[token] = (anchor, pending, i)
            pending = None
            i += len(token)
        else:
            # bare atom symbol (organic subset incl. two-letter and aromatic)
            sym2 = text[i:i + 2]
            if sym2 in ("Cl", "Br"):
                tree: tuple = ("element", sym2, False)
                i += 2
            elif ch == "*":
                tree = ("wildcard",)
                i += 1
            elif ch.isalpha():
                if ch.islower():
                    sym = ch.upper()
                    if sym not in AROMATIC_OK:
                        raise UnsupportedPrimitive(f"aromatic-{ch}", i, text)
                    tree = ("element", sym, True)
                elif ch in "BCNOPSFI":
                    tree = ("element", ch, False)
                else:
                    raise MalformedQuery(f"unexpected symbol {ch!r}", i, text)
                i += 1
            else:
                raise MalformedQuery(f"unexpected character {ch!r}", i, text)
            idx = add_atom(tree)
            if anchor is not None:
                add_bond(anchor, idx, pending, i)
            elif pending is not None:
                raise MalformedQuery("bond with no preceding atom", pending_off, text)
            pending = None
            anchor = idx

    if open_rings:
        off = min(off for (_, _, off) in open_rings.values())
        raise MalformedQuery("unclosed ring closure", off, text)
    if branch_stack:
        raise MalformedQuery("unclosed '('", n, text)
    if pending is not None:
        raise MalformedQuery("dangling bond at end", pending_off, text)
    if not pattern.atoms:
        raise MalformedQuery("no atoms in SMARTS", 0, text)
    # the matcher extends each query atom after the first from an earlier one
    if len({max(a, b) for a, b, _ in pattern.bonds}) != pattern.num_atoms - 1:
        raise MalformedQuery("disconnected query graph", 0, text)
    return pattern


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

def _eval_atom(node: tuple, mol: Molecule, idx: int) -> bool:
    atom = mol.atoms[idx]
    kind = node[0]
    if kind == "element":
        return atom.element == node[1] and node[2] in (None, atom.aromatic)
    if kind == "number":
        return atomic_number(atom.element) == node[1]
    if kind == "wildcard":
        return True
    if kind == "aromatic":
        return atom.aromatic == node[1]
    if kind == "degree":
        return mol.degree(idx) == node[1]
    if kind == "totalh":
        return atom.total_h == node[1]
    if kind == "connectivity":
        return mol.degree(idx) + atom.total_h == node[1]
    if kind == "charge":
        return atom.formal_charge == node[1]
    if kind in ("ring_any", "ring_size_any"):
        return bool(mol.atom_ring_sizes()[idx])
    if kind == "ring_count":
        return len(mol.atom_ring_sizes()[idx]) == node[1]
    if kind == "ring_size":
        return node[1] in mol.atom_ring_sizes()[idx]
    if kind == "not":
        return not _eval_atom(node[1], mol, idx)
    # plain loops, not all()/any() over a generator: this is the hot path
    if kind == "and":
        for c in node[1]:
            if not _eval_atom(c, mol, idx):
                return False
        return True
    if kind == "or":
        for c in node[1]:
            if _eval_atom(c, mol, idx):
                return True
        return False
    raise AssertionError(f"unknown node {node!r}")


def _eval_bond(pred: str, bond: Bond, mol: Molecule) -> bool:
    if pred == BOND_ANY:
        return True
    if pred == BOND_RING:
        return bond.pair in mol.ring_bonds()
    if pred == BOND_SINGLE_OR_AROMATIC:
        return bond.order in (SINGLE, AROMATIC)
    return bond.order == pred


def _search(pattern: QueryPattern, mol: Molecule, limit: int | None):
    """Backtracking embedding enumeration in lexicographic tuple order."""
    nq = pattern.num_atoms
    nm = mol.num_atoms
    adj = mol.adjacency()
    by_number = mol.atoms_by_number()
    if any(len(by_number.get(z, ())) < n for z, n in pattern.required_counts.items()):
        return []
    first = pattern.mandatory_numbers[0]
    roots = range(nm) if first is None else by_number[first]
    # query adjacency restricted to earlier atoms (parse_smarts guarantees
    # each atom after the first touches at least one earlier atom)
    earlier: list[list[tuple[int, str]]] = [[] for _ in range(nq)]
    for a, b, pred in pattern.bonds:
        lo, hi = (a, b) if a < b else (b, a)
        earlier[hi].append((lo, pred))
    # atom predicates are evaluated on first visit only, then memoised
    atom_ok: list[list[bool | None]] = [[None] * nm for _ in range(nq)]

    out: list[tuple[int, ...]] = []
    mapping: list[int] = []
    used = [False] * nm

    def extend(q: int) -> bool:
        if q == nq:
            out.append(tuple(mapping))
            return limit is not None and len(out) >= limit
        if earlier[q]:
            anchor_q, _ = earlier[q][0]
            candidates = (v for v, _bi in adj[mapping[anchor_q]])
        else:
            candidates = roots
        ok_q = atom_ok[q]
        for m in candidates:
            if used[m]:
                continue
            if ok_q[m] is None:
                ok_q[m] = _eval_atom(pattern.atoms[q].tree, mol, m)
            if not ok_q[m]:
                continue
            ok = True
            for prev_q, pred in earlier[q]:
                bond = mol.bond_between(mapping[prev_q], m)
                if bond is None or not _eval_bond(pred, bond, mol):
                    ok = False
                    break
            if not ok:
                continue
            mapping.append(m)
            used[m] = True
            stop = extend(q + 1)
            used[m] = False
            mapping.pop()
            if stop:
                return True
        return False

    extend(0)
    return out


def match_exists(pattern: QueryPattern, mol: Molecule) -> bool:
    """True iff at least one embedding of the query exists in the molecule."""
    return bool(_search(pattern, mol, limit=1))


def find_embeddings(pattern: QueryPattern, mol: Molecule,
                    limit: int = 1000) -> list[tuple[int, ...]]:
    """Up to ``limit`` injective embeddings, lexicographic by mapped tuple."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    return _search(pattern, mol, limit=limit)
