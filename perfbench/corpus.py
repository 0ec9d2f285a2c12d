"""Seeded molecule generator for the benchmark's workloads.

Each molecule is a tree of ring cores joined through linkers, with one
planted substituent and up to two decorations in free slots. Ring-closure
numbers are allocated globally while the tree is rendered, so a nested core
never reuses the number of a ring that is still open around it (reuse would
still parse, but as a different molecule). Decorations carry no hydroxyl,
so a molecule's hydroxyl label is decided by its planted substituent alone.
The ring skeletons and planted groups are fixed by a molecule's index rather
than drawn, so that inputs from different seeds cost about the same to
process; the seed draws where substituents go and which decorations they are.
"""

from __future__ import annotations

import copy
import random
import re
import statistics
from dataclasses import dataclass

# Ring cores. Digits are local ring labels; "{i}" is a substitution slot that
# renders as "(...)" or as nothing. The first atom always carries a hydrogen,
# so a core can hang off another core's slot through it.
CORES = [
    "c1ccc{0}c{1}c1", "c1cc{0}ncc1", "c1cnc{0}nc1", "c1ccc2cc{0}ccc2c1",
    "c1ccc2nc{0}ccc2c1", "c1ccc2c(c1)c{0}c[nH]2", "c1cc{0}sc1", "c1cc{0}oc1",
    "c1cc{0}[nH]c1", "c1cnc{0}[nH]1", "c1cc{0}n[nH]1", "c1sc{0}nc1",
    "c1oc{0}nc1", "c1ccc2oc{0}cc2c1", "c1ccc2[nH]c{0}nc2c1",
    "c1ccc{0}cc1-c2ccc{1}cc2", "c1ccc2c(c1)CCN{0}C2", "C1CCC{0}CC1{1}",
    "C1CCC{0}C1", "C1CC1", "C1CCN{0}CC1", "N1CCN{0}CC1", "C1COCCN1{0}",
    "C1CC{0}OC1", "C1CCN{0}C1", "C1CC{0}NC1=O", "c1cc{0}c2ccccc2n1",
    "C1CCC2CC{0}CCC2C1",
]

# Cores that can be a molecule's root: those with a slot for the plant.
ROOTS = [i for i, core in enumerate(CORES) if "{" in core]
# Extra cores nested under the root, cycled: 35 % none, 45 % one, 20 % two.
EXTRA_CORES = [0] * 7 + [1] * 9 + [2] * 4

_TRIES = 20  # decorations drawn per skeleton before giving it up

LINKERS = ["", "", "C", "CC", "C(=O)N", "NC(=O)", "O", "S(=O)(=O)", "CN",
           "OC", "C=C", "CCN", "C(=O)"]

DECORATIONS = ["C", "CC", "F", "Cl", "Br", "OC", "N(C)C", "C#N", "C(=O)OC",
               "C(F)(F)F", "S(=O)(=O)C", "C(=O)N", "C=C", "CCC", "OCC",
               "NC(=O)C", "C(C)C", "SC", "C(=O)C", "N", "CN"]

# Planted substituents and the starter-vocabulary group each one sets,
# whatever atom it is attached to.
PLANTS_WITH_OH = {
    "O": "hydroxyl", "CO": "hydroxyl", "CCO": "hydroxyl",
    "C(C)O": "hydroxyl", "C(=O)O": "carboxylic_acid", "CC(O)C": "hydroxyl",
    "S(=O)(=O)O": "sulfonic_acid",
}
PLANTS_WITHOUT_OH = {
    "C#N": "nitrile", "S(=O)(=O)N": "sulfonamide", "[N+](=O)[O-]": "nitro",
    "C(F)(F)F": "trifluoromethyl", "C(=O)OC": "ester", "C(=O)NC": "amide",
    "C(C)(C)C": "tert_butyl", "N=[N+]=[N-]": "azide", "C(=O)Cl": "acyl_halide",
    "Br": "bromo", "I": "iodo", "C(Cl)(Cl)Cl": "trichloromethyl",
}

_SLOT = re.compile(r"\{(\d)\}")
_ATOM = re.compile(r"\[[^\]]*\]|Cl|Br|[BCNOPSFI]|[bcnops]")
_RING_LABEL = re.compile(r"\[[^\]]*\]|%\d\d|\d")


@dataclass
class Node:
    core: int
    fills: dict  # slot -> ("core", linker, Node) or ("sub", substituent)


@dataclass
class GeneratedMolecule:
    smiles: str
    plant_group: str  # starter-vocabulary group the planted substituent sets
    hydroxyl: int


def _slots(template: str) -> list[int]:
    return [int(m) for m in _SLOT.findall(template)]


def _render(node: Node, next_label: list[int]) -> str:
    """Render a core tree; every ring in the molecule gets its own label."""
    template = CORES[node.core]
    local = sorted({int(ch) for ch in re.sub(r"\{\d\}|\[[^\]]*\]", "", template)
                    if ch.isdigit()})
    mapping = {}
    for digit in local:
        label = next_label[0]
        next_label[0] += 1
        mapping[str(digit)] = str(label) if label < 10 else f"%{label:02d}"
    out = []
    i = 0
    while i < len(template):
        ch = template[i]
        if ch == "[":
            j = template.index("]", i)
            out.append(template[i:j + 1])
            i = j + 1
        elif ch == "{":
            slot = int(template[i + 1])
            fill = node.fills.get(slot)
            if fill is not None:
                if fill[0] == "core":
                    out.append("(" + fill[1] + _render(fill[2], next_label) + ")")
                else:
                    out.append("(" + fill[1] + ")")
            i += 3
        elif ch.isdigit():
            out.append(mapping[ch])
            i += 1
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _free_slots(node: Node) -> list[tuple[Node, int]]:
    free = [(node, s) for s in _slots(CORES[node.core]) if s not in node.fills]
    for fill in node.fills.values():
        if fill[0] == "core":
            free += _free_slots(fill[2])
    return free


def _scaffold(k: int) -> Node | None:
    """The k-th ring-core tree, without substituents, or None if its nested
    cores left no slot free.

    The tree depends on k alone, so every seed builds the same skeletons and
    differs only in substituents. Canonicalizing a scaffold costs more the
    more symmetric it is; fixing the skeletons keeps that cost the same for
    every seed.
    """
    root = Node(core=ROOTS[k % len(ROOTS)], fills={})
    for j in range(EXTRA_CORES[k % len(EXTRA_CORES)]):
        free = _free_slots(root)
        if not free:
            return None
        node, slot = free[(3 * k + j) % len(free)]
        nested = Node(core=(17 * k + 5 * j) % len(CORES), fills={})
        node.fills[slot] = ("core", LINKERS[(7 * k + 3 * j) % len(LINKERS)], nested)
    return root if _free_slots(root) else None


def _decorate(rng: random.Random, scaffold: Node, plant: str,
              plants: dict) -> GeneratedMolecule:
    """A molecule on ``scaffold``: the plant and 0-2 decorations in free slots."""
    root = copy.deepcopy(scaffold)
    node, slot = rng.choice(_free_slots(root))
    node.fills[slot] = ("sub", plant)
    for _ in range(rng.choice([0, 1, 1, 2])):
        free = _free_slots(root)
        if not free:
            break
        node, slot = rng.choice(free)
        node.fills[slot] = ("sub", rng.choice(DECORATIONS))
    smiles = _render(root, [1])
    check_ring_labels(smiles)
    return GeneratedMolecule(smiles=smiles, plant_group=plants[plant],
                             hydroxyl=int(plant in PLANTS_WITH_OH))


def check_ring_labels(smiles: str) -> None:
    """Each ring-closure label must open once and close once."""
    counts: dict[str, int] = {}
    for tok in _RING_LABEL.findall(smiles):
        if not tok.startswith("["):
            counts[tok] = counts.get(tok, 0) + 1
    bad = {k: v for k, v in counts.items() if v != 2}
    if bad:
        raise ValueError(f"ring labels reused or unclosed in {smiles!r}: {bad}")


def expected_shape(smiles: str) -> tuple[int, int]:
    """(heavy atoms, independent rings) the generator intended."""
    atoms = len(_ATOM.findall(smiles))
    rings = sum(1 for tok in _RING_LABEL.findall(smiles)
                if not tok.startswith("[")) // 2
    return atoms, rings


def generate(n: int, seed) -> list[GeneratedMolecule]:
    """n distinct molecules from the seed, for mining and featurizing.

    The planted group cycles through every entry of PLANTS_WITH_OH and
    PLANTS_WITHOUT_OH.
    """
    rng = random.Random(seed)
    plants = {**PLANTS_WITH_OH, **PLANTS_WITHOUT_OH}
    names = sorted(plants)
    out: list[GeneratedMolecule] = []
    seen: set[str] = set()
    for k in range(2 * n + 100):
        if len(out) == n:
            return out
        scaffold = _scaffold(k)
        if scaffold is None:
            continue
        for _ in range(_TRIES):  # retry the skeleton, so k alone picks it
            gm = _decorate(rng, scaffold, names[len(out) % len(names)], plants)
            if gm.smiles not in seen:
                seen.add(gm.smiles)
                out.append(gm)
                break
    raise RuntimeError(f"generator found only {len(out)} of {n} distinct molecules")


def generate_series(n_series: int, size: int, seed) -> list[GeneratedMolecule]:
    """Labelled model data: ``n_series`` scaffolds with ``size`` analogs each.

    Every analog of a series shares its Murcko scaffold, and no two series
    share one, so scaffold groups are exactly ``size`` molecules and the
    scaffold split has the same shape for every seed. Analogs alternate
    between a hydroxyl-bearing and a hydroxyl-free plant, so half of each
    series is labelled 1.
    """
    from fgrkit.chem import murcko_scaffold, parse_smiles, scaffold_key

    rng = random.Random(seed)
    pools = [PLANTS_WITH_OH, PLANTS_WITHOUT_OH]
    out: list[GeneratedMolecule] = []
    seen_keys: set[str] = set()
    for k in range(4 * n_series + 100):
        if len(out) == n_series * size:
            return out
        scaffold = _scaffold(k)
        if scaffold is None:
            continue
        key = scaffold_key(murcko_scaffold(parse_smiles(_render(scaffold, [1]))))
        if key in seen_keys:
            continue
        seen_keys.add(key)
        series: dict[str, GeneratedMolecule] = {}
        for _ in range(_TRIES * size):
            if len(series) == size:
                break
            pool = pools[len(series) % 2]
            plant = sorted(pool)[(k + len(series) // 2) % len(pool)]
            gm = _decorate(rng, scaffold, plant, pool)
            series.setdefault(gm.smiles, gm)
        out += series.values()
    raise RuntimeError(f"generator found only {len(out) // size} of {n_series} series")


def verify(smiles: list[str]) -> list[str]:
    """Problems found when parsing molecules the generator built: each must
    parse into the heavy-atom count and ring count it was built with."""
    from fgrkit.chem import parse_smiles
    from fgrkit.errors import FgrError

    problems = []
    for s in smiles:
        try:
            mol = parse_smiles(s)
        except FgrError as exc:
            problems.append(f"{s!r}: {exc}")
            continue
        atoms, rings = expected_shape(s)
        cycle_rank = mol.num_bonds - mol.num_atoms + len(mol.components())
        if mol.num_atoms != atoms or cycle_rank != rings:
            problems.append(f"{s!r} parsed as {mol.num_atoms} atoms / {cycle_rank} "
                            f"rings, built as {atoms} / {rings}")
    return problems


def input_properties(smiles: list[str], scaffolds: bool = True) -> dict:
    """Properties the workload's cost depends on."""
    from fgrkit.chem import murcko_scaffold, parse_smiles, scaffold_key, tokenize_smiles

    pairs = set()
    heavy = []
    keys = set()
    for s in smiles:
        toks = tokenize_smiles(s)
        pairs.update(zip(toks, toks[1:]))
        heavy.append(len(_ATOM.findall(s)))
        if scaffolds:
            keys.add(scaffold_key(murcko_scaffold(parse_smiles(s))))
    props = {"molecules": len(smiles),
             "median_heavy_atoms": statistics.median(heavy),
             "median_smiles_chars": statistics.median(len(s) for s in smiles),
             "distinct_initial_token_pairs": len(pairs)}
    if scaffolds:
        props["distinct_scaffold_keys"] = len(keys)
    return props
