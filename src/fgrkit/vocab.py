"""Functional-group vocabularies: curated SMARTS lists and mined token patterns.

The curated (FG) side loads `<name>\\t<SMARTS>` files and validates every
entry against the query engine; rejects are reported with line numbers and
only tolerated when ``skip_invalid`` is set.

The mined (MFG) side implements iterative most-frequent-pair merging over
tokenized SMILES: count all adjacent token pairs (overlaps included), merge
the most frequent pair corpus-wide by greedy left-to-right replacement,
append it to the vocabulary, and repeat until the best frequency drops
below the threshold or the vocabulary hits its size cap. Ties break on the
lexicographically smallest (left, right) pair. Each merge is picked from a
max-heap of pair counts with lazy invalidation, and only the counts of the
pairs next to a merge site are updated (the BPE-trainer structure of
Sennrich et al. 2016); the result equals a full re-count after every merge.
"""

from __future__ import annotations

import gzip
import hashlib
import heapq
import io
import re
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, TextIO

from .chem import tokenize_smiles
from .errors import (
    ConfigError,
    CorruptCorpus,
    EmptyCorpus,
    FgrError,
    MalformedLine,
    ParseError,
    VersionMismatch,
)
from .smarts import QueryPattern, parse_smarts

_US = "\x1f"  # unit separator keeps multi-character tokens unambiguous


# ---------------------------------------------------------------------------
# curated FG vocabulary
# ---------------------------------------------------------------------------

@dataclass
class FGEntry:
    name: str
    smarts: str
    pattern: QueryPattern


@dataclass
class FGVocabulary:
    """Ordered curated functional groups; indices define multi-hot bits."""

    entries: list[FGEntry] = field(default_factory=list)
    rejected: list[tuple[int, str]] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    @property
    def fingerprint(self) -> str:
        body = "\n".join(f"{e.name}\t{e.smarts}" for e in self.entries)
        return hashlib.sha256(body.encode()).hexdigest()


def load_fg_vocab(path, skip_invalid: bool = False) -> FGVocabulary:
    """Load a `<name>\\t<SMARTS>` vocabulary file.

    Comment lines (#) and blank lines are ignored. Unparseable entries, and
    lines that are not UTF-8, fail the load with their line number unless
    ``skip_invalid`` is set, in which case they are listed in the returned
    vocabulary's ``rejected`` report.
    """
    vocab = FGVocabulary()
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            try:
                vocab.entries.append(_fg_entry(lineno, line))
            except MalformedLine as exc:
                if not skip_invalid:
                    raise
                vocab.rejected.append((lineno, exc.reason))
    return vocab


def _fg_entry(lineno: int, line: str) -> FGEntry:
    """The entry on one `<name>\\t<SMARTS>` line, or MalformedLine."""
    try:
        line.encode()
    except UnicodeEncodeError as exc:
        raise MalformedLine(lineno, "not valid UTF-8") from exc
    if "\t" not in line:
        raise MalformedLine(lineno, "expected <name><TAB><SMARTS>")
    name, smarts = (part.strip() for part in line.split("\t", 1))
    if not name or not smarts:
        raise MalformedLine(lineno, "empty name or SMARTS")
    try:
        return FGEntry(name=name, smarts=smarts, pattern=parse_smarts(smarts))
    except ParseError as exc:
        raise MalformedLine(lineno, str(exc)) from exc


# ---------------------------------------------------------------------------
# mined MFG vocabulary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MFGEntry:
    tokens: tuple[str, ...]
    frequency: int

    @property
    def text(self) -> str:
        return "".join(self.tokens)


@dataclass
class MFGVocabulary:
    """Mined pattern vocabulary with mining provenance.

    Initial single-token entries precede merged entries; merged entries
    appear in merge order and always span >= 2 base tokens.
    """

    entries: list[MFGEntry] = field(default_factory=list)
    eta: int = 0
    mvs: int = 0
    corpus_fingerprint: str = ""
    skipped_lines: int = 0  # transient mining report, not persisted
    merge_log: list[tuple[tuple[str, str], int]] = field(default_factory=list)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MFGVocabulary):
            return NotImplemented
        return (self.entries == other.entries and self.eta == other.eta
                and self.mvs == other.mvs
                and self.corpus_fingerprint == other.corpus_fingerprint)

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def n_initial(self) -> int:
        return sum(1 for e in self.entries if len(e.tokens) == 1)

    @property
    def merged_entries(self) -> list[MFGEntry]:
        return [e for e in self.entries if len(e.tokens) > 1]

    @cached_property
    def token_trie(self) -> dict:
        """Nested dicts keyed by token; the key None of a node lists the
        indices of the entries that end there (a repeated entry lists each
        copy). Built on first use; entries must not change afterwards."""
        root: dict = {}
        for i, entry in enumerate(self.entries):
            node = root
            for tok in entry.tokens:
                node = node.setdefault(tok, {})
            node.setdefault(None, []).append(i)
        return root

    @property
    def fingerprint(self) -> str:
        body = "\n".join(f"{e.frequency}\t{_US.join(e.tokens)}" for e in self.entries)
        head = f"eta={self.eta} mvs={self.mvs} corpus={self.corpus_fingerprint}\n"
        return hashlib.sha256((head + body).encode()).hexdigest()


def scan_pair_frequencies(sequences: list[list[str]]) -> dict[tuple[str, str], int]:
    """Exact order-sensitive adjacent-pair counts, overlaps included."""
    if not sequences:
        raise EmptyCorpus("no sequences to scan")
    counts: dict[tuple[str, str], int] = {}
    for seq in sequences:
        for a, b in zip(seq, seq[1:]):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def _merge_sites(seq: list[str], a: str, b: str) -> list[int]:
    """Start positions of the pairs (a, b) that a greedy left-to-right
    replacement merges."""
    sites: list[int] = []
    last = len(seq) - 1
    i = 0
    try:
        while True:
            i = seq.index(a, i)
            if i < last and seq[i + 1] == b:
                sites.append(i)
                i += 2
            else:
                i += 1
    except ValueError:
        return sites


def mine_mfg(corpus: Iterable[str], eta: int, mvs: int) -> MFGVocabulary:
    """Mine a pattern vocabulary from SMILES strings.

    eta=500 / mvs=30000 suit corpora of millions of molecules; desk-scale
    corpora want a much smaller eta. The corpus is read once, as a stream.
    Lines that do not tokenize, or cannot be encoded as UTF-8 (read_corpus
    keeps undecodable bytes as lone surrogates), are skipped and counted in
    ``skipped_lines``. Mining tokenizes only: it mines lines such as ``C1CC``
    that the encoders (``chem.encoder_input``) drop as ``bad_smiles``.
    Deterministic given corpus order: ties break on the lexicographically
    smallest (left, right) token pair.
    """
    if eta <= 0 or mvs <= 0:
        raise ConfigError(f"eta and mvs must be positive, got eta={eta} mvs={mvs}")
    sequences: list[list[str]] = []
    digest = hashlib.sha256()  # of the kept lines, joined by newlines
    skipped = 0
    for line in corpus:
        smiles = line.strip()
        if not smiles:
            continue
        try:
            data = smiles.encode()
            sequences.append(tokenize_smiles(smiles))
        except (UnicodeEncodeError, FgrError):
            skipped += 1
            continue
        if len(sequences) > 1:
            digest.update(b"\n")
        digest.update(data)
    if not sequences:
        raise EmptyCorpus("no tokenizable SMILES in corpus")

    token_counts: dict[str, int] = {}
    for seq in sequences:
        for tok in seq:
            token_counts[tok] = token_counts.get(tok, 0) + 1
    base_tokens: dict[str, tuple[str, ...]] = {t: (t,) for t in token_counts}

    vocab = MFGVocabulary(eta=eta, mvs=mvs, corpus_fingerprint=digest.hexdigest(),
                          skipped_lines=skipped)
    for tok in sorted(token_counts):
        vocab.entries.append(MFGEntry(tokens=(tok,), frequency=token_counts[tok]))

    counts = scan_pair_frequencies(sequences)
    # superset index: sequences that contained each pair at some point
    pair_seqs: dict[tuple[str, str], set[int]] = {}
    for sid, seq in enumerate(sequences):
        for pair in zip(seq, seq[1:]):
            pair_seqs.setdefault(pair, set()).add(sid)
    # max-heap on count with lazy invalidation: an entry is live while its
    # count equals counts[pair]; the smallest (-count, pair) is the pick
    heap = [(-c, pair) for pair, c in counts.items()]
    heapq.heapify(heap)

    seen_sequences = {e.tokens for e in vocab.entries}
    while vocab.size < mvs and heap:
        neg_freq, (left, right) = heapq.heappop(heap)
        if counts.get((left, right)) != -neg_freq:
            continue  # stale entry
        freq = -neg_freq
        if freq < eta:
            break
        merged = left + right
        base_tokens[merged] = base_tokens[left] + base_tokens[right]
        changed: set[tuple[str, str]] = set()
        for sid in pair_seqs.pop((left, right)):
            seq = sequences[sid]
            sites = _merge_sites(seq, left, right)
            if not sites:
                continue  # stale index entry; pair no longer present
            # Only pairs that touch a merged position change: the old
            # (prev, a), (a, b), (b, next) and the new (prev, M), (M, next).
            n_pairs = len(seq) - 1
            for j in {i + d for i in sites for d in (-1, 0, 1) if 0 <= i + d < n_pairs}:
                pair = (seq[j], seq[j + 1])
                c = counts[pair] - 1
                if c:
                    counts[pair] = c
                else:
                    del counts[pair]
                changed.add(pair)
            for i in reversed(sites):
                seq[i:i + 2] = (merged,)
            new_sites = [i - t for t, i in enumerate(sites)]
            n_pairs = len(seq) - 1
            for k in {i + d for i in new_sites for d in (-1, 0) if 0 <= i + d < n_pairs}:
                pair = (seq[k], seq[k + 1])
                counts[pair] = counts.get(pair, 0) + 1
                pair_seqs.setdefault(pair, set()).add(sid)
                changed.add(pair)
        for pair in changed:
            if pair in counts:
                heapq.heappush(heap, (-counts[pair], pair))
        vocab.merge_log.append(((left, right), freq))
        base = base_tokens[merged]
        # set semantics: distinct merge routes can concatenate to the same
        # token sequence; the vocabulary keeps one entry
        if base not in seen_sequences:
            seen_sequences.add(base)
            vocab.entries.append(MFGEntry(tokens=base, frequency=freq))

    return vocab


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(
    r"^fgr-mfg v1 eta=(\d+) mvs=(\d+) corpus=([0-9a-f]+)$")


def save_vocab(vocab: MFGVocabulary, path) -> None:
    """Write the versioned line-oriented MFG vocabulary format."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"fgr-mfg v1 eta={vocab.eta} mvs={vocab.mvs} "
                 f"corpus={vocab.corpus_fingerprint}\n")
        for entry in vocab.entries:
            fh.write(f"{entry.frequency}\t{_US.join(entry.tokens)}\n")


def load_mfg_vocab(path) -> MFGVocabulary:
    """Load a saved MFG vocabulary; lossless inverse of save_vocab."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline().rstrip("\n")
        match = _HEADER_RE.match(header)
        if match is None:
            raise VersionMismatch(f"not an fgr-mfg v1 file: {header[:60]!r}")
        vocab = MFGVocabulary(eta=int(match.group(1)), mvs=int(match.group(2)),
                              corpus_fingerprint=match.group(3))
        for lineno, raw in enumerate(fh, start=2):
            line = raw.rstrip("\n")
            if not line:
                continue
            try:
                line.encode()
            except UnicodeEncodeError as exc:
                raise MalformedLine(lineno, "not valid UTF-8") from exc
            if "\t" not in line:
                raise MalformedLine(lineno, "expected <frequency><TAB><tokens>")
            freq_text, tok_text = line.split("\t", 1)
            try:
                freq = int(freq_text)
            except ValueError as exc:
                raise MalformedLine(lineno, f"bad frequency {freq_text!r}") from exc
            vocab.entries.append(
                MFGEntry(tokens=tuple(tok_text.split(_US)), frequency=freq))
    return vocab


def read_corpus(path) -> Iterator[str]:
    """Yield SMILES lines from a text or gzip corpus file.

    Bytes that are not UTF-8 are kept as lone surrogates (``surrogateescape``),
    so such a line cannot be encoded back and ``mine_mfg`` skips it. A gzip
    file that is truncated or not gzip at all raises ``CorruptCorpus``.
    """
    opener: TextIO
    if str(path).endswith(".gz"):
        opener = io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8",
                                  errors="surrogateescape")
    else:
        opener = open(path, "r", encoding="utf-8", errors="surrogateescape")
    try:
        with opener as fh:
            for line in fh:
                yield line.rstrip("\n")
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise CorruptCorpus(f"{path}: {exc}") from exc
