"""Exception hierarchy for the fgrkit package.

Parse-time errors carry a 0-based byte offset into the offending source
string so callers can point at the exact character.
"""

from __future__ import annotations


class FgrError(Exception):
    """Base class for all fgrkit errors."""


# --- SMILES / SMARTS parsing ------------------------------------------------

class ParseError(FgrError):
    """Source-text error with a 0-based byte offset."""

    def __init__(self, message: str, offset: int, text: str | None = None):
        self.offset = offset
        self.text = text
        super().__init__(f"{message} (offset {offset})")


class UnbalancedRingClosure(ParseError):
    pass


class UnbalancedParenthesis(ParseError):
    pass


class UnknownAtomSymbol(ParseError):
    pass


class ValenceOverflow(ParseError):
    pass


class UnterminatedBracketAtom(ParseError):
    pass


class UnsupportedPrimitive(ParseError):
    """SMARTS feature outside the supported subset (e.g. recursive $(...))."""

    def __init__(self, name: str, offset: int, text: str | None = None):
        self.primitive = name
        super().__init__(f"unsupported SMARTS primitive: {name}", offset, text)


class CanonicalizationBudgetExceeded(FgrError):
    """Canonical-emission tie search exceeded its deterministic budget.

    scaffold_key falls back to an invariant hash; direct canonical_smiles
    callers see this error for pathologically symmetric inputs.
    """


class MalformedQuery(ParseError):
    pass


# --- vocabularies -------------------------------------------------------------

class VocabError(FgrError):
    pass


class MalformedLine(VocabError):
    def __init__(self, lineno: int, message: str):
        self.lineno, self.reason = lineno, message
        super().__init__(f"line {lineno}: {message}")


class EmptyCorpus(VocabError):
    pass


class CorruptCorpus(VocabError):
    """A compressed corpus file that is truncated or not gzip."""


class VersionMismatch(VocabError):
    pass


# --- encoding / numerics ------------------------------------------------------

class NonFiniteInput(FgrError):
    pass


class ShapeMismatch(FgrError):
    pass


class BatchTooSmall(FgrError):
    pass


class AllMasked(FgrError):
    pass


class NonFiniteGradient(FgrError):
    pass


# --- pipeline -------------------------------------------------------------------

class DatasetError(FgrError):
    pass


class MissingSmilesColumn(DatasetError):
    pass


class NoUsableRows(DatasetError):
    pass


class VocabMismatch(FgrError):
    pass


class DegenerateTask(FgrError):
    pass


class ConfigError(FgrError):
    pass


class CheckpointError(FgrError):
    pass


# --- representation analysis -----------------------------------------------------

class CoincidentCentroids(FgrError):
    pass


class AllZeroRows(FgrError):
    pass


class TooFewScaffolds(FgrError):
    pass
