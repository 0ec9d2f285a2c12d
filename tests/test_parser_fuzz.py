"""Hostile text to the parsers ends in a value or an FgrError, never another
exception."""

from hypothesis import given, settings
from hypothesis import strategies as st

from fgrkit.chem import encoder_input, parse_smiles, tokenize_smiles
from fgrkit.errors import FgrError
from fgrkit.smarts import match_exists, parse_smarts

# SMILES and SMARTS symbols, digits, bond and logic characters, plus a few
# letters that are neither (K, Z, e, h) to reach the unknown-symbol paths,
# and two non-ASCII digits (superscript two, Arabic-Indic one)
ALPHABET = "CNOSPFIBclnospbHh[]()=#-+:~@!&,;%0123456789*./\\$aADXRrKZe²١"
TEXT = st.text(alphabet=ALPHABET, max_size=24)
MOLECULES = [parse_smiles(s) for s in ("CCO", "c1ccccc1O", "[H]OC([H])[H]",
                                       "C[N+](C)(C)C", "*C1CC1")]


def _returns_or_raises_fgr_error(fn, text):
    try:
        return fn(text)
    except FgrError:
        return None


@given(TEXT)
@settings(max_examples=500, deadline=None)
def test_parse_smarts(text):
    query = _returns_or_raises_fgr_error(parse_smarts, text)
    if query is not None:
        for mol in MOLECULES:
            assert match_exists(query, mol) in (True, False)


@given(TEXT)
@settings(max_examples=500, deadline=None)
def test_parse_smiles(text):
    if _returns_or_raises_fgr_error(parse_smiles, text) is not None:
        assert encoder_input(text)[1] == tokenize_smiles(text)


@given(TEXT)
@settings(max_examples=500, deadline=None)
def test_tokenize_smiles(text):
    tokens = _returns_or_raises_fgr_error(tokenize_smiles, text)
    assert tokens is None or "".join(tokens) == text
