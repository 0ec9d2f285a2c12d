"""The golden manifest: the BLAS-free outputs on the bundled corpus are
byte-identical to the committed ones (see tests/golden/regenerate.py)."""

import json

from golden.regenerate import HERE, artifact_digests, molecules_tsv


def test_molecule_table_matches_golden():
    want = (HERE / "molecules.tsv").read_text(encoding="utf-8").splitlines()
    have = molecules_tsv().splitlines()
    assert len(have) == len(want)
    assert [row for row, golden in zip(have, want) if row != golden] == []


def test_artifact_digests_match_golden(tmp_path):
    assert artifact_digests(tmp_path) == json.loads((HERE / "manifest.json").read_text())
