"""Byte-identical CLI output on a fixed command corpus.

Every command runs in process in both output formats.  One SHA-256 per verb
covers the (argv, format, exit code, stdout, stderr) record of each of its
commands, so a change that is meant to alter no behaviour must leave every
digest as it is.  The digests were generated before the cross rules of the
engine and the Dunkl operators were each written once.
"""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from spinhecke import algebras as alg
from spinhecke import morphisms as mo
from spinhecke.cli import main

_CALL_FORMS = ("e", "einv", "epsv", "zeta")


def _token_text(token) -> str:
    kind, i = token
    return f"{kind}({i})" if kind in _CALL_FORMS else f"{kind}{i}"


def _map_commands():
    out = []
    for name in mo.MORPHISM_NAMES:
        for token in mo.named_morphism(name, 2).source.generator_tokens():
            out.append(["map", "--name", name, "--n", "2", "--expr", _token_text(token)])
    return out


CORPUS = {
    "verify-relations": [
        ["verify-relations", "--algebra", name, "--n", "2"] for name in alg.ALGEBRA_NAMES
    ],
    "verify-morphisms": [["verify-morphisms", "--n", n] for n in ("2", "3")],
    "map": _map_commands(),
    "verify-modules": [
        ["verify-modules", "--algebra", name, "--n", "2", "--degree-bound", "3"]
        for name in ("dahca", "sdaha")
    ],
    "act": [
        ["act", "--op", "dunkl-x", "--i", "1", "--n", "3", "--expr", "y1^2*y2 + y3^3",
         "--vector", "5"],
        ["act", "--op", "dunkl-y", "--i", "2", "--n", "3", "--expr", "x1^2*x2 + x2*x3^3",
         "--vector", "3"],
        ["act", "--op", "dunkl-xi", "--i", "3", "--module", "regular-spin", "--n", "3",
         "--expr", "y1^2*y3 + y2*y3^2", "--vector", "4"],
    ],
    "cocycle-table": [["cocycle-table", "--n", n] for n in ("2", "3", "4", "5")],
    "embedding-check": [
        ["embedding-check", "--algebra", name, "--n", "2", "--alpha", alpha]
        for name in ("dahca", "sdaha")
        for alpha in ("0", "1", "u")
    ],
    "center-check": [["center-check", "--algebra", "dahca", "--n", "2", "--expr", "y1^2+y2^2"]],
    "normalize": [
        ["normalize", "--algebra", "trigdahca", "--n", "3", "--expr",
         "epsv(2)^2*e(1)^2*einv(3)*s2*c1"],
        ["normalize", "--algebra", "trigsdaha", "--n", "3", "--expr", "zeta(1)^2*e(3)^2*t2"],
        ["normalize", "--algebra", "affinehc", "--n", "3", "--expr", "s(1,3)*a1^3*a2*c2"],
        ["normalize", "--algebra", "spinaffine", "--n", "3", "--expr", "tr(1,3)*b1^3*b2"],
    ],
}

GOLDEN = {
    "verify-relations": "51cfaa63275ebe07f8a8b66ee2b7415a107b9317fa5b7f86112406db37af7b66",
    "verify-morphisms": "4f04310fa4ed7869b798dd485abf4824103aea7691ea6209c7bcd3a24a14d3f8",
    "map": "4e40516e0e1a87fa70870b10a4a5e75b5350a4cb6b6eea02ea616d9e821a7d49",
    "verify-modules": "cd83ec7cc0b4c37fc00c0d30de8c96fcf36ebf525e82d169e8b5448670aa436d",
    "act": "9020a13e79a00e2a91425d723e5405ae74bf96dcb2ae6d7372a2cc764853fda4",
    "cocycle-table": "74241743dba8e4b7e57a074dadbfb7de071f55a23b83f6f7fd8317b3a743ec74",
    "embedding-check": "2854e965376303e9f990f8e62be13e29ad8aa00761217fafc18d7313395b5809",
    "center-check": "b9255defaafd66fe8325d0efb78bf21cfd2942c492ba886250552db44b8cd49c",
    "normalize": "10d85a3f195d749faf84ee1e9661d5e277351eea95c37428dc5ef2eac756e789",
}


def _record(argv) -> list:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return [argv, rc, out.getvalue(), err.getvalue()]


def corpus_digest(verb: str) -> str:
    h = hashlib.sha256()
    for argv in CORPUS[verb]:
        for fmt in ("text", "json"):
            rec = _record(argv + ["--format", fmt])
            h.update(json.dumps([rec[0], fmt] + rec[1:]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("verb", sorted(CORPUS))
def test_cli_corpus_is_byte_identical(verb):
    assert corpus_digest(verb) == GOLDEN[verb], verb


# The verification commands of the benchmark's suite workload, above the
# corpus sizes: SHA-256 of the JSON stdout of each (exit code 0), generated
# before the Dunkl oracle shared one engine product across the basis of W.
SUITE_COMMANDS = {
    ("verify-modules", "--algebra", "dahca", "--n", "3", "--degree-bound", "3"):
        "a46abc2d5388d1c6ee4eb93e8ac4f557d2ab52982f6b701c3d3828e126641942",
    ("verify-modules", "--algebra", "sdaha", "--n", "3", "--degree-bound", "3"):
        "1a1b2273c1afa3e44c191e3dcddbc6f8430fb3aefb70968c37425963b0442afe",
    ("verify-morphisms", "--n", "4"):
        "7e6ee6e68f7cbea66b6f08aff73dde5ee477865a02d974b07d94df959cc74a31",
}


@pytest.mark.parametrize("argv", sorted(SUITE_COMMANDS))
def test_suite_command_json_is_pinned(argv):
    _, rc, out, err = _record(list(argv) + ["--format", "json"])
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_COMMANDS[argv]
