"""Golden CLI documents: fixed jobs whose stdout is pinned by its sha256.

Every job goes through ``cli.main`` as a user would run it, and its
whole result document (with ``--trace`` for the zeta tasks, so every
stratum, covector, power, exponent and face dimension is covered) must
hash to the digest recorded here.  The texts exercise the parser's
products, powers of signed and rational single terms, and powers of
sums.  A change that alters any byte of a document fails this test; one
that only makes the program faster leaves it passing unchanged.
"""

import hashlib
import io
import json

import pytest

from newtonzeta.cli import main

DEFORMATIONS = {
    3: {"n": 3, "constraints": ["(z1 - 2*z2)^2*z3 + 3/4*z1^3 + (-z2)^3 + z3^2 - 1"]},
    4: {"n": 4, "variables": ["x", "y", "u", "t"],
        "constraints": ["(1/2*x*y)^2 + y^3*t + u^2 - x*t^2 + (x + u)^2*y",
                        "x + (-y)^2*u + 7*t^3*u + u^3"]},
    5: {"n": 5, "constraints": ["(z1 + z2 + z3)^2 + z4^3*z5 + (2*z1)^3*z5^2 - z4*z5^3",
                                "z1*z2 + (-z3)^5 + z4^2 + z5 + z2^2*z5^2"]},
}

POLYZETA = {"n": 3, "constraints": ["(z1 + z2)^2 + z3^3 - 5/3*z1*z2*z3"],
            "objective": "z1^2*z3 + (-1/2*z2)^3 + (z3 + z1)^4"}

JOBS = [
    # (task, document, extra arguments, sha256 of stdout)
    ("deform-origin", DEFORMATIONS[3], ["--scope", "torus", "--trace"],
     "2a12a133bd42de82023746ac0cfbea1448833a26b3df28ea3af2b567ec79daa0"),
    ("deform-origin", DEFORMATIONS[3], ["--scope", "affine", "--trace"],
     "0f05cd4e29d26ad080c5e2c0510af293421735ab16008a4651c84514579b6c45"),
    ("deform-infinity", DEFORMATIONS[3], ["--scope", "affine", "--trace"],
     "60635365372e00110913a57ad0d5a35ab8506c54b64cf6c7998b17c09c2e7916"),
    ("deform-origin", DEFORMATIONS[4], ["--scope", "affine", "--trace"],
     "d79d14fda8f1cec1e46b88074defef73bf23718513f45ffa1887d4e96b9b4a02"),
    ("deform-infinity", DEFORMATIONS[4], ["--scope", "torus", "--trace"],
     "9135f591e3ed9b559793707eb7378c516919fb7e615fdec5812162014004196a"),
    ("deform-origin", DEFORMATIONS[5], ["--scope", "torus", "--trace"],
     "5f09550467a434679a9472677601dc42a521d7bd59ef628ee847df462c4c5f97"),
    ("deform-origin", DEFORMATIONS[5], ["--scope", "affine", "--trace"],
     "7fef4d478a84de0f40060aa6b482b7ebe5827b7bc13605f56c6300cf2f6069c4"),
    ("deform-infinity", DEFORMATIONS[5], ["--scope", "affine", "--trace"],
     "7035262a0926cd00869601acb2cd07d3793a94fcbec0be1e773e999179bf0bd9"),
    ("polyzeta", POLYZETA, ["--scope", "torus", "--trace"],
     "b6b7749af2b70d50c3fdbca241bb28b1b586a2b828419db42133462bffcc27e4"),
    ("polyzeta", POLYZETA, ["--scope", "affine", "--trace"],
     "6052d4006535f27fc5541940139019fb06f5a605ad309c4ff5c4b85e30b4482e"),
    ("mixedvol", {"n": 3, "constraints": ["(1 + z1 + z2)^2 + z3", "1 + (z2*z3)^2 + (-z1)^3",
                                          "(z1 - z3)^3 + 2/5*z2 + 1"]}, [],
     "c0763cdde8b8a6e1fa8b9c913a625c78e7f010b0c5b861bc75734489ffdfdb38"),
    ("euler", {"n": 3, "constraints": ["(1 + z1)^3 + (-z2*z3)^2", "z1*z2 + (1/3*z3)^4 + 1"]},
     [], "082acfe141cb4fd2ef72177885e1dbb08b13ddd6d62320587929a6d2b1083b48"),
]


@pytest.mark.parametrize("task, doc, extra, digest", JOBS,
                         ids=[f"{t}-{d['n']}-{'-'.join(x[1::2]) or 'plain'}"
                              for t, d, x, _ in JOBS])
def test_cli_document_is_pinned(task, doc, extra, digest, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    assert main([task, "-", *extra]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
