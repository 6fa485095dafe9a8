"""Golden digests of the corpus reports.

Each digest is the sha256 of a corpus file's JSON report (without
``timings``) followed by its SMT scripts, at bound 8 (bound 3 for ``qr``).
A refactor that should leave the analysis unchanged must keep every digest;
a change that alters reports on purpose must update them here and say why.
"""

import hashlib
import json

import pytest

from clockrace import analyze
from clockrace.report import build_report

from conftest import CORPUS_NAMES, corpus_path, load

GOLDEN = {
    "jacobi": "01d2da75d9a6b5376b62b9182804d674d909fc007071a3f439b81ef3aa7afadd",
    "gauss_seidel": "36d56c4318e5c71f899bd71aacdbc11f7f8853771c037428dd6fa6b040467341",
    "qr": "f412449aadf9f8671a084793671a14d99536be5d562342e359ae83551f6fa638",
    "fig1a": "3cf2145cdfb1856a26695de6099105a12975b428ced734a12caf6e96127d100e",
    "fig1b": "bd1c0a69a4da6729cb643bc95b4894d8de951516ec0ce528fea5e1c4455e5bc5",
    "sor": "beeab51bb4f77311aa51d88efec59f52241cbd253d6573503a69e98da7cabacb",
    "moldyn": "6ee45128e1e0332f470452e3427ff17b173819c69c4ecde932a278acacd6a686",
    "lufact": "5ffaa1e3288d8346b1f9e4d0c93f73012557e6cfae740d70eb885b354d93e9b1",
}


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_report_digest(name):
    p = load(name)
    a = analyze(p, bound=3 if name == "qr" else 8)
    report = build_report(corpus_path(name).name, p, a, [])
    payload = json.loads(report.to_json())
    del payload["timings"]
    h = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
    for script in a.smt_scripts:
        h.update(b"\0" + script.encode())
    assert h.hexdigest() == GOLDEN[name], report.to_text()
