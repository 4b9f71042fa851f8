"""The demos' stdout, pinned byte for byte: each demo runs in its own process
with PYTHONPATH=src, and the sha256 of what it prints must match the one
recorded here.  A change to a demo's output is a change to this table."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

DEMO_STDOUT_SHA256 = {
    "demo_finite_fields": "01262270cf93b9719c9e0b8d1a647df07bc6842bdfe9870d00952124b31de753",
    "demo_galois_correspondence": "50b5ff1a8c05dc60362ad9752a7d70ff68937ee7c240b6e7eb44bc23de5726ec",
    "demo_unsolvable_quintic": "2918c45f98474d418ad4f2b430dac8e8ca8adaf397f6ae44705c9d376b077b31",
}


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_is_unchanged(name):
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True,
        check=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
    ).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_STDOUT_SHA256[name]
