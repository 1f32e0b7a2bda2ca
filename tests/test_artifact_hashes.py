"""Same-output gate: SHA-256 of small artifacts, frozen.

Every file here is written through the public CLI from a fixed small input,
so a change to the float codec, the CSV or JSON layout, the SVG renderer or
the solver's last digits shows up as a changed hash.  A change that moves
these bytes on purpose re-freezes them explicitly, in its own commit, with
the reason in CHANGES.md.  The hashes were taken with numpy 2.4 and scipy
1.17 on x86-64 Linux; the solver's last digits can depend on the BLAS and
SuperLU builds, so another platform may need its own run of this gate
before its hashes are trusted.
"""

import hashlib
import json

import pytest

from todakit.cli import main

CART = '{"mode": "cartesian", "n": 33, "rho_max": 0.9}'
RADIAL = '{"mode": "radial", "n": 65, "rho_max": 0.9}'
WEIGHT_R3 = '{"kind": "poly", "r": 3, "coeffs": [[0, 0], [1, 0]]}'
WEIGHT_R2 = '{"kind": "poly", "r": 2, "coeffs": [[0, 0], [1, 0]]}'

FROZEN = {
    "heatmap.svg":
        "47e0e81423309f19698106649bdadc0ca76fbee61f14ce5cc26006c8cedf1c74",
    "profile.svg":
        "44c5ac35b05a527cf78c1f4022cc7baa4513f57977216602ff46409e9c33e68a",
    "report.json":
        "bf2ce4fbcb61872b707fe20e7c7a1a4fa8172a5303a358f0165b337012fa612f",
    "sol-cart.json":
        "a09582e473dc359cac963499f655138e11257060f3748f467dd91b149c986961",
    "sol-radial.json":
        "81fff7c49079b9bdbec26685993e50f8e8a97330a7ad60f894d9fedae89d9718",
    "sweep.csv":
        "c8da9f00e3ce543d71b81ea88bfad78d6b88172f8ac7812f4d261fd42e206f5a",
    "thermo-b-1-flat.csv":
        "5e23bce204b90efb331948a667801a7ba45e9f68448d352639e82217b6ce67eb",
    "thermo-b-1-poincare.csv":
        "14eedaea9c438bbe8226417031d03a63a7b1f86dfbe2e3c3d6b69fcbfe60091d",
    "thermo-b1-flat.csv":
        "0bb9c89635431ec01408dbdb53363a4171b21328971c9cacb1dcc26bd4b5f453",
    "thermo-b1-poincare.csv":
        "b03a80f3bde6315c37111c01fcfbfa7c06114bfba956cd4de4ae54c9d3ef1342",
    "thermo-radial.csv":
        "9f4e86ca48841b6be3ef650d15737741d3a4499d31d0354b7a4eddb8465a5d45",
}


def _run(*argv):
    assert main(list(argv)) == 0, argv


def write_artifacts(d) -> dict:
    """Write every gated artifact under directory `d`; name -> sha256."""
    for grid, tag in ((CART, "cart"), (RADIAL, "radial")):
        _run("solve", "--weight", WEIGHT_R3, "--grid", grid,
             "--out", str(d / f"sol-{tag}.json"))
    for beta in ("1", "-1"):
        for ref in ("flat", "poincare"):
            _run("thermo", "--solution", str(d / "sol-cart.json"),
                 f"--beta={beta}", "--reference", ref,
                 "--out", str(d / f"thermo-b{beta}-{ref}.csv"))
    _run("thermo", "--solution", str(d / "sol-radial.json"), "--beta", "1",
         "--out", str(d / "thermo-radial.csv"))
    _run("plot", str(d / "thermo-b1-flat.csv"),
         "--out", str(d / "heatmap.svg"))
    _run("plot", str(d / "thermo-radial.csv"),
         "--out", str(d / "profile.svg"))
    _run("sweep", "--weight", WEIGHT_R2,
         "--grid", '{"mode": "cartesian", "n": 17, "rho_max": 0.9}',
         "--t-values", "0.5,1,2", "--beta", "1,-1", "--jobs", "1",
         "--out", str(d / "sweep.csv"))
    _run("verify", "--suite", "smoke", "--out", str(d / "report.json"))
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.iterdir())}


@pytest.fixture(scope="module")
def hashes(tmp_path_factory):
    return write_artifacts(tmp_path_factory.mktemp("artifacts"))


def test_every_gated_artifact_is_frozen(hashes):
    assert sorted(hashes) == sorted(FROZEN)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_artifact_bytes_are_unchanged(hashes, name):
    assert hashes[name] == FROZEN[name], (
        f"{name} changed: {json.dumps(hashes, indent=1)}")
