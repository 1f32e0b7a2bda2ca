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
        "344fe5299f5a0399a0c6d0601e00fa099b9bc6e0e3b0eda8ffd32dce3cd42d27",
    "sol-cart.json":
        "92d50ca0985b3a963aa48cde2ca7a345195fc56dcb17d6f63e71ea92984ec842",
    "sol-radial.json":
        "1a6a12fe16c2d252f6cec82a59e60faee1e60d621bf9d3304dda82751cd8948c",
    "sweep.csv":
        "c47843b55050e3d8777028775b1f2f48ada51faeeb1ae2b29f8776f4f67cd0ec",
    "thermo-b-1-flat.csv":
        "8d35b1250b7f7611c29dc2365c2ab1a9c61ca5c89bbf630313e676fb2a88795e",
    "thermo-b-1-poincare.csv":
        "62bd7e67aab3e92a1317a7cc2e5631109570da76d6ab9bf69d0dbfb2ad0ead81",
    "thermo-b1-flat.csv":
        "c8e1b5d9e8790c013712820a601e921cf26cdb1ef0fbbeb1d6c362f3decb90e1",
    "thermo-b1-poincare.csv":
        "77c30482cb71aec8e1dd042e0ba5d215b113ad4037bbda62273824c64b6488ee",
    "thermo-radial.csv":
        "a2d03c492920f3f3edfdb2850653f6aab91b0030677b6ba5ac81dd15a8d50ba0",
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
