"""Same-output gate: SHA-256 of small artifacts, frozen.

Every file here is written through the public CLI from a fixed small input,
so a change to the float codec, the CSV or JSON layout, the SVG renderer or
the solver's last digits shows up as a changed hash.  A change that moves
these bytes on purpose re-freezes them explicitly, in its own commit, with
the reason in CHANGES.md.  The hashes were taken with numpy 2.4 and scipy
1.17 on x86-64 Linux; the solver's last digits can depend on the BLAS and
LAPACK builds (the cartesian preconditioner's banded Cholesky factor) and
on the SuperLU build (the radial preconditioner's LU factor), so another
platform may need its own run of this gate before its hashes are trusted.
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
        "76b92fb81bc103b6f3c992f42b4bff248a26de5f94ce5adc87a3ef2ef712404c",
    "sol-cart.json":
        "16607e1992a0a1b02e9b43974ef5f8b5843f52a38de9e731b76fdf22b91d3b18",
    "sol-radial.json":
        "40eb142edff9fc26e701938664208f75efcefe0ee5da09e98f7410fdbeb30a6c",
    "sweep.csv":
        "3a376336026e0e7ea15cb54e046c1dff74cfe9f23c82fa81c0228b2fd1393c5d",
    "sweep.svg":
        "9e6d1cf96aa540f8fe012e42262e48addfc312c5ac88d35022470f11dbf80356",
    "thermo-b-1-flat.csv":
        "1b17e2afd73ef5650d2a3700e412b75e6f1ce587e128f09b01be0621bf67e305",
    "thermo-b-1-poincare.csv":
        "4fd5261efe3cfb8cf036f414ae298a0a9aad2ab7d227f42ca2bee933d7af217f",
    "thermo-b1-flat.csv":
        "587daa7349ee22f2e3a3947a31d78f9f86877a8f4cce2c3a3b6b35611ce62f90",
    "thermo-b1-poincare.csv":
        "d963cbdb0a2e26e32b57130e18313a65683910df01b18d0a38acc0fe740095e1",
    "thermo-radial.csv":
        "3105e14df0df6d91f860670773092a0d86ffe22d1dea44dca6f885e6b4124628",
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
    _run("plot", str(d / "sweep.csv"), "--out", str(d / "sweep.svg"))
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
