"""Same-output gate: SHA-256 of small artifacts, frozen.

Every file here is written through the public CLI from a fixed small input,
so a change to the float codec, the CSV or JSON layout, the SVG renderer or
the solver's last digits shows up as a changed hash.  A change that moves
these bytes on purpose re-freezes them explicitly, in its own commit, with
the reason in CHANGES.md.  The hashes were taken with numpy 2.4 and scipy
1.17 on x86-64 Linux; the solver's last digits can depend on the BLAS and
LAPACK builds (the cartesian preconditioner's banded Cholesky factor, and
the radial Newton step's banded LU solve, dgbsv), so another platform may
need its own run of this gate before its hashes are trusted.
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
        "246f771977cbc5e5eb89d0550a949c2b646508951ad51c4844b65edd57e54f61",
    "sol-cart.json":
        "5da642619183ff00bb869ab883a9408896e270c879cab7f4ea3248ae480bdc7a",
    "sol-radial.json":
        "4260ab640031ebb9ea27ce50ba5c5979ad28b3ca8db3b6783f969915a730ec17",
    "sweep.csv":
        "6912397fb57fd20ca105b8a397c77f9b1698f3eb37dfc0fd37807cf00bbd06d1",
    "sweep.svg":
        "9e6d1cf96aa540f8fe012e42262e48addfc312c5ac88d35022470f11dbf80356",
    "thermo-b-1-flat.csv":
        "14257f1f74da98b67d35e733764d9c560ac4a15dd0388be5b7740cd54dc59dce",
    "thermo-b-1-poincare.csv":
        "fbce1b1be3b01899bedc28b8e086a04588d38b8739980dc02f6c0b30aec1d6d0",
    "thermo-b1-flat.csv":
        "46778ccc0e96774b42abc756761b680e7dd4dcf8bb8538598a724a4e6e55e02b",
    "thermo-b1-poincare.csv":
        "baa79a694ff494ab13ceca5f4b738c9b3295cee19092d942651b9d22b2a789db",
    "thermo-radial.csv":
        "575ec2790003e2124cb572feedb02961bf9845e7969ca93a3d9fb4841869d503",
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
