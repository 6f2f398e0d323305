"""The output bytes of simulate, estimate, every validate check and a study.

estimate runs on every kernel the indexed kind picks: the order kernel (D = 1
and the discrete metric), the certified screen (a Fourier-8 path, and a
raster path at D = 256 long enough that the screen picks its centres from a
strided sample of the candidates), hinge labels at D = 1 and D = 8, and the
regression gauge at D = 2.  Coverage runs on a circle, a cycle and a
Fourier-8 circle, whose true missing mass runs on the screen.

Each output file's sha256, with its generated_at timestamp and its
distance_evaluations work counter removed (test_contract.py pins the
counters), is compared with a stored digest.  A change that moves a digest
lists the file, the old and new digest and the reason in CHANGES.md.
"""

import numpy as np
import pytest

from gaugebounds import SamplePath, read_path, write_path
from gaugebounds.cli import main
from test_lazy_imports import report_digest

# the simulated paths, (process, embedding): D = 1 coordinates, symbols, a
# Fourier-8 circle and a torus at D = 2
SIMULATE = {
    "circle": ("iid:space=circle", "identity"),
    "cycle": ("cycle:N=12,p=0.3", "identity"),
    "fourier8": ("circle:p=0.1", "fourier:D=8"),
    "torus": ("torus:p=0.1", "identity"),
}

# gauges per path.  Paths derived from the simulated ones, with exact
# arithmetic only: "grid" is the circle path rounded to multiples of 1/8, so
# its rows repeat and tie; "hinge-d1" labels the circle path in stripes of
# width 1/8 and "hinge-d8" the Fourier-8 path by the sign of c0 * c1;
# "paired-d2" gives the torus path the targets c0 - 2 c1
GAUGES = {
    "circle": ("lipschitz:L=1.5", "smooth:gamma=1.5,lambda=0.7", "local-lipschitz:r0=0.05",
               "local-smooth:c=1.2", "discrete"),
    "grid": ("lipschitz:L=1.5", "discrete"),
    "cycle": ("discrete", "lipschitz:L=2,metric=discrete"),
    "fourier8": ("lipschitz:L=1.5", "smooth:gamma=1.5,lambda=0.7"),
    "hinge-d1": ("hinge:L=2",),
    "hinge-d8": ("hinge:L=2",),
    "paired-d2": ("regression:L=1.25",),
}

# --t per path where 0.02 would put nearly every minimum above it
T = {"fourier8": "0.3", "hinge-d8": "0.3", "paired-d2": "0.3"}

# recorded before the D = 1 and discrete-metric kernels became one, except
# where noted
DIGESTS = {
    "simulate-circle":
        "d9146d90eedbde28da678b5330dfc591b37450f363059b10d301a36465e7d417",
    "simulate-cycle":
        "09e85cd54679898e9c0dba97a888d359b54ea1786e49e3c0b13069defb04c43b",
    "circle-lipschitz:L=1.5-all-naive":
        "ad56a343a7950981de14f651ec3a16462b562492540345dd36fa3b8e3cfffdc2",
    "circle-lipschitz:L=1.5-all-profile":
        "8bbffaa929ccb2b69989505b9a9b8b606f343bf09b410333516a13ce105c21ab",
    "circle-lipschitz:L=1.5-all-indexed":
        "c23dc151babb058c1c1eaf2f808120b7de69d069b181ad50c60fe1ccc7ad4998",
    "circle-lipschitz:L=1.5-exclude-naive":
        "5be7e0171c2d5c2a197173edb8a6492d4cad7674b75f717b87f9e2e08e8aadb4",
    "circle-lipschitz:L=1.5-exclude-profile":
        "edc4fc4fc64c1c2527a52783229aacf944466755fa6474d083fec47cc4e6eb47",
    "circle-lipschitz:L=1.5-exclude-indexed":
        "b9dfce0324a6ffe4b38306e96e51ee3dda2812f2841e4a5f8f26e5ecd7d03a25",
    "circle-smooth:gamma=1.5,lambda=0.7-all-naive":
        "165585fb834d26ddd17460ca936b176f76847d5570996c9385a39251f25ce39f",
    "circle-smooth:gamma=1.5,lambda=0.7-all-profile":
        "2121040186f6781d4903af1de2699b9b8da84c46233186f983ec7c99c577bcc1",
    "circle-smooth:gamma=1.5,lambda=0.7-all-indexed":
        "0c31a273b59a5af6d9284f703680b2ec781ecea1167229de9c99239445618de8",
    "circle-smooth:gamma=1.5,lambda=0.7-exclude-naive":
        "29bca1a5642beec08d7aea2ed60fefa5885cb2b54c0276959692892607193d65",
    "circle-smooth:gamma=1.5,lambda=0.7-exclude-profile":
        "3e3de2d9aa7794295a67b0574501121ecd853d32417aecd935f77f5015544797",
    "circle-smooth:gamma=1.5,lambda=0.7-exclude-indexed":
        "b49449c2de59c46b91ac2829ecd2c566bc8aa87fd3982b21b4c75b5b6fb77e37",
    "circle-local-lipschitz:r0=0.05-all-naive":
        "39adef8694c7159bedfa6cf1651a8768579e2eed336338b118823ff948d8cc60",
    "circle-local-lipschitz:r0=0.05-all-profile":
        "c4b9b3a3333e721e69d5aea875271fe1168cf9a9bce8abddd8ea83920d9d1cbc",
    "circle-local-lipschitz:r0=0.05-all-indexed":
        "fd6f7abae64b7e399782fa98e2d78b39b92ed218942e118f0cec0aed7202c5f6",
    "circle-local-lipschitz:r0=0.05-exclude-naive":
        "0f8a2e76cb44eae3a81c27fae67df0124df96643402c82a1c15a024b82e928d1",
    "circle-local-lipschitz:r0=0.05-exclude-profile":
        "f3df427fee4a3fbd2b48f66e309bc44705949b51b16729c25de05ee7943d9036",
    "circle-local-lipschitz:r0=0.05-exclude-indexed":
        "4032d6343b4ae9d4a2fd7afa09aa4b9b5ad0c61c5adc78575e3b9e0628d7f5dc",
    "circle-local-smooth:c=1.2-all-naive":
        "fefef484789a9aac29e4819c2cf2afb812d2f189ab3357ccf6aa67109dd49551",
    "circle-local-smooth:c=1.2-all-profile":
        "63b119f3213c8232feab02fcae25edc2a84afccf86db710f770ecf1f2f97a314",
    "circle-local-smooth:c=1.2-all-indexed":
        "15e7fb97026ad685452dbea546d3a8c4df6612d028cb264bb06c1464569f18a3",
    "circle-local-smooth:c=1.2-exclude-naive":
        "88cccc8e99231c00d7943a01e8278c52e0dcb05455f091a81d1f83e718fb20f3",
    "circle-local-smooth:c=1.2-exclude-profile":
        "85fc8884a70f31f9cb0c34e3929fc1711aa5a1fa6b19291faf718ca5fe26faeb",
    "circle-local-smooth:c=1.2-exclude-indexed":
        "d46908cda87cb922a227e06441e739d12d3bbaabb4dd91beb954fab400a86964",
    "circle-discrete-all-naive":
        "d14b981e4b222c72f3b09a6e387badd59f75c189486bca5a5959843731a0c4e3",
    "circle-discrete-all-profile":
        "269aa17c635150b188781da6e72073760082944988929d7384f64feb872f2e27",
    "circle-discrete-all-indexed":
        "63709175dc02d1c2054be74a841280d2762cf3be7c052c13f4cf949b934a05ca",
    "circle-discrete-exclude-naive":
        "170f6549ca6cd73282850ad9dbc3bb296c3629cdf7cc7dca70ab42fdbb4b39c2",
    "circle-discrete-exclude-profile":
        "269aa17c635150b188781da6e72073760082944988929d7384f64feb872f2e27",
    "circle-discrete-exclude-indexed":
        "7a35fb6a146ebb583f4d1f0b5cf528bc84196a3a495d55c99f1c2d7e11744888",
    "grid-lipschitz:L=1.5-all-naive":
        "0ac5ec6af51dc13620b581a1ea0697d34fa1119437de4677d687b7d90001ba04",
    "grid-lipschitz:L=1.5-all-profile":
        "269b6156aef4022ed2d39d534fe15d7edbf025493b36c899b188a882a7b74aa0",
    "grid-lipschitz:L=1.5-all-indexed":
        "0916233cf0a3d0bbbb29b1896db0def672a5f3d0fa38b62d9cc3915feb88a09a",
    "grid-lipschitz:L=1.5-exclude-naive":
        "5bed8f6bb0283270829e9f6072a1c72ba86abde5a0cdb9f4d641acfeabcefed6",
    "grid-lipschitz:L=1.5-exclude-profile":
        "d5056597f0fdba2ac9bfe76d4f808025c9e58f49426a342b62ed6fe1280ffa49",
    "grid-lipschitz:L=1.5-exclude-indexed":
        "38cba2d6695745a77088b5ed383f126f1daedfd1586c2a5bda440c4930dd9a75",
    "grid-discrete-all-naive":
        "d834fcf583673ff2fd4278511d8fec3eb15693583d7090ca11a90b257f69113a",
    "grid-discrete-all-profile":
        "e34e222a029228002056273b404737eb010af6f1b7a50f6c15df8fdce1c183a1",
    "grid-discrete-all-indexed":
        "5dc96b5d1bfaecb7d2ee7d21b3f808b2ed00df15a54728544937bf54cfdaddc9",
    "grid-discrete-exclude-naive":
        "06bdffa413d9a68a91ea6e006698bf895852142808281b804bbe51b16608700d",
    "grid-discrete-exclude-profile":
        "eea7a9b0f9f8c5106d9fa9d30f9755cb5eccb6106e9dd455e077ccbf6c296fed",
    "grid-discrete-exclude-indexed":
        "0708ebf26cddeeffa451103c3a553d03741639902ef2b084ede1ac4d15953e8a",
    "cycle-discrete-all-naive":
        "0c04a8baa1b9eb5f97346eb7f4ec517577b84be98765b27c7679ddce7f721c3a",
    "cycle-discrete-all-profile":
        "a86271a66a2a37f6e6af65b6cbaac1146d66d817f01355f167f22022df4812d5",
    "cycle-discrete-all-indexed":
        "b069db7dbae5cc1fe233e012cffccd2d28c0ea3a410db03f7f293457d60fc7d9",
    "cycle-discrete-exclude-naive":
        "05309c2bbecb9c8ee8cf91c7992241817f745e82859530678cf9e23e0250f736",
    "cycle-discrete-exclude-profile":
        "f988fa384dc9207c614f9fe1c9da6805d1f27af68f3bfffb27af587e437fce45",
    "cycle-discrete-exclude-indexed":
        "7582f7bc8a4a4b76c5d799542821cb21af25851832a879a159f989ee6488c7c5",
    "cycle-lipschitz:L=2,metric=discrete-all-naive":
        "9c9f5c3068df701ac43830a0ba7ee0e14200f060459bfe028c31fe4afdfbe00d",
    "cycle-lipschitz:L=2,metric=discrete-all-profile":
        "807010e74bb6c912f8c34631fc17ee6fa81c48952ca3711ace02392e1378f3e6",
    "cycle-lipschitz:L=2,metric=discrete-all-indexed":
        "cb5fe8db28a4d5ac1432d5cb76a3b3a4ac589be2c9660a452938232b84c983c7",
    "cycle-lipschitz:L=2,metric=discrete-exclude-naive":
        "1379f267c67dead6d98555ef88df4f05bb08a4ad809f18e83fead19d5b514716",
    "cycle-lipschitz:L=2,metric=discrete-exclude-profile":
        "71c02203b1ea4b82fb144268f32b9e4af7b9db27bf05a42099b886308ef5d2e4",
    "cycle-lipschitz:L=2,metric=discrete-exclude-indexed":
        "eb6c8ba265d7e25e5b88c613d643bd604cac9607ceb741469a115bfa2343cc0c",
    "coverage-iid:space=circle":
        "c0e05581efd1d846b0b6f86d69adb853e7d258592f6137cf68b2d74dc9b1e149",
    "coverage-cycle:N=12,p=0.3":
        "9200966b2061eaee981c0c6030e57bcef4c9ede6d6f17936f47b497ed6b56c3c",
    "study":
        "3199f89e8ea9d94d909d7164051cbcbfd02d720cd5b858cecf4ad0c404a16bff",
    "study-long":
        "7fae3acbce0ba7df1c8d94da61b53cfbbf131f95cc97057a34a328861818f3a2",
    # recorded before the kernels answered only row-prefix problems
    "simulate-fourier8":
        "69d89e36d5d207010bc3d473b00fc62a789e65a8de8ea09db5dbbb8ed0a1e642",
    "simulate-torus":
        "3ba4d241702fb4aae82754529f65c8e3ca96d63541c63a6707525afbf43807de",
    "fourier8-lipschitz:L=1.5-all-naive":
        "7dfe32fc41c0a134c90fec6c4369917ba301f1d44cc72422be1f7d4d76c34e7b",
    "fourier8-lipschitz:L=1.5-all-profile":
        "d9336165884967504c306f4269c05b08e24103b24aef6d22790ca83a72f7c966",
    "fourier8-lipschitz:L=1.5-all-indexed":
        "5b3dcbb5f0f659df2109ef41a30cc91c34d687227bc2ecf3bf67e1b68fd57ad1",
    "fourier8-lipschitz:L=1.5-exclude-naive":
        "3beb0f472598b06b28a768e23472cc9567c55bf84ab743a6669cf9ca62efc455",
    "fourier8-lipschitz:L=1.5-exclude-profile":
        "63b48bbaf4078c6310ef2e791b7c3666ff95ff31b69da5f2bece72c2785db4f6",
    "fourier8-lipschitz:L=1.5-exclude-indexed":
        "f5a8e2762c3d15adcf776d51482f15194910481f2999e1955f90bf3393e352f8",
    "fourier8-smooth:gamma=1.5,lambda=0.7-all-naive":
        "5d5dd05113cfe8847a49714ca644e74a3f55c47a60bb9c89a547d229c6670a1e",
    "fourier8-smooth:gamma=1.5,lambda=0.7-all-profile":
        "8827e832e17e45f1c0bdbad6270ea9536b4697a1f23dcbce75047d7a5e818180",
    "fourier8-smooth:gamma=1.5,lambda=0.7-all-indexed":
        "a79ba1dcc6e207e57190813deb703991995f977314b5b1a6b7fb7302581f4067",
    "fourier8-smooth:gamma=1.5,lambda=0.7-exclude-naive":
        "74b48f0cf234254dfad1b2edc21408b58bc0022256180438726b15e1706b5943",
    "fourier8-smooth:gamma=1.5,lambda=0.7-exclude-profile":
        "256c6bc8e86e2a0fda472820ba3f4eb0257e0f1ec6d081bb047081914d973103",
    "fourier8-smooth:gamma=1.5,lambda=0.7-exclude-indexed":
        "5d8a1403824b668b4480bb8189daa26857108f3e3c96eb1040cef1c594a2c4ab",
    "hinge-d1-hinge:L=2-all-naive":
        "020aff49522759bee2c7be711c57a3e754e64782a210dc50b4f9760c07160936",
    "hinge-d1-hinge:L=2-all-profile":
        "0702beddd80d975aec47e875b50b9ea95e84e26deef7d4e82eefd1f42a6c7ede",
    "hinge-d1-hinge:L=2-all-indexed":
        "744fc7eb86293bb1f7a34426a0bfb7262005be722513253fa10091221090160d",
    "hinge-d1-hinge:L=2-exclude-naive":
        "f6af3b12d8dfedd0986773da7a97d68362e8cf2e7e3f84f3810fb9309cb7acab",
    "hinge-d1-hinge:L=2-exclude-profile":
        "c3f14a3f92ec2bd66efd9c5824b154845e102b56150ad844099d5e80f10e6a5a",
    "hinge-d1-hinge:L=2-exclude-indexed":
        "18592ba1d790721b4be11a9d833d4f647234c14a4b5881105cc7d29f00f41b92",
    "hinge-d8-hinge:L=2-all-naive":
        "d7933b39547fbc3eca26c2f0e69b042593c8b475104f9f361ac8d105cca8d167",
    "hinge-d8-hinge:L=2-all-profile":
        "1b21650911b4a73d1c0e51e493c9c5b38bbf3591bd6e3155322cb2531c86ced1",
    "hinge-d8-hinge:L=2-all-indexed":
        "06d58aa7d3693e335c511ba6ea5953a6fcfa2d3a40903ae1d47fd049465fbdc6",
    "hinge-d8-hinge:L=2-exclude-naive":
        "dc0cd82dde77927dc864117ffc1c00ba417cfa30037a5a0035d73bbfa5fa8c36",
    "hinge-d8-hinge:L=2-exclude-profile":
        "f206ac0bf5b0c6b81d05798e2e3b7fc3da502830873ab893c99244ae1bcc29b0",
    "hinge-d8-hinge:L=2-exclude-indexed":
        "00e3336f02824451e20f4cf6adbefb0c51d96605ff3ad2b97fed38c38dce45e8",
    "paired-d2-regression:L=1.25-all-naive":
        "a72c0727741d515c0b0a4d156e2511eb010a334f9afa6234cab6360960c88a3a",
    "paired-d2-regression:L=1.25-all-profile":
        "1c996c8a6374ee939428033a61f714e900777eacb353761ffa16e197dfbe06e0",
    "paired-d2-regression:L=1.25-all-indexed":
        "6665a4560a696578d89421b8354dd6f4c933772ddc7db7c7824beeee74873b9c",
    "paired-d2-regression:L=1.25-exclude-naive":
        "7fc2b231cf06134805952c9a3ca28233f464065cd6294ff5a1fcfe8280f5dd63",
    "paired-d2-regression:L=1.25-exclude-profile":
        "ec18ac055b4636dd6a47f5943cf9d2e3560daa15e592dd6065261b040662dfb3",
    "paired-d2-regression:L=1.25-exclude-indexed":
        "f77b651823a3d5620872f274561556299c29b3a30f9fec934437c826970dd161",
    # recorded before the screen took its centres from a strided sample
    "simulate-raster.csv":
        "f376d283904ca4a45bba4f3e3c3d19b7b18ef3b8b5b652c9801de36a0003adb3",
    "simulate-raster.bin":
        "5d21c1557895af50442f5023feb05a17bafed62cafba2c1855338b8a84bf0a1b",
    "raster-estimate":
        "324d1c4031d1f3fc58ad00a0cf2702bbfeda72c3f75ae8e28e4668b849c4a1c9",
    "raster-profile":
        "dcbcb853fb6b6b1abef85652de1263afed0534c9601525f82119d8f99fe2eab2",
    "raster-study":
        "84af06222e22f9d77616accb5043172e56743c05c950db0195b1c1a12bcbce99",
    "raster-study-long":
        "59c3238e433408c2eee3cf4b2272060d0fd06b9abd402800cc607ed780b118b6",
    # recorded before the screen's certificate steps became functions
    "validate-coverage-fourier8":
        "39157f8e602127c6d7b198094ce0ccf32c3b38ee6574a31df4253dcfa0a4fb27",
    "validate-martingale":
        "f8d9c352d05a7fe161b3bafe7dc722ee086f6eb4f872019e2e237d35ffa84513",
    "validate-good-turing":
        "a834992a4296653deec5dc9e582969e84aee9316606cda75ecbc9ba340fa1d27",
}


def write_paths(root):
    """Every path of GAUGES under root, and the digests of the simulated ones."""
    digests = {}
    for name, (process, embedding) in SIMULATE.items():
        out = root / f"{name}.csv"
        assert main(["simulate", "--process", process, "--embedding", embedding, "--n", "64",
                     "--seed", "5", "--out", str(out)]) == 0
        digests[f"simulate-{name}"] = report_digest(out)
    circle = read_path(root / "circle.csv").coords
    fourier, torus = read_path(root / "fourier8.csv").coords, read_path(root / "torus.csv").coords
    write_path(SamplePath.from_coords(np.round(circle * 8) / 8), root / "grid.csv")
    write_path(SamplePath.from_labeled(circle, np.where(np.floor(circle[:, 0] * 8) % 2, -1, 1)),
               root / "hinge-d1.csv")
    write_path(SamplePath.from_labeled(fourier, np.where(fourier[:, 0] * fourier[:, 1] < 0, -1, 1)),
               root / "hinge-d8.csv")
    write_path(SamplePath.from_paired(torus, torus[:, 0] - 2 * torus[:, 1]), root / "paired-d2.csv")
    return digests


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("paths")
    return root, write_paths(root)


def test_simulated_paths_keep_their_bytes(paths):
    _root, digests = paths
    assert digests == {name: DIGESTS[name] for name in digests}


@pytest.mark.parametrize("exclude", [False, True], ids=["all", "exclude"])
@pytest.mark.parametrize("path, gauge",
                         [(path, gauge) for path, gauges in GAUGES.items() for gauge in gauges])
def test_estimate_keeps_its_bytes_on_both_backends(paths, tmp_path, path, gauge, exclude):
    root, _digests = paths
    digests = estimate_digests(root, tmp_path, path, gauge, exclude)
    # the two backends write the same profile, byte for byte
    assert (tmp_path / "naive.csv").read_bytes() == (tmp_path / "indexed.csv").read_bytes()
    assert digests == {key: DIGESTS[key] for key in digests}


def estimate_digests(root, out, path, gauge, exclude):
    """Digests of estimate's report on both backends and of its profile."""
    name = f"{path}-{gauge}-{'exclude' if exclude else 'all'}"
    digests = {}
    for backend in ("naive", "indexed"):
        report, profile = out / f"{backend}.json", out / f"{backend}.csv"
        args = ["estimate", "--in", str(root / f"{path}.csv"), "--gauge", gauge, "--tau", "2",
                "--t", T.get(path, "0.02"), "--backend", backend, "--out", str(report),
                "--dump-profile", str(profile)]
        assert main([*args, *(["--exclude", "3,10,40"] if exclude else [])]) == 0
        digests[f"{name}-{backend}"] = report_digest(report)
        digests[f"{name}-profile"] = report_digest(profile)
    return digests


@pytest.mark.parametrize("process", ["iid:space=circle", "cycle:N=12,p=0.3"])
def test_coverage_keeps_its_bytes(tmp_path, process):
    out = tmp_path / "coverage.json"
    assert main(["validate", "--check", "coverage", "--process", process, "--n", "64",
                 "--tau", "2", "--t", "0.05", "--trials", "20", "--mc-fresh", "200",
                 "--seed", "3", "--out", str(out)]) == 0
    assert report_digest(out) == DIGESTS[f"coverage-{process}"]


# the validate checks not pinned above, with the arguments before --seed
VALIDATE = {
    "coverage-fourier8": ["coverage", "--process", "circle:p=0.1", "--embedding", "fourier:D=8",
                          "--n", "64", "--tau", "2", "--t", "0.3", "--trials", "20",
                          "--mc-fresh", "200"],
    "martingale": ["martingale", "--chain", "mmb:stay0=0.8,stay1=0.7,q0=0.2,q1=0.6",
                   "--n", "64", "--trials", "100"],
    "good-turing": ["good-turing", "--symbols", "12", "--n", "64", "--t", "0.5",
                    "--trials", "50"],
}


@pytest.mark.parametrize("name", sorted(VALIDATE))
def test_validate_keeps_its_bytes(tmp_path, name):
    out = tmp_path / "validate.json"
    assert main(["validate", "--check", *VALIDATE[name], "--seed", "3", "--out", str(out)]) == 0
    assert report_digest(out) == DIGESTS[f"validate-{name}"]


def test_identity_study_on_the_index_keeps_its_bytes(tmp_path):
    out = tmp_path / "study.csv"
    assert main(["study", "--process", "circle:p=0.1", "--embedding", "identity",
                 "--backend", "indexed", "--tau", "2", "--sizes", "8,32,64",
                 "--p-list", "1,0.1", "--n-seeds", "2", "--seed", "4", "--out", str(out)]) == 0
    assert report_digest(out) == DIGESTS["study"]
    assert report_digest(tmp_path / "study_long.csv") == DIGESTS["study-long"]


# raster paths (D = 256) of the README's process; at n = 2048 the screen's
# sample of at most 1024 candidate rows takes every second one
RASTER = ["--process", "torus:p=0.1", "--embedding", "raster:scaling=true", "--seed", "7"]


def test_raster_simulate_and_estimate_keep_their_bytes(tmp_path):
    digests = {}
    for n, name in ((64, "raster.csv"), (2048, "raster.bin")):
        assert main(["simulate", *RASTER, "--n", str(n), "--out", str(tmp_path / name)]) == 0
        digests[f"simulate-{name}"] = report_digest(tmp_path / name)
    report, profile = tmp_path / "estimate.json", tmp_path / "mins.csv"
    assert main(["estimate", "--in", str(tmp_path / "raster.bin"), "--gauge", "lipschitz:L=1",
                 "--tau", "22", "--t", "0.2", "--backend", "indexed", "--out", str(report),
                 "--dump-profile", str(profile)]) == 0
    digests["raster-estimate"] = report_digest(report)
    digests["raster-profile"] = report_digest(profile)
    assert digests == {key: DIGESTS[key] for key in digests}


def test_raster_study_keeps_its_bytes(tmp_path):
    out = tmp_path / "study.csv"
    assert main(["study", *RASTER, "--backend", "indexed", "--tau", "2",
                 "--sizes", "64,512,2048", "--p-list", "1,0.1", "--n-seeds", "1",
                 "--out", str(out)]) == 0
    assert report_digest(out) == DIGESTS["raster-study"]
    assert report_digest(tmp_path / "study_long.csv") == DIGESTS["raster-study-long"]
