"""The output bytes of the commands whose minima run at D = 1 or on the
discrete metric.

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

# the simulated paths: D = 1 coordinates and symbols
SIMULATE = {
    "circle": "iid:space=circle",
    "cycle": "cycle:N=12,p=0.3",
}

# gauges per path; "grid" is the circle path rounded to multiples of 1/8,
# so its rows repeat and tie
GAUGES = {
    "circle": ("lipschitz:L=1.5", "smooth:gamma=1.5,lambda=0.7", "local-lipschitz:r0=0.05",
               "local-smooth:c=1.2", "discrete"),
    "grid": ("lipschitz:L=1.5", "discrete"),
    "cycle": ("discrete", "lipschitz:L=2,metric=discrete"),
}

# recorded before the D = 1 and discrete-metric kernels became one
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
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("paths")
    digests = {}
    for name, process in SIMULATE.items():
        out = root / f"{name}.csv"
        assert main(["simulate", "--process", process, "--n", "64", "--seed", "5",
                     "--out", str(out)]) == 0
        digests[f"simulate-{name}"] = report_digest(out)
    grid = np.round(read_path(root / "circle.csv").coords * 8) / 8
    write_path(SamplePath.from_coords(grid), root / "grid.csv")
    return root, digests


def test_simulated_paths_keep_their_bytes(paths):
    _root, digests = paths
    assert digests == {name: DIGESTS[name] for name in digests}


@pytest.mark.parametrize("exclude", [False, True], ids=["all", "exclude"])
@pytest.mark.parametrize("path, gauge",
                         [(path, gauge) for path, gauges in GAUGES.items() for gauge in gauges])
def test_estimate_keeps_its_bytes_on_both_backends(paths, tmp_path, path, gauge, exclude):
    root, _digests = paths
    name = f"{path}-{gauge}-{'exclude' if exclude else 'all'}"
    digests = {}
    for backend in ("naive", "indexed"):
        report, profile = tmp_path / f"{backend}.json", tmp_path / f"{backend}.csv"
        args = ["estimate", "--in", str(root / f"{path}.csv"), "--gauge", gauge, "--tau", "2",
                "--t", "0.02", "--backend", backend, "--out", str(report),
                "--dump-profile", str(profile)]
        assert main([*args, *(["--exclude", "3,10,40"] if exclude else [])]) == 0
        digests[f"{name}-{backend}"] = report_digest(report)
        digests[f"{name}-profile"] = report_digest(profile)
    # the two backends write the same profile, byte for byte
    assert (tmp_path / "naive.csv").read_bytes() == (tmp_path / "indexed.csv").read_bytes()
    assert digests == {key: DIGESTS[key] for key in digests}


@pytest.mark.parametrize("process", ["iid:space=circle", "cycle:N=12,p=0.3"])
def test_coverage_keeps_its_bytes(tmp_path, process):
    out = tmp_path / "coverage.json"
    assert main(["validate", "--check", "coverage", "--process", process, "--n", "64",
                 "--tau", "2", "--t", "0.05", "--trials", "20", "--mc-fresh", "200",
                 "--seed", "3", "--out", str(out)]) == 0
    assert report_digest(out) == DIGESTS[f"coverage-{process}"]


def test_identity_study_on_the_index_keeps_its_bytes(tmp_path):
    out = tmp_path / "study.csv"
    assert main(["study", "--process", "circle:p=0.1", "--embedding", "identity",
                 "--backend", "indexed", "--tau", "2", "--sizes", "8,32,64",
                 "--p-list", "1,0.1", "--n-seeds", "2", "--seed", "4", "--out", str(out)]) == 0
    assert report_digest(out) == DIGESTS["study"]
    assert report_digest(tmp_path / "study_long.csv") == DIGESTS["study-long"]
