"""Golden CLI outputs: every analysis subcommand in every format, plus inject.

Each case runs `urnstats` on one fixed input and compares the sha256 of the
bytes it writes with a recorded value, so any refactor that changes a single
output byte fails here.  The input is a small generated election (numpy-only
distributions, so the data does not depend on scipy's special functions)
followed by hand-written rows that break each count identity, plus rows with
zero registered electors, zero ballots cast, zero valid ballots and a tiny
station, spread over an ordinary and an exceptional region.
"""

from __future__ import annotations

import hashlib

import pytest

from urnstats.cli import main
from urnstats.ingest import serialize_dataset
from urnstats.synth import HonestModel, RegionModel, generate

REGISTRY = """\
region_id,name,status,exceptional,geo_tag
core,Core,ordinary,0,
rep,Republic,republic,1,NC
"""

HAND_ROWS = """\
h-votes,core,500,300,250,200,100
h-cast,rep,100,130,120,70,40
h-valid,core,400,200,210,100,90
h-zero-reg,rep,0,0,0,0,0
h-zero-cast,core,300,0,0,0,0
h-zero-valid,rep,200,10,0,0,0
h-small,rep,5,4,4,3,1
h-round,rep,1000,800,780,520,200
"""


def _model() -> HonestModel:
    def region(region_id, count, ur_lo, ur_hi):
        return RegionModel(
            region_id=region_id,
            station_count=count,
            size={"kind": "loguniform", "low": 20, "high": 2500},
            turnout={"kind": "uniform", "low": 0.4, "high": 0.95},
            support={
                "UR": {"kind": "uniform", "low": ur_lo, "high": ur_hi},
                "OPP": {"kind": "uniform", "low": 0.05, "high": 0.35},
            },
            turnout_link={"UR": 0.4} if region_id == "rep" else {},
        )

    return HonestModel((region("core", 240, 0.25, 0.55), region("rep", 90, 0.5, 0.85)))


HIST_VOTES = ["--party", "UR", "--weight", "party_votes", "--min-size", "50", "--center", "0.65"]

# case name -> argv after the data flags (outputs go to --output)
CASES = {
    "validate": ["validate"],
    "hist.json": ["hist", "--party", "UR"],
    "hist.csv": ["hist", "--party", "UR", "--format", "csv"],
    "hist.svg": ["hist", "--party", "UR", "--format", "svg"],
    "hist-votes.json": ["hist", *HIST_VOTES, "--exclude-exceptional"],
    "hist-electors-valid.json": [
        "hist", "--party", "OPP", "--weight", "electors", "--denominator", "valid_ballots",
        "--bin-width", "0.02",
    ],
    "turnout.json": ["turnout-hist"],
    "turnout.csv": ["turnout-hist", "--format", "csv", "--bin-width", "0.01"],
    "turnout.svg": ["turnout-hist", "--format", "svg"],
    "turnout-electors.json": [
        "turnout-hist", "--weight", "electors", "--min-size", "50", "--center", "0.5",
        "--exclude-exceptional",
    ],
    "cloud.json": ["cloud", "--party", "UR"],
    "cloud.csv": ["cloud", "--party", "UR", "--format", "csv"],
    "cloud.svg": ["cloud", "--party", "UR", "--format", "svg"],
    "cloud-valid.json": [
        "cloud", "--party", "OPP", "--denominator", "valid_ballots", "--exclude-exceptional",
    ],
    "compress.json": ["compress", "--party", "UR"],
    "compress.csv": ["compress", "--party", "UR", "--format", "csv"],
    "compress.svg": ["compress", "--party", "UR", "--format", "svg"],
    "compress-excl.csv": ["compress", "--party", "UR", "--format", "csv", "--exclude-exceptional"],
    "modes": ["modes", "--party", "UR"],
    "modes-compressed": ["modes", "--party", "UR", "--compressed", "--cell", "0.05", "--top-k", "3"],
    "modes-excl": ["modes", "--party", "OPP", "--exclude-exceptional", "--denominator", "valid_ballots"],
    "dents": ["dents", "--party", "UR"],
    "dents-votes": ["dents", *HIST_VOTES],
    "dents-candidates": ["dents", "--party", "UR", "--candidates", "13/20,3/4", "--exclude-exceptional"],
    "bound": ["bound", "--party", "UR", "--weight", "party_votes"],
    "bound-votes": ["bound", *HIST_VOTES, "--exclude-exceptional"],
    "coinflip.json": ["coinflip", "--p", "0.5", "--bin-width", "0.01"],
    "coinflip.csv": ["coinflip", "--p", "0.45", "--bin-width", "0.02", "--format", "csv"],
    "coinflip.svg": ["coinflip", "--p", "0.5", "--bin-width", "0.01", "--format", "svg"],
    "coinflip-centered.json": ["coinflip", "--p", "0.5", "--bin-width", "0.01", "--center", "0.5"],
    "mixture": ["mixture", "--p", "0.5"],
    "mixture-p03": ["mixture", "--p", "0.3"],
    "region-report": ["region-report", "--party", "UR"],
    "region-report-opp": ["region-report", "--party", "OPP"],
    "decompose": ["decompose", "--party", "UR"],
    "decompose-set": ["decompose", "--party", "OPP", "--region-set", "core"],
}

INJECT = {
    "stuffing": ["--injector-kind", "ballot_stuffing", "--party", "UR", "--affected", "0.3",
                 "--rate", "0.1", "--seed", "5"],
    "drawing": ["--injector-kind", "result_drawing", "--party", "UR", "--affected", "0.4",
                "--targets", "0.65,0.75", "--seed", "17"],
}

GOLDEN = {
    "input": "2be8a08cfefd41e800e596f07f7b0be5448494a9de8e33a3bd2fdd2f2f0c01e9",
    "bound": "9f1c1039856bc79ad95c22cbd413ced221aec68ebe0eecacdb6f60f0d0670f5b",
    "bound-votes": "03cf2b6ee0f992f917257dfb1c912886bf7a3d6021ee0c1e383dcb90f21a0293",
    "cloud-valid.json": "331b51ccad54513504d885f61ee5cb77723584d5b554e61dc95a070242c1b819",
    "cloud.csv": "446cd8d0210aabb6e71ce13f4b3668e141819966480d88f13af2320e7e87ef54",
    "cloud.json": "a79538ce81f05eb86a8aa29359dcc5a6434f1fcd979143ea453da7ab04af8592",
    "cloud.svg": "1e2dd7f5ef94d0577f8dad682abf66d1dd9ec40ee8a57f9da5488221dc71c263",
    "coinflip-centered.json": "29cf58b91b21702f28321043c499ffa5b35c01f02d3e2dd56092c1bc6c3b5bcd",
    "coinflip.csv": "81956c2cea7864d3ba34a364e7909c9670de68d81722166e9dcb4510e271bde2",
    "coinflip.json": "9db1fa0f0082b26ff4098944fa0633533e5b402b624b7bba28aecb8a031472e9",
    "coinflip.svg": "3afc90c12b23b7cb744dc10fee5a9d1d0e1099de248a882cd9b81a8bd9b904d5",
    "compress-excl.csv": "c9ae2aa47ea643c5d40345596eb43f3ce098f09189accd8d4a20843142953985",
    "compress.csv": "c3c42026189d11e4a65559b4580167bcb9f43595e81d0d3dae2f64570fc6ad8e",
    "compress.json": "1b38a4fdc1599c29fe0e8469eae8c69d5cbc82204fbf077f75cbb57ca20ec05d",
    "compress.svg": "53acb6f026848faaae4962524368b7d9f732aa09d84ddcdfdc075de8ef2a3ab0",
    "decompose": "1a0b542c63eeb9d4b6ac37b31f913aceac9d6b34a5771f8fecd318319034559d",
    "decompose-set": "3fe5843f859c5c93e1c92a9d05c2d13f63a1ba372099eacdaed70ed22531e27f",
    "dents": "e6b233e3ad474dee3ab5aa248e4d048724a4c234eca11fbdb40d2db99f9ed84f",
    "dents-candidates": "51dda97bfaaca66962ee841345048447de32a4939b1852d0ce9788351aaae8e2",
    "dents-votes": "ef4afde7170e27acfef5ea4f4d5a76b126e7a866155517ddb217fce0a99d0658",
    "hist-electors-valid.json": "e4ef5de51a8ddc8674a0ba9237e909748352db6bcfdc089f151dec455f9debfa",
    "hist-votes.json": "e2483b46b066f5bf293937d56b09773ec60fec6661d34e821bfaccbf9c8d126a",
    "hist.csv": "c86e92d7e9abb0c2f58414951fa6269f695c530e5e5421c6e7e8a1b89f280b1c",
    "hist.json": "75898631839f325abbe6f660f42e80c7f8a4eb0cd812e4821c645c520301854c",
    "hist.svg": "a22254a5e9243fad8e034aa4a310124e598a8bccc9f97171eea677fa60f617ee",
    "mixture": "bd85762b564b69afcce60f56f829522ab0e3b71aa1ffd843d499fc018375ea37",
    "mixture-p03": "287db97462dba5e69b3eb8a55799cad4a70a763cf03d9699d4086bf258bac004",
    "modes": "b1ab7a728c6a6198b03ebb5e9fd31eae34fb6655102e60772d21ec224c1b2caa",
    "modes-compressed": "c02a209b70765d9ce3a65637cbe38c919462b86f62749308cad087675343ca5a",
    "modes-excl": "09a476c102631dc917221c12ba597fbf43b423bc7f6881982efc600290202850",
    "region-report": "81310faf0c62f2b66984db4cf0d1e1f51d40c004f54949df773c63e0768da429",
    "region-report-opp": "6654deec56e5c201c492d785df1b061afaf83b6be910077f51ec85d9e4a76071",
    "turnout-electors.json": "8f02a7950c0312e08b3414984e3386345efaa54aade3b1a8d3f8375ced21f0cd",
    "turnout.csv": "39855ce5ea46e26ce4bcfbc96564eae4fd459840d01a18c517a28521585bdcf3",
    "turnout.json": "534376ea4585a299f988edef3f6c7720fb5786d5854ee5136e472dd52c76f632",
    "turnout.svg": "9b0348070a48d6dcf68cb973ac1170e6aff8b6471d3547bb682d44e8f15fd784",
    "validate": "e78d6eeccb10b98cded9eb0d5955daf8e312881aa1266989a1b9bdecf4c5f881",
    "inject-drawing.csv": "2570710134b3b42e8abcf0ed8472ed70ae3ad33cce6ad93ef98f1bbd91472f99",
    "inject-drawing.manifest": "b898cccad5a15b03d6aaf1f4d5b2cafe30cbad723d64af2baed3eb32ebc57a7e",
    "inject-stuffing.csv": "c7a6e61a4c6dd2a81a8802407e75d2d37ba132ed168e106ca6b32dc40f8eadd5",
    "inject-stuffing.manifest": "717738ee0a5ed1bae38210a180b473f92206575db09e06ef62c17a2958e419ae",
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    (d / "data.csv").write_text(serialize_dataset(generate(_model(), seed=11)) + HAND_ROWS)
    (d / "regions.csv").write_text(REGISTRY)
    return d


def _run(inputs, argv, out):
    data = ["--input", str(inputs / "data.csv"), "--regions", str(inputs / "regions.csv")]
    assert main([argv[0], *data, *argv[1:], "--output", str(out)]) == 0


def test_input_hash(inputs):
    assert _sha(inputs / "data.csv") == GOLDEN["input"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_unchanged(inputs, tmp_path, name):
    out = tmp_path / "out"
    _run(inputs, CASES[name], out)
    assert b"np." not in out.read_bytes()  # numbers are written as plain Python numbers
    assert _sha(out) == GOLDEN[name]


@pytest.mark.parametrize("kind", sorted(INJECT))
def test_inject_output_unchanged(inputs, tmp_path, kind):
    out, manifest = tmp_path / "out.csv", tmp_path / "manifest.json"
    _run(inputs, ["inject", *INJECT[kind], "--manifest", str(manifest)], out)
    assert b"np." not in out.read_bytes()
    assert _sha(out) == GOLDEN[f"inject-{kind}.csv"]
    assert _sha(manifest) == GOLDEN[f"inject-{kind}.manifest"]
