"""Command-line interface: subcommands, exit codes, output determinism."""

import json

import pytest

from urnstats.cli import main
from urnstats.ingest import parse_dataset, serialize_dataset, serialize_regions
from urnstats.ru2011 import reference_dataset
from urnstats.synth import generate, model_from_config

MODEL_CONFIG = {
    "regions": [
        {
            "region_id": "core",
            "station_count": 400,
            "size": {"kind": "loguniform", "low": 100, "high": 3000},
            "turnout": {"kind": "beta", "a": 24, "b": 16},
            "support": {
                "UR": {"kind": "beta", "a": 14, "b": 26},
                "OPP": {"kind": "beta", "a": 22, "b": 18},
            },
        }
    ]
}


@pytest.fixture
def workspace(tmp_path):
    """Model config plus a generated dataset on disk."""
    config = tmp_path / "model.json"
    config.write_text(json.dumps(MODEL_CONFIG))
    data = tmp_path / "data.csv"
    regions = tmp_path / "regions.csv"
    rc = main(
        [
            "generate",
            "--input", str(config),
            "--seed", "3",
            "--output", str(data),
            "--regions", str(regions),
        ]
    )
    assert rc == 0
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def data_args(ws):
    return ["--input", ws / "data.csv", "--regions", ws / "regions.csv"]


# ---------------------------------------------------------------- generate


def test_generate_matches_library(workspace):
    ds = parse_dataset(workspace / "data.csv", workspace / "regions.csv")
    expected = generate(model_from_config(MODEL_CONFIG), seed=3)
    assert serialize_dataset(ds) == serialize_dataset(expected)


def test_generate_byte_identical(workspace, tmp_path):
    config = workspace / "model.json"
    again = tmp_path / "again.csv"
    regs = tmp_path / "again_regions.csv"
    rc = run(["generate", "--input", config, "--seed", "3", "--output", again, "--regions", regs])
    assert rc == 0
    assert again.read_bytes() == (workspace / "data.csv").read_bytes()
    assert regs.read_bytes() == (workspace / "regions.csv").read_bytes()


# ---------------------------------------------------------------- validate


def test_validate(workspace, capsys):
    assert run(["validate", *data_args(workspace)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"] == {}
    assert doc["violations"] == []


# ---------------------------------------------------------------- histograms


def test_hist_json(workspace, capsys):
    rc = run(["hist", *data_args(workspace), "--party", "UR", "--bin-width", "0.01"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spec"]["bin_width"] == 0.01
    assert doc["spec"]["party"] == "UR"
    assert sum(b["weight"] for b in doc["bins"]) == 400


def test_hist_csv_and_svg(workspace, tmp_path):
    out_csv = tmp_path / "h.csv"
    rc = run(
        ["hist", *data_args(workspace), "--party", "UR", "--format", "csv", "--output", out_csv]
    )
    assert rc == 0
    assert out_csv.read_text().startswith("lo,hi,weight\n")

    out_svg = tmp_path / "h.svg"
    rc = run(
        ["hist", *data_args(workspace), "--party", "UR", "--format", "svg", "--output", out_svg]
    )
    assert rc == 0
    assert out_svg.read_text().startswith("<svg")


def test_turnout_hist(workspace, capsys):
    rc = run(["turnout-hist", *data_args(workspace), "--weight", "electors"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spec"]["weight_mode"] == "electors"


# ---------------------------------------------------------------- cloud


def test_cloud_and_compress(workspace, capsys):
    assert run(["cloud", *data_args(workspace), "--party", "UR"]) == 0
    cloud_doc = json.loads(capsys.readouterr().out)
    assert len(cloud_doc["points"]) == 400

    assert run(["compress", *data_args(workspace), "--party", "UR"]) == 0
    comp_doc = json.loads(capsys.readouterr().out)
    for pt in comp_doc["points"]:
        u, v = pt["coords"]
        assert v <= u + 1e-12


def test_cloud_svg(workspace, tmp_path):
    out = tmp_path / "cloud.svg"
    rc = run(
        ["cloud", *data_args(workspace), "--party", "UR", "--format", "svg", "--output", out]
    )
    assert rc == 0
    assert "<circle" in out.read_text()


def test_unequal_scales_flag_is_gone(workspace, capsys):
    for command in ("cloud", "compress"):
        with pytest.raises(SystemExit) as exc:
            run([command, *data_args(workspace), "--party", "UR", "--unequal-scales"])
        assert exc.value.code == 2


def test_modes(workspace, capsys):
    rc = run(["modes", *data_args(workspace), "--party", "UR", "--cell", "0.05"])
    assert rc == 0
    modes = json.loads(capsys.readouterr().out)
    assert modes, "expected at least one mode"
    assert all(len(m["location"]) == 2 for m in modes)


# ---------------------------------------------------------------- dents/bound


def test_dents_and_bound(workspace, tmp_path, capsys):
    drawn = tmp_path / "drawn.csv"
    manifest = tmp_path / "manifest.json"
    rc = run(
        [
            "inject", *data_args(workspace),
            "--injector-kind", "result_drawing",
            "--party", "UR",
            "--affected", "0.4",
            "--targets", "0.65,0.75",
            "--seed", "17",
            "--output", drawn,
            "--manifest", manifest,
        ]
    )
    assert rc == 0
    man = json.loads(manifest.read_text())
    assert man["injector"]["kind"] == "result_drawing"
    assert man["modified"]

    args = ["--input", drawn, "--regions", workspace / "regions.csv", "--party", "UR"]
    rc = run(["dents", *args, "--min-size", "400"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    flagged = {c["f"] for c in report["candidates"] if c["flagged"]}
    assert "13/20" in flagged

    rc = run(["bound", *args, "--weight", "party_votes"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["party"] == "UR"
    assert doc["bound"] > 0


def test_dents_custom_candidates(workspace, capsys):
    rc = run(
        [
            "dents", *data_args(workspace),
            "--party", "UR",
            "--candidates", "13/20,3/4",
        ]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["f"] for c in report["candidates"]] == ["13/20", "3/4"]


# ---------------------------------------------------------------- coinflip/mixture


def test_coinflip(workspace, capsys):
    rc = run(["coinflip", *data_args(workspace), "--p", "0.5", "--bin-width", "0.01"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert sum(b["weight"] for b in doc["bins"]) == pytest.approx(400, abs=1e-6)


def test_mixture(workspace, capsys):
    rc = run(["mixture", *data_args(workspace), "--p", "0.5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mean"] == 0.5
    assert doc["excess_kurtosis"] > 0  # many distinct sizes
    assert doc["kolmogorov_distance_to_gaussian"] > 0


# ---------------------------------------------------------------- regions


@pytest.fixture
def reference_files(tmp_path):
    ds = reference_dataset()
    data = tmp_path / "ref.csv"
    regs = tmp_path / "ref_regions.csv"
    data.write_text(serialize_dataset(ds))
    regs.write_text(serialize_regions(ds.regions))
    return data, regs


def test_region_report(reference_files, capsys):
    data, regs = reference_files
    rc = run(["region-report", "--input", data, "--regions", regs, "--party", "UR"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 84
    assert lines[1].startswith("chechenia,")


def test_decompose_default_exceptional_set(reference_files, capsys):
    data, regs = reference_files
    rc = run(["decompose", "--input", data, "--regions", regs, "--party", "UR"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["subset_votes"] < doc["total_votes"]
    assert 0 < doc["subset_fraction"] < 1


def test_decompose_explicit_set(reference_files, capsys):
    data, regs = reference_files
    rc = run(
        [
            "decompose", "--input", data, "--regions", regs,
            "--party", "UR", "--region-set", "mordovia,tatarstan",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["subset_votes"] > 0


def test_exclude_exceptional_changes_hist_total(reference_files, capsys):
    data, regs = reference_files
    run(["hist", "--input", data, "--regions", regs, "--party", "UR"])
    full = json.loads(capsys.readouterr().out)
    run(["hist", "--input", data, "--regions", regs, "--party", "UR", "--exclude-exceptional"])
    trimmed = json.loads(capsys.readouterr().out)
    total = lambda doc: sum(b["weight"] for b in doc["bins"])
    assert total(trimmed) == total(full) - 9
    assert trimmed["excluded"]["region_filtered"] == 9


# ---------------------------------------------------------------- exit codes


def test_data_error_returns_one(tmp_path, capsys):
    rc = run(["validate", "--input", tmp_path / "nope.csv", "--regions", tmp_path / "nope2.csv"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "hist"])
def test_count_beyond_int64_returns_one(workspace, capsys, command):
    data = workspace / "data.csv"
    header, first, *rest = data.read_text().splitlines(keepends=True)
    fields = first.split(",")
    fields[2] = "100000000000000000000"  # registered
    data.write_text("".join([header, ",".join(fields), *rest]))
    args = ["--party", "UR"] if command == "hist" else []
    assert run([command, *data_args(workspace), *args]) == 1
    assert "error: line 2: registered value 100000000000000000000 exceeds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "second_id, message",
    [
        (b"x" * 200_000, "error: line 3: field larger than field limit (131072)"),
        (b"s\xff", "error: line 3: invalid UTF-8 (invalid start byte, byte 0xff)"),
    ],
)
def test_unreadable_row_returns_one(workspace, capsys, second_id, message):
    data = workspace / "data.csv"
    header, first, second, *rest = data.read_bytes().splitlines(keepends=True)
    data.write_bytes(b"".join([header, first, second_id + second[second.index(b","):], *rest]))
    assert run(["validate", *data_args(workspace)]) == 1
    assert message in capsys.readouterr().err


def test_usage_error_returns_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hist", "--party", "UR"])  # missing required --input/--regions
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["dents", "bound"])
@pytest.mark.parametrize("bad", ["x/y", "13/20,", "1/0"])
def test_bad_candidates_is_a_usage_error(workspace, capsys, command, bad):
    with pytest.raises(SystemExit) as exc:
        run([command, *data_args(workspace), "--party", "UR", "--candidates", bad])
    assert exc.value.code == 2
    assert "--candidates" in capsys.readouterr().err


def test_unknown_party_returns_one(workspace, capsys):
    rc = run(["hist", *data_args(workspace), "--party", "NOBODY"])
    assert rc == 1
    assert "unknown party" in capsys.readouterr().err
