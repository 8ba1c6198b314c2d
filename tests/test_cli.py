"""End-to-end tests of the command-line interface."""

import hashlib
import json
import os

import pytest

from interperc.cli import main


def run(tmp_path, monkeypatch, argv, expect=0):
    tmp_path.mkdir(parents=True, exist_ok=True)
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    assert code == expect, f"exit {code} for {argv}"
    return tmp_path


def read(base, rel):
    with open(os.path.join(base, rel), encoding="utf-8") as fh:
        return fh.read()


def manifest(base, out="out"):
    return json.loads(read(base, os.path.join(out, "manifest.json")))


# ---------------------------------------------------------------------------
# gen


@pytest.mark.parametrize("argv", [
    ["gen", "--model", "poisson", "--intensity", "2", "--seed", "7",
     "--window=-5,5"],
    ["gen", "--model", "periodic", "--scale", "0.5", "--shift", "0.1",
     "--seed", "7", "--window=0,4"],
    ["gen", "--model", "renewal", "--level", "3", "--seed", "7",
     "--window=-2,2"],
    ["gen", "--model", "boolean", "--arc-length", "0.5", "--seed", "7",
     "--window=0,20"],
])
def test_gen_models(tmp_path, monkeypatch, argv):
    base = run(tmp_path, monkeypatch, argv)
    text = read(base, "out/set.csv")
    assert text.startswith("# model=")
    m = manifest(base)
    assert m["command"] == "gen"
    assert "set.csv" in m["outputs"]
    assert m["config"]["seed"] == "7"
    assert os.path.exists(base / "out" / "manifest.log")


@pytest.mark.parametrize("argv,name,digest", [
    (["gen", "--model", "poisson", "--intensity", "2", "--seed", "7", "--window=-5,5"],
     "set.csv", "352157f0b635b1eed2bba679c3ccecf2718103cdf83f0475d8741016bf7f1b7a"),
    (["gen", "--model", "periodic", "--scale", "0.5", "--shift", "0.1", "--seed", "7",
      "--window=0,4"],
     "set.csv", "172caaa7fa18c7ad28011d3e6d1273854e4482849bc07984117a53c8d9bcb42b"),
    (["gen", "--model", "periodic-interval", "--scale", "0.7", "--interval", "0,0.3",
      "--seed", "7", "--window=-3,4"],
     "set.csv", "6d1ad1e642ca37b12a361ccb78ddbce9a7862c2f8ce151657ecf969f7b1598b8"),
    (["gen", "--model", "renewal", "--level", "3", "--seed", "7", "--window=-2,2"],
     "set.csv", "598c2f72eb07f6d8dd93099a2a5643783030ea420378c595ed4b0423f8e7da82"),
    (["gen", "--model", "boolean", "--arc-length", "0.5", "--seed", "7", "--window=0,20"],
     "set.csv", "b19fe3d734ed33f2767232942fda59041c068136663aed2981840f45b9986c8a"),
    (["interpolate", "--method", "monotone", "--seed", "3", "--count", "10"],
     "function.csv", "aae186493e8d47800fa75f74ed1704d6592ae164f44dc3634b1e90a9eb83a4e9"),
    (["interpolate", "--method", "bv-min", "--seed", "3", "--count", "10"],
     "trace.csv", "bfeb87cd177c0f3e14c8bd68801e60290b2e42f8a6a86072ea1fa692e8614b58"),
    (["sweep", "--k", "1", "--width", "12", "--lams", "0.5:3:4", "--trials", "40",
      "--seed", "10"],
     "sweep.csv", "c4c37775cb44109c11e107e85f69f6c3be2d520d42a539ac21c7fe7f70ed4f90"),
    (["lambda-c", "--k", "1", "--widths", "8,16", "--trials", "40", "--seed", "4"],
     "evals.csv", "e350f7e476fdb7ad84dfa9d69c6e0698b802d0357c1c702dbb51a01525039328"),
    (["interpolate", "--method", "continuous", "--seed", "3", "--count", "10"],
     "function.csv", "3c57ecb829a47025c88af25d50380de55c95048f9f7489d0da26ab8443b4e4e3"),
    (["interpolate", "--method", "continuous", "--seed", "3", "--count", "10"],
     "levels.csv", "683d5b814e60560c9c29e702d1ea9835dd2618cacedb19e9f594a09e47570d78"),
    (["interpolate", "--method", "bv-greedy", "--seed", "3", "--count", "10"],
     "trace.csv", "371172eb7f7006db8c7cdd887e3ee208a4a92f850cea555d757f0ced6794be5d"),
    (["interpolate", "--method", "bv-trace", "--seed", "3", "--count", "5",
      "--signs", "+-+-+"],
     "trace.csv", "6ef226317b55b7140b054a9aa589c14b94dd56dbd4cf1a68898e514cfbb569ba"),
    (["lipschitz", "--k", "1", "--width", "30", "--intensity", "1.5", "--seed", "2"],
     "path.csv", "720e5bcc185a53e8713a8e6ff66e14b1a57dc10db7442a69b950e44281cdd00a"),
    (["lipschitz", "--k", "1", "--width", "30", "--intensity", "0.6", "--seed", "2"],
     "path.csv", "9c6536d38fa37da58fac066342747e6d20fdace12ab5b287cf04506f2afe95b0"),
    (["lambda-c", "--k", "1", "--widths", "8,16", "--trials", "40", "--seed", "4"],
     "brackets.csv", "9bfefe885067c94fe94157e9e2355b4afceab751ae8468848b459544a7ed81d3"),
    (["criteria", "--kind", "reciprocal", "--family", "power:1,1"],
     "series.csv", "d34af5743191b842fa523b2eebd5306edfdafd0ed264603bb6ae16981eb24128"),
    (["subset", "--mu", "power:1,-1", "--target", "3", "--phi", "dyadic-reverse",
      "--probe-budget", "2000"],
     "blocks.csv", "3ec69d9b911dc46a88e815a97b623e51883fa3d5024339b6df4da934f756e2a1"),
    (["circle-cover", "--arcs", "0.3@0.1,0.25@0.55,0.3@0.9", "--svg"],
     "uncovered.csv", "dd4e22598fbb89c2829f17e082f0243e4a4f931af1b8d41e8b9f05031a4a206f"),
    (["circle-cover", "--arcs", "0.3@0.1,0.25@0.55,0.3@0.9", "--svg"],
     "cover.svg", "cff2b20002ba67da18127ffa9017d3a7819e7ab5341f83b404de95ac6f4eb93c"),
    (["rotate-scan", "--count", "6", "--seed", "5", "--times", "0:1:11"],
     "scan.csv", "158bfe4a352c914e590afe55216637cf89aecfb34dc98f5e5101524450b4594b"),
    (["rotate-scan", "--count", "6", "--seed", "5", "--times", "0:1:11"],
     "windows.csv", "ead8cfbf46cdedc2dac107748f44eb54fd39c7b0f44aeb49b2f08986ac215018"),
    (["brownian", "--seed", "4", "--depth", "9"],
     "path.csv", "b06b445023da2ab504311b8a14f48583e174c011bafd9fc525f7b6d04fdf9197"),
], ids=["poisson", "periodic", "periodic-interval", "renewal", "boolean",
        "interpolate-monotone", "interpolate-bv-min", "sweep", "lambda-c",
        "interpolate-continuous", "interpolate-continuous-levels",
        "interpolate-bv-greedy", "interpolate-bv-trace", "lipschitz",
        "lipschitz-infeasible", "lambda-c-brackets", "criteria", "subset",
        "circle-cover", "circle-cover-svg", "rotate-scan", "rotate-scan-windows",
        "brownian"])
def test_gen_csv_digest_pinned(tmp_path, monkeypatch, argv, name, digest):
    """Output bytes are pinned for fixed seeds (numpy 2.x Philox): gen set.csv
    per model, and every CLI table, one or more per command."""
    base = run(tmp_path, monkeypatch, argv)
    with open(base / "out" / name, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest


def test_gen_svg_flag(tmp_path, monkeypatch):
    base = run(tmp_path, monkeypatch,
               ["gen", "--model", "poisson", "--seed", "1", "--window=0,5",
                "--svg"])
    svg = read(base, "out/set.svg")
    assert svg.startswith("<?xml") and "<svg" in svg


def test_rerun_removes_only_stale_listed_outputs(tmp_path, monkeypatch):
    argv = ["gen", "--model", "poisson", "--seed", "1", "--window=0,5"]
    base = run(tmp_path, monkeypatch, argv + ["--svg"])
    assert os.path.exists(base / "out" / "set.svg")
    (base / "out" / "notes.txt").write_text("mine\n")
    (base / "keep.txt").write_text("mine\n")
    # names with a directory part, "." and ".." are never removed
    m = manifest(base)
    m["outputs"].update({"../keep.txt": "", ".": "", "..": ""})
    (base / "out" / "manifest.json").write_text(json.dumps(m))
    run(tmp_path, monkeypatch, argv)
    assert not os.path.exists(base / "out" / "set.svg")
    assert os.path.exists(base / "out" / "notes.txt")
    assert os.path.exists(base / "keep.txt")
    assert sorted(manifest(base)["outputs"]) == ["set.csv"]


def test_gen_missing_required(tmp_path, monkeypatch, capsys):
    run(tmp_path, monkeypatch, ["gen", "--model", "poisson", "--seed", "1"],
        expect=1)
    assert "required" in capsys.readouterr().err


def test_gen_bad_window(tmp_path, monkeypatch):
    run(tmp_path, monkeypatch,
        ["gen", "--model", "poisson", "--seed", "1", "--window=5,1"], expect=1)
    assert not os.path.exists(tmp_path / "out" / "set.csv")


def test_gen_custom_out_dir(tmp_path, monkeypatch):
    base = run(tmp_path, monkeypatch,
               ["gen", "--model", "poisson", "--seed", "2", "--window=0,3",
                "--out", "elsewhere"])
    assert os.path.exists(base / "elsewhere" / "set.csv")


# ---------------------------------------------------------------------------
# config files


def test_config_file_merge(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = poisson\nintensity = 3\nseed = 9\nwindow = 0,6\n"
                   "# a comment\n")
    base = run(tmp_path, monkeypatch, ["gen", "--config", str(cfg)])
    assert "intensity=3" in read(base, "out/set.csv").splitlines()[0]


def test_cli_overrides_config(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = poisson\nintensity = 3\nseed = 9\nwindow = 0,6\n")
    base = run(tmp_path, monkeypatch,
               ["gen", "--config", str(cfg), "--intensity", "5"])
    assert "intensity=5" in read(base, "out/set.csv").splitlines()[0]
    assert manifest(base)["config"]["intensity"] == "5"


def test_config_unknown_key_rejected(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("modle = poisson\n")
    run(tmp_path, monkeypatch, ["gen", "--config", str(cfg)], expect=1)
    assert "unknown config key" in capsys.readouterr().err


def test_config_syntax_error(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just some words\n")
    run(tmp_path, monkeypatch, ["gen", "--config", str(cfg)], expect=1)


# ---------------------------------------------------------------------------
# interpolate


@pytest.mark.parametrize("method,csv_name", [
    ("continuous", "function.csv"),
    ("monotone", "function.csv"),
    ("bv-greedy", "trace.csv"),
    ("bv-min", "trace.csv"),
])
def test_interpolate_methods(tmp_path, monkeypatch, method, csv_name):
    base = run(tmp_path, monkeypatch,
               ["interpolate", "--method", method, "--count", "5",
                "--seed", "3"])
    rows = read(base, f"out/{csv_name}").splitlines()
    assert rows[0].startswith(("x,y", "index,x"))
    assert len(rows) >= 6


def test_interpolate_continuous_levels(tmp_path, monkeypatch):
    base = run(tmp_path, monkeypatch,
               ["interpolate", "--method", "continuous", "--count", "6",
                "--seed", "4", "--intensities", "const:4", "--svg"])
    lv = read(base, "out/levels.csv").splitlines()
    assert lv[0] == "level,lines_added,sup_change"
    assert sum(int(r.split(",")[1]) for r in lv[1:]) == 6
    assert "<svg" in read(base, "out/function.svg")


def test_interpolate_bv_trace_signs(tmp_path, monkeypatch):
    base = run(tmp_path, monkeypatch,
               ["interpolate", "--method", "bv-trace", "--count", "4",
                "--seed", "5", "--signs", "+-+-"])
    rows = read(base, "out/trace.csv").splitlines()
    assert len(rows) == 6  # header, g_0, then one row per line
    assert [r.split(",")[2] for r in rows[2:]] == ["+1", "-1", "+1", "-1"]


def test_interpolate_bv_trace_needs_signs(tmp_path, monkeypatch):
    run(tmp_path, monkeypatch,
        ["interpolate", "--method", "bv-trace", "--count", "4", "--seed", "5"],
        expect=1)


def test_interpolate_power_family(tmp_path, monkeypatch):
    # intensities n^2 make the monotone end value small
    base = run(tmp_path, monkeypatch,
               ["interpolate", "--method", "monotone", "--count", "20",
                "--seed", "6", "--intensities", "power:1,2"])
    summary = json.loads(read(base, "out/summary.json"))
    assert 0.0 < summary["end_value"] < 6.0


# ---------------------------------------------------------------------------
# strips and thresholds


def test_lipschitz_run(tmp_path, monkeypatch):
    base = run(tmp_path, monkeypatch,
               ["lipschitz", "--k", "2", "--width", "12", "--intensity", "1.5",
                "--seed", "8"])
    summary = json.loads(read(base, "out/summary.json"))
    rows = read(base, "out/path.csv").splitlines()
    if summary["feasible"]:
        assert len(rows) == 13
        ys = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(abs(b - a) <= 2.0 + 1e-12 for a, b in zip(ys, ys[1:]))
    else:
        assert len(rows) == 1


def test_sweep_reproducible(tmp_path, monkeypatch):
    argv = ["sweep", "--k", "1", "--width", "8", "--lams", "0.5:3:3",
            "--trials", "30", "--seed", "10"]
    a = run(tmp_path / "a", monkeypatch, argv)
    b = run(tmp_path / "b", monkeypatch, argv)
    assert read(a, "out/sweep.csv") == read(b, "out/sweep.csv")
    rows = read(a, "out/sweep.csv").splitlines()
    assert rows[0] == "lam,successes,trials,p_hat,ci_lo,ci_hi"
    assert len(rows) == 4


def test_sweep_monotone_trend(tmp_path, monkeypatch):
    base = run(tmp_path, monkeypatch,
               ["sweep", "--k", "1", "--width", "10", "--lams", "0.2,4.0",
                "--trials", "60", "--seed", "11"])
    rows = read(base, "out/sweep.csv").splitlines()[1:]
    ps = [float(r.split(",")[3]) for r in rows]
    assert ps[0] < ps[1]


def test_lambda_c_small(tmp_path, monkeypatch):
    base = run(tmp_path, monkeypatch,
               ["lambda-c", "--k", "1", "--widths", "8", "--trials", "60",
                "--tol", "0.5", "--corridor-height", "10", "--seed", "12"])
    summary = json.loads(read(base, "out/summary.json"))
    assert summary["bracket_lo"] < summary["midpoint"] < summary["bracket_hi"]
    assert read(base, "out/evals.csv").count("\n") >= 3


def test_lambda_c_no_bracket_is_runtime_error(tmp_path, monkeypatch, capsys):
    run(tmp_path, monkeypatch,
        ["lambda-c", "--k", "1", "--widths", "6", "--trials", "30",
         "--lam-lo", "4", "--lam-hi", "6", "--corridor-height", "8",
         "--seed", "13"], expect=2)
    assert "BracketNotFound" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out" / "summary.json")


def test_lambda_c_range_needs_both_ends(tmp_path, monkeypatch):
    run(tmp_path, monkeypatch,
        ["lambda-c", "--k", "1", "--widths", "6", "--lam-lo", "0.5",
         "--seed", "13"], expect=1)


# ---------------------------------------------------------------------------
# series, subsets, coverings


def test_criteria_family(tmp_path, monkeypatch):
    base = run(tmp_path, monkeypatch,
               ["criteria", "--kind", "reciprocal", "--family", "power:1,1",
                "--cutoffs", "10,100"])
    rows = read(base, "out/series.csv").splitlines()
    assert rows[1].startswith("10,") and rows[2].startswith("100,")
    summary = json.loads(read(base, "out/summary.json"))
    assert summary["looks_divergent"] is True


def test_criteria_explicit_terms(tmp_path, monkeypatch):
    base = run(tmp_path, monkeypatch,
               ["criteria", "--kind", "wm", "--terms", "1,2,3", "--eps", "0.5",
                "--cutoffs", "3"])
    rows = read(base, "out/series.csv").splitlines()
    assert len(rows) == 2


def test_criteria_family_xor_terms(tmp_path, monkeypatch):
    run(tmp_path, monkeypatch,
        ["criteria", "--kind", "wm", "--eps", "0.5", "--cutoffs", "3"],
        expect=1)
    run(tmp_path, monkeypatch,
        ["criteria", "--kind", "wm", "--terms", "1,2", "--family", "const:1",
         "--eps", "0.5", "--cutoffs", "2"], expect=1)


def test_subset_identity(tmp_path, monkeypatch):
    base = run(tmp_path, monkeypatch,
               ["subset", "--mu", "power:1,-1", "--target", "2.5"])
    summary = json.loads(read(base, "out/summary.json"))
    assert summary["total"] >= 2.5
    rows = read(base, "out/blocks.csv").splitlines()
    assert len(rows) == summary["n_blocks"] + 1


def test_subset_dyadic_reverse(tmp_path, monkeypatch):
    base = run(tmp_path, monkeypatch,
               ["subset", "--mu", "power:1,-1", "--target", "2",
                "--phi", "dyadic-reverse"])
    summary = json.loads(read(base, "out/summary.json"))
    assert summary["total"] >= 2.0
    assert summary["n_members"] >= summary["n_blocks"]


def test_subset_unknown_phi(tmp_path, monkeypatch):
    run(tmp_path, monkeypatch,
        ["subset", "--mu", "power:1,-1", "--target", "1", "--phi", "spiral"],
        expect=1)


def test_circle_cover_explicit(tmp_path, monkeypatch):
    base = run(tmp_path, monkeypatch,
               ["circle-cover", "--arcs", "0.25@0.1,0.5@0.4"])
    summary = json.loads(read(base, "out/summary.json"))
    assert summary["n_arcs"] == 2
    assert 0.0 <= summary["uncovered_measure"] <= 1.0
    rows = read(base, "out/uncovered.csv").splitlines()
    assert rows[0] == "start,end"


def test_circle_cover_sampled(tmp_path, monkeypatch):
    base = run(tmp_path, monkeypatch,
               ["circle-cover", "--count", "30", "--seed", "14", "--svg"])
    summary = json.loads(read(base, "out/summary.json"))
    assert summary["n_arcs"] == 30
    assert "<svg" in read(base, "out/cover.svg")


def test_circle_cover_arcs_xor_count(tmp_path, monkeypatch):
    run(tmp_path, monkeypatch, ["circle-cover"], expect=1)
    run(tmp_path, monkeypatch,
        ["circle-cover", "--arcs", "0.2@0", "--count", "5"], expect=1)


def test_rotate_scan(tmp_path, monkeypatch):
    base = run(tmp_path, monkeypatch,
               ["rotate-scan", "--arcs", "0.4@0.0,0.3@0.5",
                "--speeds-list", "1,0", "--times", "0:1:5"])
    rows = read(base, "out/scan.csv").splitlines()
    assert rows[0] == "t,uncovered_measure,n_uncovered_components"
    assert len(rows) == 6
    summary = json.loads(read(base, "out/summary.json"))
    assert summary["max_uncovered"] <= 1.0


def test_brownian_cmd(tmp_path, monkeypatch):
    base = run(tmp_path, monkeypatch,
               ["brownian", "--seed", "15", "--depth", "3", "--svg"])
    rows = read(base, "out/path.csv").splitlines()
    assert len(rows) == 10  # header plus 2^3 + 1 grid points
    summary = json.loads(read(base, "out/summary.json"))
    assert summary["depth"] == 3


# ---------------------------------------------------------------------------
# selftest and reproducibility


def test_selftest_passes(tmp_path, monkeypatch, capsys):
    run(tmp_path, monkeypatch, ["selftest"])
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "[FAIL]" not in out


def test_selftest_json(tmp_path, monkeypatch, capsys):
    run(tmp_path, monkeypatch, ["selftest", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert all(c["ok"] for c in report["checks"])


def test_no_command_prints_usage(tmp_path, monkeypatch):
    run(tmp_path, monkeypatch, [], expect=1)


def test_unknown_flag(tmp_path, monkeypatch):
    run(tmp_path, monkeypatch,
        ["gen", "--model", "poisson", "--seed", "1", "--window=0,1",
         "--frobnicate"], expect=1)


@pytest.mark.parametrize("argv", [
    ["gen", "--model", "renewal", "--level", "2", "--seed", "21",
     "--window=-4,4", "--svg"],
    ["interpolate", "--method", "bv-min", "--count", "6", "--seed", "22"],
    ["criteria", "--kind", "shepp", "--family", "power:1,-1",
     "--cutoffs", "100,1000"],
    ["rotate-scan", "--count", "8", "--seed", "23", "--times", "0:1:4"],
    ["brownian", "--seed", "24", "--depth", "4"],
])
def test_byte_reproducibility(tmp_path, monkeypatch, argv):
    """Same command, two fresh working directories, identical bytes."""
    a = run(tmp_path / "first", monkeypatch, argv)
    b = run(tmp_path / "second", monkeypatch, argv)
    names = sorted(os.listdir(a / "out"))
    assert names == sorted(os.listdir(b / "out"))
    for name in names:
        if name == "manifest.log":
            continue  # wall time lives here, deliberately outside the hashes
        assert read(a, f"out/{name}") == read(b, f"out/{name}"), name


def test_manifest_hashes_match_contents(tmp_path, monkeypatch):
    import hashlib

    base = run(tmp_path, monkeypatch,
               ["gen", "--model", "poisson", "--seed", "30", "--window=0,4"])
    m = manifest(base)
    for name, digest in m["outputs"].items():
        body = read(base, f"out/{name}")
        assert hashlib.sha256(body.encode()).hexdigest() == digest
