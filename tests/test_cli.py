import hashlib
import json
import os
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest

import racekit as rk
from racekit.cli import main


def _write_csv(points, path):
    np.savetxt(path, points, delimiter=",", fmt="%.17g")  # float64 round trips exactly


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(0)
    _write_csv(rng.standard_normal((400, 2)), tmp_path / "data.csv")
    _write_csv(rng.standard_normal((6, 2)), tmp_path / "queries.csv")
    a = np.hstack([rng.normal((3, 0), 1.0, (150, 2)), np.zeros((150, 1))])
    b = np.hstack([rng.normal((-3, 0), 1.0, (150, 2)), np.ones((150, 1))])
    _write_csv(np.vstack([a, b]), tmp_path / "train.csv")
    x = np.linspace(-1, 1, 64)
    _write_csv(np.column_stack([x, 2 * x]), tmp_path / "reg.csv")
    return tmp_path


def _run(capsys, argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def _child(code, *argv, stdin: bytes | None = None) -> bytes:
    """Run ``code`` in a child Python that imports this racekit; its stdout."""
    src = os.path.dirname(os.path.dirname(rk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)], input=stdin,
                          env=env, capture_output=True, check=True).stdout


def test_importing_racekit_loads_no_scipy():
    _child("import sys, racekit, racekit.cli; "
           "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
           "assert not loaded, loaded[:5]")


def test_build_info_and_manifest(workdir, capsys):
    out_path = workdir / "s.race"
    code, _, _ = _run(capsys, ["build", "--input", workdir / "data.csv",
                               "--rows", 100, "--range", 64,
                               "--output", out_path])
    assert code == 0
    manifest = json.loads((workdir / "s.race.manifest.json").read_text())
    assert manifest["command"] == "build"
    assert manifest["rows"] == 100 and manifest["n_points"] == 400

    code, out, _ = _run(capsys, ["info", "--sketch", out_path])
    assert code == 0
    fields = dict(line.split(": ") for line in out.strip().splitlines())
    assert fields["rows"] == "100"
    assert fields["range"] == "64"
    assert fields["inserted"] == "400"
    assert fields["kind"] == "srp"
    assert fields["bytes"] == str(out_path.stat().st_size)


def test_info_reports_the_size_of_a_piped_sketch(workdir, capsys):
    # a pipe has no size; info reports the one size load accepts, 48 + 8 R W
    path = workdir / "s.race"
    _run(capsys, ["build", "--input", workdir / "data.csv", "--rows", 100, "--range", 64,
                  "--output", path])
    piped = _child("import sys; from racekit.cli import main; sys.exit(main(sys.argv[1:]))",
                   "info", "--sketch", "/dev/stdin", stdin=path.read_bytes())
    _, want, _ = _run(capsys, ["info", "--sketch", path])
    assert piped.decode() == want and f"bytes: {48 + 8 * 100 * 64}\n" in want


def test_build_defaults_follow_documented_band(workdir, capsys):
    out_path = workdir / "defaults.race"
    code, _, _ = _run(capsys, ["build", "--input", workdir / "data.csv",
                               "--output", out_path])
    assert code == 0
    sk = rk.load(out_path)
    assert sk.rows == 1000 and sk.width == 500


def test_missing_input_is_usage_error(workdir, capsys):
    code, _, _ = _run(capsys, ["build", "--output", workdir / "x.race"])
    assert code == 2


def test_nonexistent_input_is_data_error(workdir, capsys):
    code, _, _ = _run(capsys, ["build", "--input", workdir / "missing.csv",
                               "--output", workdir / "x.race"])
    assert code == 3


def test_empty_input_is_data_error(workdir, capsys):
    (workdir / "empty.csv").write_text("")
    code, _, err = _run(capsys, ["build", "--input", workdir / "empty.csv",
                                 "--output", workdir / "x.race"])
    assert code == 3
    assert "no data rows" in err


def test_identical_flags_are_byte_identical(workdir, capsys):
    args = ["build", "--input", workdir / "data.csv", "--rows", 50,
            "--range", 32, "--seed", 9]
    _run(capsys, args + ["--output", workdir / "one.race"])
    _run(capsys, args + ["--output", workdir / "two.race"])
    assert (workdir / "one.race").read_bytes() == (workdir / "two.race").read_bytes()


def test_threaded_build_writes_the_same_bytes(workdir, capsys):
    args = ["build", "--input", workdir / "data.csv", "--rows", 50,
            "--range", 32, "--seed", 9]
    assert _run(capsys, args + ["--threads", 1, "--output", workdir / "t1.race"])[0] == 0
    assert _run(capsys, args + ["--threads", 2, "--output", workdir / "t2.race"])[0] == 0
    assert (workdir / "t1.race").read_bytes() == (workdir / "t2.race").read_bytes()
    code, _, err = _run(capsys, args + ["--threads", 0, "--output", workdir / "t0.race"])
    assert code == 2
    assert "threads" in err


def test_build_threads_default_to_the_available_cpus_with_the_same_bytes(
        workdir, capsys, monkeypatch):
    args = ["build", "--input", workdir / "data.csv", "--rows", 50,
            "--range", 32, "--seed", 9]
    assert _run(capsys, args + ["--threads", 1, "--output", workdir / "t1.race"])[0] == 0
    assert _run(capsys, args + ["--output", workdir / "default.race"])[0] == 0
    manifest = json.loads((workdir / "default.race.manifest.json").read_text())
    assert manifest["threads"] == len(os.sched_getaffinity(0))
    monkeypatch.setattr(rk.cli, "_available_cpus", lambda: 3)  # threaded on any machine
    assert _run(capsys, args + ["--output", workdir / "three.race"])[0] == 0
    assert json.loads((workdir / "three.race.manifest.json").read_text())["threads"] == 3
    one = (workdir / "t1.race").read_bytes()
    assert (workdir / "default.race").read_bytes() == one
    assert (workdir / "three.race").read_bytes() == one


def test_privatize_budget_file_blocks_second_release(workdir, capsys):
    _run(capsys, ["build", "--input", workdir / "data.csv", "--rows", 40,
                  "--range", 32, "--output", workdir / "s.race"])
    args = ["privatize", "--sketch", workdir / "s.race", "--epsilon", 1.0,
            "--seed", 5, "--budget", workdir / "b.json"]
    code, _, _ = _run(capsys, args + ["--output", workdir / "p1.race"])
    assert code == 0
    code, _, err = _run(capsys, args + ["--output", workdir / "p2.race"])
    assert code == 4
    assert "consumed" in err


def test_privatize_budget_file_states_and_exit_codes(workdir, capsys):
    _run(capsys, ["build", "--input", workdir / "data.csv", "--rows", 40,
                  "--range", 32, "--output", workdir / "s.race"])
    budget = workdir / "b.json"
    args = ["privatize", "--sketch", workdir / "s.race", "--epsilon", 1.0,
            "--seed", 5, "--budget", budget, "--output", workdir / "p.race"]
    budget.write_text(json.dumps({"epsilon": 2.0, "consumed": False}))
    assert _run(capsys, args)[0] == 2  # epsilon mismatch
    budget.write_text(json.dumps({"epsilon": 1.0, "consumed": False}))
    assert _run(capsys, args)[0] == 0
    assert json.loads(budget.read_text()) == {"epsilon": 1.0, "consumed": True}
    assert _run(capsys, args)[0] == 4
    budget.write_text("not json")  # unreadable counts as consumed
    assert _run(capsys, args)[0] == 4
    (workdir / "b.json.claim").unlink()  # only the file's content can refuse now
    (workdir / "p.race").unlink()
    for text in ("[]", "7", "null", '"x"'):  # JSON, but not an object: counts as consumed
        budget.write_text(text)
        code, _, err = _run(capsys, args)
        assert code == 4 and "consumed" in err
        assert not (workdir / "p.race").exists()
        assert not list(workdir.glob("p.race.*.tmp"))  # nor a staged release


def test_privatize_to_a_missing_directory_spends_no_budget(workdir, capsys):
    _run(capsys, ["build", "--input", workdir / "data.csv", "--rows", 40,
                  "--range", 32, "--output", workdir / "s.race"])
    budget = workdir / "b.json"
    unspent = json.dumps({"epsilon": 1.0, "consumed": False})
    budget.write_text(unspent)
    args = ["privatize", "--sketch", workdir / "s.race", "--epsilon", 1.0,
            "--seed", 5, "--budget", budget]
    code, _, err = _run(capsys, args + ["--output", workdir / "missing" / "p.race"])
    assert code == 3 and "missing" in err
    assert budget.read_text() == unspent
    assert not (workdir / "b.json.claim").exists()
    code, _, _ = _run(capsys, args + ["--output", workdir / "p.race"])  # the retry
    assert code == 0
    assert rk.load(workdir / "p.race").privatized
    assert json.loads(budget.read_text()) == {"epsilon": 1.0, "consumed": True}
    assert sorted(p.name for p in workdir.glob("p.race*")) == ["p.race", "p.race.manifest.json"]


def test_privatize_to_a_missing_manifest_directory_spends_no_budget(workdir, capsys):
    # the manifest used to be written after the release, so this exited 3 with
    # the budget spent, and the retry exited 4
    _run(capsys, ["build", "--input", workdir / "data.csv", "--rows", 40,
                  "--range", 32, "--output", workdir / "s.race"])
    budget = workdir / "b.json"
    unspent = json.dumps({"epsilon": 1.0, "consumed": False})
    budget.write_text(unspent)
    args = ["privatize", "--sketch", workdir / "s.race", "--epsilon", 1.0,
            "--seed", 5, "--budget", budget, "--output", workdir / "p.race"]
    code, _, err = _run(capsys, args + ["--manifest", workdir / "missing" / "m.json"])
    assert code == 3 and "missing" in err
    assert budget.read_text() == unspent
    assert not (workdir / "b.json.claim").exists()
    assert not list(workdir.glob("p.race*"))  # no release, staged or renamed
    code, _, _ = _run(capsys, args + ["--manifest", workdir / "m.json"])  # the retry
    assert code == 0
    assert rk.load(workdir / "p.race").privatized
    assert json.loads(budget.read_text()) == {"epsilon": 1.0, "consumed": True}
    assert json.loads((workdir / "m.json").read_text())["command"] == "privatize"
    assert sorted(p.name for p in workdir.glob("*.tmp")) == []


@pytest.mark.parametrize("unconsumed_file", [False, True], ids=["new-file", "unconsumed-file"])
def test_concurrent_privatize_runs_release_once(workdir, capsys, unconsumed_file):
    _run(capsys, ["build", "--input", workdir / "data.csv", "--rows", 40,
                  "--range", 32, "--output", workdir / "s.race"])
    budget = workdir / "b.json"
    if unconsumed_file:
        budget.write_text(json.dumps({"epsilon": 1.0, "consumed": False}))
    n = 8
    codes = [None] * n
    start = threading.Barrier(n)

    def release(i):
        start.wait()
        codes[i] = main(["privatize", "--sketch", str(workdir / "s.race"),
                         "--epsilon", "1.0", "--budget", str(budget),
                         "--output", str(workdir / f"p{i}.race")])

    threads = [threading.Thread(target=release, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(codes) == [0] + [4] * (n - 1)
    assert sum((workdir / f"p{i}.race").exists() for i in range(n)) == 1
    assert json.loads(budget.read_text()) == {"epsilon": 1.0, "consumed": True}


@pytest.mark.parametrize("flags,message", [
    (["--epsilon", 1e-300], "noise scale"),
    (["--epsilon", 1.0, "--seed", -1], "seed"),
], ids=["epsilon=1e-300", "seed=-1"])
def test_privatize_invalid_noise_is_usage_error_and_spends_nothing(workdir, capsys,
                                                                   flags, message):
    _run(capsys, ["build", "--input", workdir / "data.csv", "--rows", 40,
                  "--range", 32, "--output", workdir / "s.race"])
    code, _, err = _run(capsys, ["privatize", "--sketch", workdir / "s.race",
                                 "--budget", workdir / "b.json",
                                 "--output", workdir / "p.race"] + flags)
    assert code == 2 and message in err
    assert not any((workdir / name).exists() for name in ("b.json", "b.json.claim", "p.race"))


def test_privatize_refuses_counts_in_unreachable_columns(workdir, capsys):
    # a crafted clean file: one record of row 0 moved to column 40, which no
    # depth-4 code reaches, so the row sums still match the inserted count
    _run(capsys, ["build", "--input", workdir / "data.csv", "--rows", 40,
                  "--range", 64, "--output", workdir / "s.race"])
    built = rk.load(workdir / "s.race")
    table = np.zeros((40, 64), np.int64)
    table[:, :16] = built.counts
    sk = rk.RaceSketch(table, built.family, inserted=built.inserted)
    sk.counts[0, int(np.argmax(sk.counts[0]))] -= 1
    sk.counts[0, 40] += 1
    assert sk.row_sums_consistent()
    rk.save(sk, workdir / "crafted.race")
    assert rk.load(workdir / "crafted.race").counts.shape == (40, 64)
    with pytest.raises(rk.InvalidParameterError, match="refusing to release"):
        rk.privatize(rk.load(workdir / "crafted.race"), rk.PrivacyBudget(1.0), rng_seed=0)
    budget = workdir / "b.json"
    budget.write_text(json.dumps({"epsilon": 1.0, "consumed": False}))
    code, _, err = _run(capsys, ["privatize", "--sketch", workdir / "crafted.race",
                                 "--epsilon", 1.0, "--budget", budget,
                                 "--output", workdir / "p.race"])
    assert code == 2 and "refusing to release" in err
    assert json.loads(budget.read_text()) == {"epsilon": 1.0, "consumed": False}
    assert not (workdir / "p.race").exists()


def test_privatize_then_mutating_commands_fail_with_contract_code(workdir, capsys):
    _run(capsys, ["build", "--input", workdir / "data.csv", "--rows", 40,
                  "--range", 32, "--output", workdir / "s.race"])
    _run(capsys, ["privatize", "--sketch", workdir / "s.race", "--epsilon", 1.0,
                  "--seed", 5, "--output", workdir / "p.race"])
    code, _, _ = _run(capsys, ["merge", "--inputs", workdir / "p.race",
                               workdir / "s.race", "--output", workdir / "m.race"])
    assert code == 4
    code, _, _ = _run(capsys, ["privatize", "--sketch", workdir / "p.race",
                               "--epsilon", 1.0, "--output", workdir / "pp.race"])
    assert code == 4


def test_privatize_writes_exactly_the_library_release(workdir, capsys):
    _run(capsys, ["build", "--input", workdir / "data.csv", "--rows", 100, "--range", 64,
                  "--output", workdir / "s.race"])
    code, _, _ = _run(capsys, ["privatize", "--sketch", workdir / "s.race", "--epsilon", 0.5,
                               "--seed", 11, "--output", workdir / "p.race"])
    assert code == 0
    want = rk.privatize(rk.load(workdir / "s.race"), rk.PrivacyBudget(0.5), rng_seed=11)
    assert (workdir / "p.race").read_bytes() == rk.serialize(want)


def test_merge_equals_build_on_union(workdir, capsys):
    pts = rk.load_csv(workdir / "data.csv").points
    _write_csv(pts[:250], workdir / "part_a.csv")
    _write_csv(pts[250:], workdir / "part_b.csv")
    common = ["--rows", 64, "--range", 32, "--seed", 3]
    _run(capsys, ["build", "--input", workdir / "part_a.csv",
                  "--output", workdir / "a.race"] + common)
    _run(capsys, ["build", "--input", workdir / "part_b.csv",
                  "--output", workdir / "b.race"] + common)
    _run(capsys, ["build", "--input", workdir / "data.csv",
                  "--output", workdir / "all.race"] + common)
    code, _, _ = _run(capsys, ["merge", "--inputs", workdir / "a.race",
                               workdir / "b.race", "--output", workdir / "m.race"])
    assert code == 0
    assert (workdir / "m.race").read_bytes() == (workdir / "all.race").read_bytes()


def test_merge_incompatible_seeds_is_contract_error(workdir, capsys):
    _run(capsys, ["build", "--input", workdir / "data.csv", "--rows", 10,
                  "--range", 16, "--seed", 1, "--output", workdir / "s1.race"])
    _run(capsys, ["build", "--input", workdir / "data.csv", "--rows", 10,
                  "--range", 16, "--seed", 2, "--output", workdir / "s2.race"])
    code, _, _ = _run(capsys, ["merge", "--inputs", workdir / "s1.race",
                               workdir / "s2.race", "--output", workdir / "m.race"])
    assert code == 4


def test_query_output_columns(workdir, capsys):
    _run(capsys, ["build", "--input", workdir / "data.csv", "--rows", 100,
                  "--range", 64, "--output", workdir / "s.race"])
    code, out, _ = _run(capsys, ["query", "--sketch", workdir / "s.race",
                                 "--queries", workdir / "queries.csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "query_id,f_hat,n_hat,kde"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[2]) == 400.0  # n_hat equals N on a clean sketch

    code, out, _ = _run(capsys, ["query", "--sketch", workdir / "s.race",
                                 "--queries", workdir / "queries.csv",
                                 "--estimator", "mean"])
    assert code == 0


def test_query_corrupt_sketch_is_data_error(workdir, capsys):
    bad = workdir / "bad.race"
    bad.write_bytes(b"NOT A SKETCH")
    code, _, _ = _run(capsys, ["query", "--sketch", bad,
                               "--queries", workdir / "queries.csv"])
    assert code == 3


def test_retired_pair_kind_is_a_format_error(workdir, capsys):
    sk = rk.build(np.ones((4, 3)), rk.new_family("folded-srp", dim=3, depth=2, width=8), 3)
    buf = bytearray(rk.serialize(sk))
    buf[6] = 2  # kind code of the asymmetric-srp pair sketch, which stored z and -z
    with pytest.raises(rk.MalformedHeaderError, match="asymmetric-srp"):
        rk.deserialize(bytes(buf))
    old = workdir / "pair.race"
    old.write_bytes(bytes(buf))
    code, _, err = _run(capsys, ["info", "--sketch", old])
    assert code == 3 and "asymmetric-srp" in err


def test_query_sketch_with_invalid_epsilon_is_data_error(workdir, capsys):
    sk = rk.build(np.ones((4, 2)), rk.new_family("srp", dim=2, depth=2, width=8), 3)
    buf = bytearray(rk.serialize(rk.privatize(sk, rk.PrivacyBudget(1.0), rng_seed=0)))
    struct.pack_into("<d", buf, 40, 0.0)  # the privatized epsilon field
    bad = workdir / "bad_epsilon.race"
    bad.write_bytes(bytes(buf))
    code, _, err = _run(capsys, ["query", "--sketch", bad,
                                 "--queries", workdir / "queries.csv"])
    assert code == 3
    assert "epsilon" in err


def test_query_insufficient_rows_is_usage_error(workdir, capsys):
    _run(capsys, ["build", "--input", workdir / "data.csv", "--rows", 5,
                  "--range", 16, "--output", workdir / "tiny.race"])
    code, _, _ = _run(capsys, ["query", "--sketch", workdir / "tiny.race",
                               "--queries", workdir / "queries.csv",
                               "--delta", 0.1])
    assert code == 2


@pytest.mark.parametrize("estimator", ["mean", "mom"])
def test_query_rejects_a_delta_outside_the_unit_interval_for_either_estimator(
        workdir, capsys, estimator):
    # the mean estimator never reads delta, but the manifest would publish it
    _run(capsys, ["build", "--input", workdir / "data.csv", "--rows", 40,
                  "--range", 16, "--output", workdir / "s.race"])
    out = workdir / "answers.csv"
    code, _, err = _run(capsys, ["query", "--sketch", workdir / "s.race",
                                 "--queries", workdir / "queries.csv", "--estimator", estimator,
                                 "--delta", 7, "--output", out])
    assert code == 2 and "delta must be in (0, 1)" in err
    assert not out.exists() and not (workdir / "answers.csv.manifest.json").exists()


def test_classify_train_predict_flow(workdir, capsys):
    model_dir = workdir / "model"
    code, _, _ = _run(capsys, ["classify-train", "--input", workdir / "train.csv",
                               "--label-col", 2, "--rows", 200, "--range", 64,
                               "--epsilon", 100.0, "--seed", 4,
                               "--output", model_dir])
    assert code == 0
    assert (model_dir / "classifier.json").exists()
    assert (model_dir / "manifest.json").exists()

    _write_csv(np.array([[3.0, 0.0], [-3.0, 0.0]]), workdir / "probe.csv")
    code, out, _ = _run(capsys, ["classify-predict", "--model", model_dir,
                                 "--queries", workdir / "probe.csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "query_id,label,kde_0.0,kde_1.0"
    assert lines[1].split(",")[1] == "0.0"
    assert lines[2].split(",")[1] == "1.0"


def test_classify_predict_takes_its_scaling_from_the_model_directory(workdir, capsys):
    model_dir = _train_scaled_model(workdir, capsys)
    args = ["classify-predict", "--model", model_dir, "--queries", workdir / "queries.csv"]
    code, _, err = _run(capsys, args + ["--transform", model_dir / "scaling.transform.json"])
    assert code == 2 and "--transform" in err
    assert _run(capsys, args + ["--output", workdir / "labels.csv"])[0] == 0
    manifest = json.loads((workdir / "labels.csv.manifest.json").read_text())
    assert manifest["transform_file"] == str(model_dir / "scaling.transform.json")
    assert "transform" not in manifest

    _run(capsys, ["classify-train", "--input", workdir / "train.csv", "--label-col", 2,
                  "--rows", 50, "--range", 32, "--epsilon", 1.0, "--output", workdir / "raw"])
    code, _, _ = _run(capsys, ["classify-predict", "--model", workdir / "raw",
                               "--queries", workdir / "queries.csv",
                               "--output", workdir / "raw.csv"])
    assert code == 0
    assert json.loads((workdir / "raw.csv.manifest.json").read_text())["transform_file"] is None


def test_classify_predict_kde_stays_in_the_unit_interval(workdir, capsys):
    # 100 rows per class released at epsilon 1: noise puts f_hat past N-hat
    rng = np.random.default_rng(3)
    a = np.hstack([rng.normal((3, 0), 1.0, (100, 2)), np.zeros((100, 1))])
    b = np.hstack([rng.normal((-3, 0), 1.0, (100, 2)), np.ones((100, 1))])
    _write_csv(np.vstack([a, b]), workdir / "small.csv")
    _write_csv(np.vstack([a, b])[:, :2], workdir / "small-points.csv")
    code, _, _ = _run(capsys, ["classify-train", "--input", workdir / "small.csv",
                               "--label-col", 2, "--rows", 200, "--range", 64,
                               "--epsilon", 1.0, "--seed", 4, "--output", workdir / "small"])
    assert code == 0
    code, out, _ = _run(capsys, ["classify-predict", "--model", workdir / "small",
                                 "--queries", workdir / "small-points.csv"])
    assert code == 0
    kdes = np.array([line.split(",")[2:] for line in out.strip().splitlines()[1:]], float)
    assert kdes.shape == (200, 2)
    assert ((kdes >= 0) & (kdes <= 1)).all()


def _recovers_clean_counts(released, clean, noise_seed):
    """True when subtracting the noise ``noise_seed`` draws leaves the clean counts."""
    rows, live = released.rows, released.family.reachable_width
    noise = rk.laplace_noise_matrix(rows, live, rows / released.epsilon, noise_seed)
    return np.array_equal(released.counts[:, :live] - noise, clean.counts[:, :live])


@pytest.mark.parametrize("flags,recovered", [([], False), (["--seed", 0], True)],
                         ids=["default", "explicit-seed"])
def test_classify_train_noise_is_derived_from_the_header_seed_only_when_seeded(
        workdir, capsys, flags, recovered):
    # at the default 1000 rows and epsilon 0.5 the noise sd is about 2800 per
    # counter, yet a noise seed derived from the header's family seed undoes it
    code, _, _ = _run(capsys, ["classify-train", "--input", workdir / "train.csv",
                               "--label-col", 2, "--epsilon", 0.5,
                               "--output", workdir / "model"] + flags)
    assert code == 0
    ds = rk.load_csv(workdir / "train.csv", label_column=2)
    for i, label in enumerate([0.0, 1.0]):
        released = rk.load(workdir / "model" / f"class_{i}.race")
        clean = rk.build(ds.points[ds.labels == label], released.family, released.rows)
        seed = rk.ml._derive_seed(released.family.seed, i, 0xC1A5)
        assert _recovers_clean_counts(released, clean, seed) == recovered


def test_classify_train_releases_repeat_only_with_a_seed(workdir, capsys):
    def release(name, flags):
        code, _, _ = _run(capsys, ["classify-train", "--input", workdir / "train.csv",
                                   "--label-col", 2, "--rows", 64, "--range", 32,
                                   "--epsilon", 1.0, "--output", workdir / name] + flags)
        assert code == 0
        return [(workdir / name / f"class_{i}.race").read_bytes() for i in range(2)]

    first, second = release("a", []), release("b", [])
    assert all(x != y for x, y in zip(first, second))
    assert release("c", ["--seed", 1]) == release("d", ["--seed", 1])


def _train_scaled_model(workdir, capsys):
    model_dir = workdir / "model"
    code, _, _ = _run(capsys, ["classify-train", "--input", workdir / "train.csv",
                               "--label-col", 2, "--scale", "cube", "--rows", 200,
                               "--range", 64, "--epsilon", 1.0, "--seed", 4,
                               "--output", model_dir])
    assert code == 0
    return model_dir


def _full_width_release(clean, epsilon, seed):
    """``clean`` released with noise drawn on every column.

    The answer digests below pin the read path on these fixed released
    counters, independent of which columns ``privatize`` draws noise for.
    """
    noise = rk.privacy.laplace_noise_matrix(clean.rows, clean.width, clean.rows / epsilon,
                                            seed)
    noise[:, :clean.counts.shape[1]] += clean.counts
    return rk.RaceSketch(noise, clean.family, privatized=True, epsilon=epsilon)


# sha256 of the answer files, taken before the read path was rewritten and
# re-derived when kde was clipped to [0, 1] (the ml labels still rank on
# the unclipped density)
_PREDICT_DIGESTS = {
    "ml": "fbdb9c0e1a56f8a7bf1a697b6308211d8e0d4a9e4e6168107f6dbd4fdfa7544d",
    "map": "fcf17ee8dcc0c87cb7457e83ef8735f3904969c49fd5a75d0296e722ba8271ea",
}


@pytest.mark.parametrize("rule", sorted(_PREDICT_DIGESTS))
def test_classify_predict_reads_each_class_once(workdir, capsys, monkeypatch, rule):
    monkeypatch.setattr(rk.ml, "_release", lambda clean, budget, seed:
                        _full_width_release(clean, budget.epsilon, seed))
    model_dir = _train_scaled_model(workdir, capsys)
    _write_csv(np.random.default_rng(9).normal(0.0, 3.0, (200, 2)), workdir / "probe.csv")
    calls = []
    hash_batch = rk.lsh.hash_batch

    def counted(*args, **kwargs):
        calls.append(args)
        return hash_batch(*args, **kwargs)

    monkeypatch.setattr(rk.lsh, "hash_batch", counted)
    out = workdir / f"{rule}.csv"
    code, _, _ = _run(capsys, ["classify-predict", "--model", model_dir,
                               "--queries", workdir / "probe.csv", "--rule", rule,
                               "--output", out])
    assert code == 0
    assert len(calls) == 2  # one read of each class sketch, whichever the rule
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _PREDICT_DIGESTS[rule]



def test_classify_predict_ml_labels_capped_kdes_by_the_unclipped_density(
        workdir, capsys, monkeypatch):
    monkeypatch.setattr(rk.ml, "_release", lambda clean, budget, seed:
                        _full_width_release(clean, budget.epsilon, seed))
    model_dir = _train_scaled_model(workdir, capsys)
    _write_csv(np.random.default_rng(9).normal(0.0, 3.0, (200, 2)), workdir / "probe.csv")
    out = workdir / "ml.csv"
    code, _, _ = _run(capsys, ["classify-predict", "--model", model_dir,
                               "--queries", workdir / "probe.csv", "--rule", "ml",
                               "--output", out])
    assert code == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1)
    capped = (table[:, 2:] == 1.0).all(axis=1)
    # both printed kdes tie at the cap, yet the labels still split by class
    assert capped.sum() > 0
    assert set(table[capped, 1]) == {0.0, 1.0}

_QUERY_DIGESTS = {
    ("mom", 0.1): "6f2bd1b3b75bd68efea7f0b9a1155b940878b9f9af5c3f254794483050da25e0",
    ("mom", 0.05): "ec96c2d1d2374fe7f53f8af4a0ea2ec9e6193f40061a5121325a23e3dc75a1a0",
    ("mean", 0.1): "9141ad32e3a6da6f48dd5726c0ace891bfe81908daf8b31275899d43cdd56c1d",
}


@pytest.mark.parametrize("estimator,delta", sorted(_QUERY_DIGESTS),
                         ids=["mean", "mom-even-k", "mom-odd-k"])
def test_query_answer_bytes_are_pinned(workdir, capsys, estimator, delta):
    _write_csv(np.random.default_rng(9).normal(0.0, 1.0, (300, 2)), workdir / "many.csv")
    _run(capsys, ["build", "--input", workdir / "data.csv", "--rows", 200, "--range", 64,
                  "--seed", 3, "--output", workdir / "s.race"])
    rk.save(_full_width_release(rk.load(workdir / "s.race"), 1.0, 5), workdir / "r.race")
    out = workdir / "answers.csv"
    code, _, _ = _run(capsys, ["query", "--sketch", workdir / "r.race",
                               "--queries", workdir / "many.csv", "--estimator", estimator,
                               "--delta", delta, "--output", out])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _QUERY_DIGESTS[estimator, delta]


# sha256 of `racekit query` answers on sketches released by `privatize --seed`,
# for the two families whose buckets take the 2-universal mix: euclidean
# codes, and srp codes of depth 12 squeezed into 50 columns
_FAMILY_QUERY_DIGESTS = {
    "euclidean": "750b6befa04c4d0b444da8bb7cea85ccbdc25bf6273639aa8a25e3361c1f5b03",
    "rebucketed-srp": "032f9bdd84d035beb7877de4e11a26cc118f3e9245f87231c356b5b7d803d0f4",
}
_FAMILY_FLAGS = {
    "euclidean": ["--lsh", "euclidean", "--bandwidth", 0.5, "--depth", 2],
    "rebucketed-srp": ["--depth", 12],
}


def _seeded_release(workdir, capsys, name):
    path = workdir / f"{name}.race"
    _run(capsys, ["build", "--input", workdir / "data.csv", "--rows", 200, "--range", 50,
                  "--seed", 3, "--output", path] + _FAMILY_FLAGS[name])
    code, _, _ = _run(capsys, ["privatize", "--sketch", path, "--epsilon", 1.0, "--seed", 5,
                               "--output", workdir / f"{name}.released.race"])
    assert code == 0
    return workdir / f"{name}.released.race"


@pytest.mark.parametrize("name", sorted(_FAMILY_QUERY_DIGESTS))
def test_query_answer_bytes_are_pinned_for_mixed_families(workdir, capsys, name):
    _write_csv(np.random.default_rng(9).normal(0.0, 1.0, (300, 2)), workdir / "many.csv")
    released = _seeded_release(workdir, capsys, name)
    out = workdir / "answers.csv"
    code, _, _ = _run(capsys, ["query", "--sketch", released,
                               "--queries", workdir / "many.csv", "--output", out])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _FAMILY_QUERY_DIGESTS[name]


def test_mode_output_is_pinned_on_a_euclidean_release(workdir, capsys):
    released = _seeded_release(workdir, capsys, "euclidean")
    code, out, _ = _run(capsys, ["mode", "--sketch", released, "--init", "0.3,-0.2",
                                 "--max-iters", 60])
    assert code == 0
    assert out == "0.67988281250000004,-0.57695312499999996\n"


@pytest.mark.parametrize("content,flags", [("", []), ("x,y\n", ["--header"])],
                         ids=["empty", "header-only"])
def test_empty_query_file_writes_only_the_header(workdir, capsys, content, flags):
    (workdir / "none.csv").write_text(content)
    _run(capsys, ["build", "--input", workdir / "data.csv", "--scale", "cube",
                  "--rows", 64, "--range", 32, "--output", workdir / "s.race"])
    code, out, _ = _run(capsys, ["query", "--sketch", workdir / "s.race",
                                 "--queries", workdir / "none.csv",
                                 "--transform", workdir / "s.race.transform.json"] + flags)
    assert code == 0
    assert out == "query_id,f_hat,n_hat,kde\n"

    model_dir = _train_scaled_model(workdir, capsys)  # predict applies its cube transform
    for rule in ("ml", "map"):
        code, out, _ = _run(capsys, ["classify-predict", "--model", model_dir,
                                     "--queries", workdir / "none.csv",
                                     "--rule", rule] + flags)
        assert code == 0
        assert out == "query_id,label,kde_0.0,kde_1.0\n"


def test_query_of_the_wrong_dimension_is_data_error(workdir, capsys):
    _run(capsys, ["build", "--input", workdir / "data.csv", "--scale", "cube",
                  "--rows", 64, "--range", 32, "--output", workdir / "s.race"])
    _write_csv(np.ones((3, 5)), workdir / "wide.csv")
    code, _, err = _run(capsys, ["query", "--sketch", workdir / "s.race",
                                 "--queries", workdir / "wide.csv",
                                 "--transform", workdir / "s.race.transform.json"])
    assert code == 3
    assert "dimension" in err


_BAD_TRANSFORMS = {
    "mins-too-long": ('{"mode": "cube", "mins": [0, 0, 0], "maxs": [1, 1]}', "dimension"),
    "bounds-too-short": ('{"mode": "cube", "mins": [0], "maxs": [1]}', "dimension"),
    "truncated": ('{"mode": "cube", "mins": [0, 0', "not a transform file"),
    "no-mode": ('{"mins": [0, 0], "maxs": [1, 1]}', "not a transform file"),
    "unknown-mode": ('{"mode": "spherical"}', "not a transform file"),
    "not-an-object": ('["cube"]', "not a transform file"),
    "cube-without-maxs": ('{"mode": "cube", "mins": [0, 0]}', "not a transform file"),
}


@pytest.mark.parametrize("name", sorted(_BAD_TRANSFORMS))
def test_query_with_a_corrupt_transform_is_data_error(workdir, capsys, name):
    content, message = _BAD_TRANSFORMS[name]
    _run(capsys, ["build", "--input", workdir / "data.csv", "--scale", "cube",
                  "--rows", 64, "--range", 32, "--output", workdir / "s.race"])
    (workdir / "bad.json").write_text(content)
    code, out, err = _run(capsys, ["query", "--sketch", workdir / "s.race",
                                   "--queries", workdir / "queries.csv",
                                   "--transform", workdir / "bad.json"])
    assert code == 3 and out == ""
    assert message in err and "bad.json" in err


@pytest.mark.parametrize("manifest", ['{"classes": [0.0, 1.0], "epsilon": 1.0, "files": [',
                                      '{"classes": [0.0, 1.0], "epsilon": 1.0}', "[]"],
                         ids=["truncated", "no-files", "not-an-object"])
def test_classify_predict_with_a_corrupt_manifest_is_data_error(workdir, capsys, manifest):
    model_dir = _train_scaled_model(workdir, capsys)
    (model_dir / "classifier.json").write_text(manifest)
    code, out, err = _run(capsys, ["classify-predict", "--model", model_dir,
                                   "--queries", workdir / "queries.csv"])
    assert code == 3 and out == ""
    assert "classifier.json does not describe a classifier" in err


def test_regress_prints_slope(workdir, capsys):
    code, out, _ = _run(capsys, ["regress", "--input", workdir / "reg.csv",
                                 "--rows", 20000, "--range", 32,
                                 "--epsilon", 1e6, "--seed", 4,
                                 "--max-iters", 120, "--restarts", 1,
                                 "--output", workdir / "model.json"])
    assert code == 0
    lines = dict(line.split(",") for line in out.strip().splitlines())
    assert abs(float(lines["theta_0"]) - 2.0) <= 0.5
    record = json.loads((workdir / "model.json").read_text())
    assert (workdir / "model.race").exists()
    assert len(record["theta"]) == 1


# sha256 of the model record and its sketch, taken before the regression
# scaling moved onto io.scale
_REGRESS_DIGESTS = {
    "model.json": "a15643c806e3003d78ba70ad4cfff2db4617a5eda14c8c34a06f0cd384655f3b",
    "model.race": "58f3ffa89a4515cbcd1073b2767b0bb4d5918f260732ba172c906c2b2ca7fae0",
}


def test_regress_without_input_columns_is_usage_error(workdir, capsys):
    _write_csv(np.arange(10.0)[:, None], workdir / "target-only.csv")
    code, _, err = _run(capsys, ["regress", "--input", workdir / "target-only.csv",
                                 "--rows", 100, "--range", 32, "--epsilon", 1.0,
                                 "--output", workdir / "model.json"])
    assert code == 2 and "zero input columns" in err
    assert not (workdir / "model.json").exists() and not (workdir / "model.race").exists()


def test_regress_output_bytes_are_pinned(workdir, capsys):
    rng = np.random.default_rng(21)
    x = rng.uniform(-3.0, 5.0, (80, 3))
    x[:, 1] = 7.0  # a constant column scales to 0
    y = x @ np.array([1.5, 0.0, -0.5]) + 2.0 + 0.1 * rng.standard_normal(80)
    _write_csv(np.column_stack([x, y]), workdir / "wide.csv")
    code, _, _ = _run(capsys, ["regress", "--input", workdir / "wide.csv",
                               "--rows", 500, "--range", 32, "--epsilon", 1.0,
                               "--seed", 4, "--max-iters", 80, "--restarts", 1,
                               "--output", workdir / "model.json"])
    assert code == 0
    for name, digest in _REGRESS_DIGESTS.items():
        assert hashlib.sha256((workdir / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("flag", [["--lsh", "euclidean"], ["--bandwidth", 0.5]],
                         ids=["lsh", "bandwidth"])
def test_regress_rejects_family_flags_it_would_ignore(workdir, capsys, flag):
    code, _, _ = _run(capsys, ["regress", "--input", workdir / "reg.csv",
                               "--rows", 100, "--range", 32, "--epsilon", 1e6,
                               "--output", workdir / "model.json"] + flag)
    assert code == 2
    assert not (workdir / "model.json").exists()


def test_mode_outputs_point(workdir, capsys):
    rng = np.random.default_rng(7)
    _write_csv(rng.normal((1.0, -0.5), 0.2, (800, 2)), workdir / "cluster.csv")
    _run(capsys, ["build", "--input", workdir / "cluster.csv", "--lsh", "euclidean",
                  "--bandwidth", 0.5, "--depth", 2, "--rows", 600, "--range", 128,
                  "--output", workdir / "c.race"])
    code, out, _ = _run(capsys, ["mode", "--sketch", workdir / "c.race",
                                 "--init", "1.3,-0.2", "--max-iters", 150])
    assert code == 0
    point = np.array([float(v) for v in out.strip().split(",")])
    assert np.linalg.norm(point - np.array([1.0, -0.5])) <= 0.5


def _mode_sketch(workdir, capsys):
    _write_csv(np.random.default_rng(7).normal((1.0, -0.5), 0.2, (200, 2)),
                 workdir / "cluster.csv")
    _run(capsys, ["build", "--input", workdir / "cluster.csv", "--lsh", "euclidean",
                  "--bandwidth", 0.5, "--depth", 2, "--rows", 60, "--range", 64,
                  "--output", workdir / "c.race"])
    return workdir / "c.race"


@pytest.mark.parametrize("init,field", [("a,b", "field 1 ('a')"),
                                        ("0.1,,0.2", "field 2 ('')"),
                                        ("0.5,x", "field 2 ('x')")])
def test_mode_init_that_is_not_a_number_is_a_usage_error(workdir, capsys, init, field):
    code, out, err = _run(capsys, ["mode", "--sketch", _mode_sketch(workdir, capsys),
                                   "--init", init])
    assert code == 2 and out == ""
    assert "--init" in err and field in err and "Traceback" not in err


def test_mode_init_with_the_wrong_coordinate_count_is_a_data_error(workdir, capsys):
    code, _, err = _run(capsys, ["mode", "--sketch", _mode_sketch(workdir, capsys),
                                 "--init", "0.1,0.2,0.3"])
    assert code == 3 and "dimension" in err


@pytest.mark.parametrize("flags", [["--max-iters", 0], ["--max-iters", -5],
                                   ["--restarts", -1], ["--step", 0], ["--step", "inf"],
                                   ["--step", "nan"]],
                         ids=lambda f: " ".join(map(str, f)))
def test_mode_and_regress_reject_budgets_that_make_no_search(workdir, capsys, flags):
    code, out, err = _run(capsys, ["mode", "--sketch", _mode_sketch(workdir, capsys),
                                   "--init", "1,-0.5"] + flags)
    name = flags[0].lstrip("-").replace("-", "_")  # --step sets initial_step
    assert code == 2 and out == "" and f"{name} must be" in err
    code, out, err = _run(capsys, ["regress", "--input", workdir / "reg.csv",
                                   "--rows", 100, "--range", 32, "--epsilon", 1e6,
                                   "--output", workdir / "model.json"] + flags)
    assert code == 2 and out == "" and f"{name} must be" in err
    assert not (workdir / "model.json").exists()


def test_scaled_build_writes_transform_and_query_applies_it(workdir, capsys):
    _run(capsys, ["build", "--input", workdir / "data.csv", "--scale", "cube",
                  "--rows", 64, "--range", 32, "--output", workdir / "scaled.race"])
    transform = workdir / "scaled.race.transform.json"
    assert transform.exists()
    code, out, _ = _run(capsys, ["query", "--sketch", workdir / "scaled.race",
                                 "--queries", workdir / "queries.csv",
                                 "--transform", transform])
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[2]) == 400.0


def _build_outputs(capsys, workdir, csv, flags, name):
    """The .race bytes, transform bytes (or None) and manifest n_points of one build."""
    out = workdir / f"{name}.race"
    code, _, err = _run(capsys, ["build", "--input", csv, "--rows", 20, "--range", 64,
                                 "--output", out] + flags)
    assert code == 0, err
    transform = workdir / f"{name}.race.transform.json"
    manifest = json.loads((workdir / f"{name}.race.manifest.json").read_text())
    return (out.read_bytes(), transform.read_bytes() if transform.exists() else None,
            manifest["n_points"])


def _stream_chunks_of(monkeypatch, points):
    # racekit build parses and hashes chunks of _CHUNK points
    monkeypatch.setattr(rk.sketch, "_CHUNK", points)


@pytest.mark.parametrize("header", [False, True], ids=["no-header", "header"])
@pytest.mark.parametrize("scale", ["none", "sphere", "cube"])
def test_streamed_build_equals_the_whole_matrix_build(workdir, capsys, monkeypatch, scale,
                                                      header):
    # a constant third column, and a blank line, a quoted cell and a padded
    # cell that numpy refuses, so that the csv reader parses the last chunks
    pts = np.random.default_rng(12).standard_normal((50, 3)) * [1.0, 10.0, 0.0] + [0, 0, 4]
    lines = [",".join(f"{v:.17g}" for v in row) for row in pts]
    lines[9] += "\n"
    lines[30] = f'"{pts[30, 0]:.17g}",{pts[30, 1]:.17g}, 4 '
    csv = workdir / "stream.csv"
    csv.write_text(("x,y,z\n" if header else "") + "\n".join(lines) + "\n")
    flags = ["--scale", scale] + (["--header"] if header else [])
    one_chunk = _build_outputs(capsys, workdir, csv, flags, "one")
    _stream_chunks_of(monkeypatch, 7)
    assert _build_outputs(capsys, workdir, csv, flags, "streamed") == one_chunk
    ds = rk.scale(rk.Dataset(pts), scale)
    family = rk.new_family("srp", dim=3, depth=4, width=64, seed=0)
    assert one_chunk[0] == rk.serialize(rk.build(ds, family, 20))
    assert one_chunk[2] == 50
    if scale == "cube":
        assert json.loads(one_chunk[1]) == {"mode": "cube", "mins": ds.transform.mins.tolist(),
                                            "maxs": ds.transform.maxs.tolist()}


@pytest.mark.parametrize("row,text,error", [
    (17, "0.5,inf", "row 17, column 2: non-finite value 'inf'"),
    (15, "0.5,1,2", "row 15: expected 2 fields, got 3"),
    (18, b"0.5\xff,1", "row 18, column 1: not a number"),
    (16, '"x",1', "row 16, column 1: not a number: 'x'"),
    (20, "0,0", "row 20 has zero norm"),
], ids=["non-finite", "ragged-chunk", "non-utf8", "quoted", "zero-norm"])
def test_a_fault_in_a_later_chunk_names_its_own_row(workdir, capsys, monkeypatch, row, text,
                                                    error):
    lines = [b"%d.5,1.0" % i for i in range(30)]
    if row == 15:  # every line of the third chunk has the wrong width
        lines[14:21] = [b"%d.5,1,2" % i for i in range(7)]
    lines[row - 1] = text if isinstance(text, bytes) else text.encode()
    (workdir / "fault.csv").write_bytes(b"\n".join(lines) + b"\n")
    _stream_chunks_of(monkeypatch, 7)
    code, _, err = _run(capsys, ["build", "--input", workdir / "fault.csv", "--scale", "sphere",
                                 "--rows", 20, "--range", 64, "--output", workdir / "f.race"])
    assert code == 3 and error in err
    assert not (workdir / "f.race").exists()


def _write_non_utf8_csv(path, rows=3000, bad_row=2501):
    # enough rows that the bad byte sits several text decode blocks in
    lines = [b"%d.5,1.0" % i for i in range(rows)]
    lines[bad_row - 1] = b"0.5,1\xff0"
    path.write_bytes(b"\n".join(lines) + b"\n")


@pytest.mark.parametrize("command", ["build", "query"])
def test_non_utf8_bytes_in_a_csv_are_a_data_error_at_their_cell(workdir, capsys, command):
    bad = workdir / "bytes.csv"
    _write_non_utf8_csv(bad)
    if command == "build":
        argv = ["build", "--input", bad, "--rows", 20, "--range", 16]
    else:
        _run(capsys, ["build", "--input", workdir / "data.csv", "--rows", 20,
                      "--range", 16, "--output", workdir / "s.race"])
        argv = ["query", "--sketch", workdir / "s.race", "--queries", bad]
    code, out, err = _run(capsys, argv + ["--output", workdir / "out"])
    assert code == 3 and out == ""
    assert "row 2501, column 2" in err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("delimiter", ["", ";;"], ids=["empty", "two-characters"])
def test_delimiter_that_is_not_one_character_is_usage_error(workdir, capsys, delimiter):
    code, _, err = _run(capsys, ["build", "--input", workdir / "data.csv",
                                 "--delimiter", delimiter, "--output", workdir / "x.race"])
    assert code == 2 and "--delimiter" in err
    assert not (workdir / "x.race").exists()


def test_latin1_header_is_skipped_by_build(workdir, capsys):
    (workdir / "latin1.csv").write_bytes("température,y\n1.0,2.0\n3.0,4.0\n".encode("latin-1"))
    code, _, _ = _run(capsys, ["build", "--input", workdir / "latin1.csv", "--header",
                               "--rows", 20, "--range", 16, "--output", workdir / "s.race"])
    assert code == 0
    assert rk.load(workdir / "s.race").inserted == 2


def test_every_error_class_carries_its_documented_exit_code():
    # README: 2 usage or invalid parameters, 3 data and parse errors, 4 contract violations
    table = {
        "RaceError": 2, "InvalidParameterError": 2, "InsufficientRowsError": 2,
        "OptimizerDivergenceError": 2,
        "CsvError": 3, "NonFiniteValueError": 3, "RaggedRowError": 3,
        "DimensionMismatchError": 3, "ZeroVectorError": 3, "SketchFormatError": 3,
        "MalformedHeaderError": 3, "VersionMismatchError": 3, "TruncationError": 3,
        "FrozenSketchError": 4, "IncompatibleSketchError": 4, "DoubleReleaseError": 4,
    }
    found = {name: cls.exit_code for name, cls in vars(rk.errors).items()
             if isinstance(cls, type) and issubclass(cls, rk.errors.RaceError)}
    assert found == table


def test_version_flag(capsys):
    code, out, _ = _run(capsys, ["--version"])
    assert code == 0
