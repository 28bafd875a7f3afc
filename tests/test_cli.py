"""Scenario parsing, design gates, and the command-line front end."""

import configparser
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import threading
import tracemalloc
import types
from contextlib import ExitStack, closing, redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jafs import cli, estimate, geometry, model, oracle, scenario, simulate
from jafs.cli import main
from jafs.scenario import (
    ConfigError,
    DesignGateError,
    check_gates,
    load_scenario,
    predicted_cost,
    require_gates,
    resolve,
    run_certify,
    run_scenario,
    run_sweep,
)
from jafs.simulate import CosetCardinalityError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SMOKE = SCENARIOS / "smoke.scenario"
FLAGSHIP = SCENARIOS / "mra36_q71.scenario"

MINIMAL = """\
[geometry]
n_underlying = 8
spacing = 0.5
marks = 0 1 2 3 7

[coset]
n_t = 8
m_t = 5
rows = 0 1 2 3 7

[grid]
q = 15
mode = inverse-sin

[source.1]
doa_deg = 0
band_lo_pi = -0.1
band_hi_pi = 0.2
variance = 5

[noise]
variance = 5
mode = estimate

[run]
n_blocks = 50
seed = 0
output_dir = out
"""


def write_scenario(tmp_path, text, name="case.scenario"):
    path = tmp_path / name
    path.write_text(text)
    return path


# -------------------------------------------------------------- parsing


def test_load_bundled_smoke():
    cfg = load_scenario(SMOKE)
    assert cfg.n_underlying == 8
    assert cfg.marks == (0, 1, 2, 3, 7)
    assert cfg.n_t == 8 and cfg.m_t == 5
    assert cfg.coset_rows == (0, 1, 2, 3, 7)
    assert cfg.grid_q == 15 and cfg.grid_angles is None
    assert len(cfg.sources) == 3
    assert cfg.sources[1].true_doa == 0.0
    assert cfg.sources[0].band[0] == pytest.approx(-0.8 * np.pi)
    assert cfg.noise_variance == 5.0 and cfg.noise_mode == "estimate"
    assert cfg.n_blocks == 500 and cfg.master_seed == 0


def test_load_bundled_flagship():
    cfg = load_scenario(FLAGSHIP)
    assert cfg.n_underlying == 36
    assert cfg.marks == (0, 1, 4, 10, 16, 22, 28, 30, 33, 35)
    assert cfg.n_t == 84 and cfg.m_t == 34
    assert cfg.coset_seed == 0
    assert cfg.grid_q == 71
    assert len(cfg.sources) == 12
    assert [round(np.degrees(s.true_doa)) for s in cfg.sources] == [
        -54, -45, -36, -27, -18, -9, 0, 9, 18, 27, 36, 45
    ]


def test_documented_example_loads_and_holds_every_declared_key(tmp_path):
    # the example in jafs.scenario's module docstring sets or comments
    # out every key of the table
    example = scenario.__doc__.split("sections::\n\n", 1)[1]
    text = textwrap.dedent(re.split(r"\n(?=\S)", example, maxsplit=1)[0])
    load_scenario(write_scenario(tmp_path, text))
    documented, section = set(), None
    for line in text.splitlines():
        header = re.fullmatch(r"\[(\w+)(\.\d+)?\]", line.strip())
        if header:
            section = header[1] + (".N" if header[2] else "")
        key = re.match(r";? ?(\w+) = ", line)
        if key:
            documented.add((section, key[1]))
    assert documented == {(k.section, k.key) for k in scenario.KEYS}


def test_missing_section_rejected(tmp_path):
    path = write_scenario(tmp_path, MINIMAL.replace("[noise]", "[nois]"))
    with pytest.raises(ConfigError):
        load_scenario(path)


def test_bad_band_rejected(tmp_path):
    bad = MINIMAL.replace("band_hi_pi = 0.2", "band_hi_pi = -0.3")
    with pytest.raises(ConfigError):
        load_scenario(write_scenario(tmp_path, bad))


def test_bad_threshold_rejected(tmp_path):
    bad = MINIMAL + "peak_threshold = 1.5\n"
    with pytest.raises(ConfigError):
        load_scenario(write_scenario(tmp_path, bad))


def test_row_count_mismatch_rejected(tmp_path):
    bad = MINIMAL.replace("m_t = 5", "m_t = 6")
    path = write_scenario(tmp_path, bad)
    cfg = load_scenario(path)  # parse is fine; mismatch surfaces at build
    with pytest.raises(ConfigError):
        run_certify(cfg)


def test_explicit_grid_angles(tmp_path):
    text = MINIMAL.replace(
        "q = 15\nmode = inverse-sin",
        "q = 3\nmode = explicit\nangles_deg = -30 0 30",
    )
    cfg = load_scenario(write_scenario(tmp_path, text))
    assert cfg.grid_q == 3
    np.testing.assert_allclose(np.degrees(cfg.grid_angles), [-30, 0, 30])


def test_unknown_grid_mode_rejected(tmp_path):
    text = MINIMAL.replace("mode = inverse-sin", "mode = uniform")
    with pytest.raises(ConfigError):
        load_scenario(write_scenario(tmp_path, text))


def test_nonexistent_path_rejected():
    with pytest.raises(ConfigError):
        load_scenario("/no/such/file.scenario")


# ---------------------------------------------------------------- gates


def test_hard_gate_blocks_undersampled_rows(tmp_path):
    bad = MINIMAL.replace("m_t = 5", "m_t = 3").replace("rows = 0 1 2 3 7\n", "")
    cfg = load_scenario(write_scenario(tmp_path, bad))
    gates = check_gates(cfg)
    assert gates[0]["name"] == "temporal-overdetermination"
    assert not gates[0]["passed"]
    with pytest.raises(DesignGateError):
        require_gates(gates)


def test_warning_gate_records_without_raising(tmp_path):
    text = MINIMAL.replace("marks = 0 1 2 3 7", "marks = 0 1 2 3")
    cfg = load_scenario(write_scenario(tmp_path, text))
    gates = check_gates(cfg)  # M_s^2 = 16 > 15 passes; shrink further
    text2 = text.replace("marks = 0 1 2 3", "marks = 0 1 3")
    cfg2 = load_scenario(write_scenario(tmp_path, text2, "b.scenario"))
    gates2 = check_gates(cfg2)
    warn = next(g for g in gates2 if g["level"] == "warning")
    assert not warn["passed"]  # M_s^2 = 9 < Q = 15, still not fatal here


def test_certify_report_structure():
    report = run_certify(load_scenario(SMOKE))
    certs = report["certificates"]
    assert certs["rct_full_column_rank"]
    assert certs["virtual_ula"]["passed"]
    assert certs["sine_grid_residues"]["passed"]
    assert certs["kr_rank"]["rank"] == 15
    assert certs["coset"]["rows_cover_all_lags"]
    assert certs["geometry"]["spatial_compression_rate"] == pytest.approx(5 / 8)
    assert certs["coset"]["temporal_compression_rate"] == pytest.approx(5 / 8)


# ----------------------------------------------------------------- runs


def test_run_scenario_writes_artifacts(tmp_path):
    cfg = load_scenario(SMOKE)
    out = tmp_path / "run1"
    report = run_scenario(cfg, output_dir=str(out))
    for name in (
        "spectrum_raw.csv",
        "spectrum_plot.csv",
        "angular_marginal.csv",
        "report.json",
    ):
        assert (out / name).is_file()
    assert len(report["detections"]) == 3
    assert report["sigma_n_hat"] == pytest.approx(5.0, rel=0.2)
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk["sigma_n_hat"] == report["sigma_n_hat"]
    assert on_disk["noise_path"] == "white-floor"
    assert list(on_disk["timings"]) == [
        "design_s",
        "simulate_s",
        "gram_s",
        "estimate_s",
        "export_s",
    ]
    assert [g["name"] for g in on_disk["gates"]][-2:] == ["lag-coverage", "kr-rank"]
    assert all(g["passed"] for g in on_disk["gates"])
    # spectrum_plot frequencies are sorted ascending
    header = (out / "spectrum_plot.csv").read_text().splitlines()[0].split(",")
    freqs = [float(tok) for tok in header[1:]]
    assert freqs == sorted(freqs)


def test_run_scenario_byte_identical_reruns(tmp_path):
    cfg = load_scenario(SMOKE)
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, output_dir=str(a))
    run_scenario(cfg, output_dir=str(b))
    for name in ("spectrum_raw.csv", "spectrum_plot.csv", "angular_marginal.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_scenario_seed_override_changes_data(tmp_path):
    cfg = load_scenario(SMOKE)
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, output_dir=str(a))
    run_scenario(cfg, output_dir=str(b), seed=123)
    assert (a / "spectrum_raw.csv").read_bytes() != (
        b / "spectrum_raw.csv"
    ).read_bytes()


def test_run_scenario_snapshot_dump(tmp_path):
    text = MINIMAL + "dump_snapshots = true\n"
    cfg = load_scenario(write_scenario(tmp_path, text))
    out = tmp_path / "dumped"
    run_scenario(cfg, output_dir=str(out))
    from jafs.simulate import read_snapshots

    blocks = read_snapshots(out / "compressed_blocks.bin")
    assert blocks.shape == (50, 5, 5)


def dumping_scenario(tmp_path):
    """MINIMAL with a block dump, over two chunks and a cut third one."""
    n_blocks = 2 * simulate.chunk_blocks(8) + 7
    text = MINIMAL.replace("n_blocks = 50", f"n_blocks = {n_blocks}")
    return load_scenario(write_scenario(tmp_path, text + "dump_snapshots = true\n"))


def test_snapshot_dump_streams_the_simulated_blocks(tmp_path):
    cfg = dumping_scenario(tmp_path)
    out = tmp_path / "dumped"
    run_scenario(cfg, output_dir=str(out))
    design = scenario.resolve(cfg).design
    expect = simulate.compressed_blocks(
        cfg.sources,
        design.geometry,
        design.pattern,
        cfg.noise_variance,
        cfg.n_blocks,
        cfg.master_seed,
    )
    reference = tmp_path / "reference.bin"
    simulate.write_snapshots(reference, expect)
    assert (out / "compressed_blocks.bin").read_bytes() == reference.read_bytes()


def test_failed_run_removes_partial_dump(tmp_path, monkeypatch):
    cfg = dumping_scenario(tmp_path)
    seen = []
    orig = estimate.block_gram

    def fail_on_second_chunk(blocks):
        seen.append(len(blocks))
        if len(seen) == 2:
            raise RuntimeError("estimator failed mid-stream")
        return orig(blocks)

    monkeypatch.setattr(estimate, "block_gram", fail_on_second_chunk)
    out = tmp_path / "dumped"
    with pytest.raises(RuntimeError):
        run_scenario(cfg, output_dir=str(out))
    assert len(seen) == 2
    assert not (out / "compressed_blocks.bin").exists()


RUN_OUTPUTS = (
    "spectrum_raw.csv",
    "spectrum_plot.csv",
    "angular_marginal.csv",
    "report.json",
    "compressed_blocks.bin",
)


def without_clock(report_bytes):
    report = json.loads(report_bytes)
    del report["timings"], report["cpu_s"]
    return report


def test_rerun_replaces_its_outputs_instead_of_truncating_them(tmp_path):
    cfg = replace(load_scenario(SMOKE), dump_snapshots=True)
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    run_scenario(cfg, output_dir=str(out), seed=0)
    first = {name: (out / name).read_bytes() for name in RUN_OUTPUTS}
    os.link(out / "report.json", tmp_path / "linked.json")
    with ExitStack() as stack:
        held = {name: stack.enter_context(open(out / name, "rb")) for name in RUN_OUTPUTS}
        run_scenario(cfg, output_dir=str(out), seed=1)
        # a reader holding the first run's files still reads them whole
        assert {name: fh.read() for name, fh in held.items()} == first
    assert (tmp_path / "linked.json").read_bytes() == first["report.json"]
    run_scenario(cfg, output_dir=str(fresh), seed=1)
    for name in RUN_OUTPUTS:
        again, alone = (out / name).read_bytes(), (fresh / name).read_bytes()
        if name == "report.json":
            again, alone = without_clock(again), without_clock(alone)
        assert again == alone, name


def test_sweep_rerun_replaces_sweep_csv_instead_of_truncating_it(tmp_path):
    cfg = load_scenario(SMOKE)
    out = tmp_path / "out"
    path = run_sweep(cfg, "n_blocks", [100], [0], output_dir=str(out))
    first = path.read_bytes()
    with open(path, "rb") as held:
        run_sweep(cfg, "n_blocks", [100], [1], output_dir=str(out))
        assert held.read() == first
    fresh = run_sweep(cfg, "n_blocks", [100], [1], output_dir=str(tmp_path / "fresh"))
    assert path.read_bytes() == fresh.read_bytes() != first


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_output_path_that_is_a_symlink_is_replaced_not_followed(tmp_path, command):
    name = "sweep.csv" if command == "sweep" else "spectrum_raw.csv"
    target = tmp_path / "target.csv"
    target.write_text("kept\n")
    out = tmp_path / "o"
    out.mkdir()
    (out / name).symlink_to(target)
    path = write_scenario(tmp_path, SMOKE.read_text())
    assert main(cli_args(command, path, tmp_path)) == 0
    assert target.read_text() == "kept\n"
    assert (out / name).is_file() and not (out / name).is_symlink()


def test_report_stage_cpu_is_at_most_its_wall_time(tmp_path):
    run_scenario(load_scenario(SMOKE), output_dir=str(tmp_path))
    report = json.loads((tmp_path / "report.json").read_text())
    assert list(report["cpu_s"]) == list(report["timings"])
    for stage, wall in report["timings"].items():
        assert 0 <= report["cpu_s"][stage] <= wall + 0.01, stage


def test_run_scenario_memory_flat_in_block_count(tmp_path):
    # blocks are streamed into a running Gram, so peak memory is set by
    # the chunk size, not by the block count
    cfg = load_scenario(SMOKE)
    peaks = {}
    for n_blocks in (20_000, 200_000):
        tracemalloc.start()
        try:
            run_scenario(
                replace(cfg, n_blocks=n_blocks), output_dir=str(tmp_path / str(n_blocks))
            )
            peaks[n_blocks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[200_000] <= 1.5 * peaks[20_000], peaks


@pytest.mark.parametrize("scenario_path", [SMOKE, FLAGSHIP], ids=["smoke", "flagship"])
def test_simulator_memory_is_flat_and_within_the_prediction(scenario_path):
    # block_chunks holds three chunks at most (the caller's, the one being
    # finished, the one drawn ahead), whatever the block count; the Gram
    # adds its own temporaries: a conjugated chunk, a chunk's D x D Gram
    # in the blocks' type and the running sum in complex128.  The flagship
    # (N_t = 84, M_t = 34) weights the draw buffers otherwise than smoke
    # (N_t = 8, M_t = 5): it transforms 34 of every 84 noise uniform pairs
    cfg = replace(load_scenario(scenario_path), workers=2)
    per = simulate.chunk_blocks(cfg.n_t)
    d = len(cfg.marks) * cfg.m_t
    value = simulate.BLOCK_DTYPE.itemsize
    chunk_bytes = value * per * d
    gram_temporaries = chunk_bytes + (value + np.dtype(np.complex128).itemsize) * d * d
    peaks = {}
    for n_chunks in (2, 16):
        sub = replace(cfg, n_blocks=n_chunks * per)
        predicted = predicted_cost(sub)["block_buffer_bytes"]
        design = resolve(sub).design
        chunks = simulate.block_chunks(
            sub.sources, design.geometry, design.pattern, sub.noise_variance,
            sub.n_blocks, sub.master_seed, sub.workers,
        )
        tracemalloc.start()
        try:
            estimate.accumulate_gram(chunks)
            peaks[n_chunks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peaks[n_chunks] <= predicted + gram_temporaries, (n_chunks, peaks)
    # an eightfold N_n adds at most the chunk in flight and draw buffers
    assert peaks[16] - peaks[2] < 2 * chunk_bytes, peaks


# ---------------------------------------------------------------- sweep


def test_sweep_rows_and_determinism(tmp_path):
    cfg = load_scenario(SMOKE)
    path = run_sweep(
        cfg, "n_blocks", [100], [0, 1, 2], output_dir=str(tmp_path / "s1")
    )
    lines = path.read_text().splitlines()
    assert lines[0] == "param,value,seed,rs_rel_error,sigma_rel_error,detection_rate"
    assert len(lines) == 4
    # dump_snapshots applies to run only: the sweep writes sweep.csv alone
    again = run_sweep(
        replace(cfg, dump_snapshots=True),
        "n_blocks",
        [100],
        [0, 1, 2],
        output_dir=str(tmp_path / "s2"),
    )
    assert path.read_bytes() == again.read_bytes()
    assert [p.name for p in again.parent.iterdir()] == ["sweep.csv"]


def test_sweep_csv_does_not_depend_on_the_worker_count(tmp_path):
    per = simulate.chunk_blocks(8)
    values = [per - 48, per + 52]
    paths = [
        run_sweep(
            replace(load_scenario(SMOKE), workers=workers),
            "n_blocks",
            values,
            [0, 1],
            output_dir=str(tmp_path / str(workers)),
        )
        for workers in (1, 2)
    ]
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sweep_rows_score_the_run_of_their_value_and_seed(tmp_path):
    cfg = load_scenario(SMOKE)
    path = run_sweep(cfg, "n_blocks", [300, 1000], [0, 1], output_dir=str(tmp_path))
    sines = np.sin(scenario.grid_of(cfg).angles)
    cells = [int(np.argmin(np.abs(sines - np.sin(s.true_doa)))) for s in cfg.sources]
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [r[1:3] for r in rows] == [["300", "0"], ["300", "1"], ["1000", "0"], ["1000", "1"]]
    for _, value, seed, _, sigma_err, rate in rows:
        run = replace(cfg, n_blocks=int(value))
        report = run_scenario(run, output_dir=str(tmp_path / "run"), seed=int(seed))
        sigma = report["sigma_n_hat"]
        assert float(sigma_err) == abs(sigma - cfg.noise_variance) / cfg.noise_variance
        found = [d["grid_index"] for d in report["detections"]]
        hits = sum(any(abs(f - cell) <= 1 for f in found) for cell in cells)
        assert float(rate) == hits / len(cells)


def test_sweep_refuses_empty_values_or_seeds(tmp_path):
    cfg = load_scenario(SMOKE)
    for values, seeds in (([], [0]), ([100], [])):
        with pytest.raises(ConfigError, match="at least one value and one seed"):
            run_sweep(cfg, "n_blocks", values, seeds, output_dir=str(tmp_path / "o"))
    assert not (tmp_path / "o").exists()


def test_failed_sweep_run_leaves_no_sweep_csv(tmp_path, monkeypatch):
    orig = scenario._sweep_metrics
    runs = []

    def fail_on_second_run(*args):
        runs.append(args)
        if len(runs) == 2:
            raise RuntimeError("run failed")
        return orig(*args)

    monkeypatch.setattr(scenario, "_sweep_metrics", fail_on_second_run)
    with pytest.raises(RuntimeError, match="run failed"):
        run_sweep(load_scenario(SMOKE), "n_blocks", [100], [0, 1], output_dir=str(tmp_path))
    assert len(runs) == 2
    assert list(tmp_path.iterdir()) == []


class Interrupted(BaseException):
    """Stands in for a KeyboardInterrupt, which pytest would act on."""


def interrupt_after_one_chunk(monkeypatch):
    orig = scenario.block_chunks

    def interrupted(*args):
        with closing(orig(*args)) as chunks:
            yield next(chunks)
        raise Interrupted

    monkeypatch.setattr(scenario, "block_chunks", interrupted)


def test_interrupted_run_leaves_no_output(tmp_path, monkeypatch):
    path = write_scenario(tmp_path, SMOKE.read_text() + "dump_snapshots = true\n")
    interrupt_after_one_chunk(monkeypatch)
    out = tmp_path / "o"
    with pytest.raises(Interrupted):
        run_scenario(load_scenario(path), output_dir=str(out))
    assert list(out.iterdir()) == []


def test_interrupted_sweep_leaves_no_sweep_csv(tmp_path, monkeypatch):
    interrupt_after_one_chunk(monkeypatch)
    with pytest.raises(Interrupted):
        run_sweep(load_scenario(SMOKE), "n_blocks", [100], [0], output_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_unknown_param(tmp_path):
    cfg = load_scenario(SMOKE)
    with pytest.raises(ConfigError):
        run_sweep(cfg, "q", [3], [0], output_dir=str(tmp_path))


def test_sweep_param_choices_are_the_sweep_params():
    parser = cli.build_parser()

    def accepted(param):
        try:
            parser.parse_args(["sweep", "x", "--param", param, "--values", "1"])
        except SystemExit:
            return False
        return True

    names = [f.name for f in fields(scenario.ScenarioConfig)]
    assert {f for f in names if accepted(f)} == set(scenario.SWEEP_PARAMS)


# ------------------------------------------------------------ CLI shell


def test_cli_certify_smoke_exits_zero(capsys):
    assert main(["certify", str(SMOKE)]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_cli_run_smoke(tmp_path, capsys):
    code = main(["run", str(SMOKE), "--output-dir", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "detections: 3" in out


def test_cli_missing_config_exits_2(capsys):
    assert main(["run", "/no/such/file"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_gate_failure_exits_3(tmp_path, capsys):
    bad = MINIMAL.replace("m_t = 5", "m_t = 3").replace("rows = 0 1 2 3 7\n", "")
    path = write_scenario(tmp_path, bad)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "o")]) == 3
    assert "design gate" in capsys.readouterr().err


def test_cli_out_of_memory_exits_4(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate the block chunk")

    monkeypatch.setattr(scenario, "block_chunks", exhausted)
    assert main(["run", str(SMOKE), "--output-dir", str(tmp_path / "o")]) == 4
    captured = capsys.readouterr()
    assert "Unable to allocate the block chunk" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_cli_import_leaves_scipy_unloaded():
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, jafs.cli; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def smoke_copy(tmp_path, old, new):
    text = SMOKE.read_text()
    assert old in text
    return write_scenario(tmp_path, text.replace(old, new, 1))


@pytest.mark.parametrize(
    "old, new",
    [
        ("rows = 0 1 2 3 7\n", "rows = 0 1 2 3 7\nseed = abc\n"),
        ("[noise]\nvariance = 5", "[noise]\nvariance = nan"),
        ("band_hi_pi = 0.2\nvariance = 5", "band_hi_pi = 0.2\nvariance = inf"),
        ("band_lo_pi = -0.8", "band_lo_pi = -inf"),
        ("q = 15\nmode = inverse-sin", "q = 3\nmode = explicit\nangles_deg = -30 nan 30"),
        ("n_blocks = 500\nseed = 0", "n_blocks = 500\nseed = -1"),
        ("rows = 0 1 2 3 7\n", "rows = 0 1 2 3 7\nseed = -1\n"),
        ("n_blocks = 500\nseed = 0", "n_blocks = 500\nseed = 0\nworkers = 0"),
        ("n_blocks = 500\nseed = 0", "n_blocks = 500\nseed = 0\nworkers = -2"),
        ("q = 15\nmode = inverse-sin", "q = 3\nmode = explicit\nangles_deg = 30 0 -30"),
        ("q = 15\nmode = inverse-sin", "q = 3\nmode = explicit\nangles_deg = -30 0 95"),
        ("[source.1]", "[source.x]"),
        ("n_underlying = 8\nspacing = 0.5\nmarks = 0 1 2 3 7",
         "n_underlying = 0\nspacing = 0.5\nmarks = solve"),
        ("n_underlying = 8\nspacing = 0.5\nmarks = 0 1 2 3 7",
         "n_underlying = -3\nspacing = 0.5\nmarks = solve"),
        ("n_blocks = 500\nseed = 0", "n_blocks = 10000000000000\nseed = 0"),
    ],
    ids=[
        "seed-abc",
        "noise-variance-nan",
        "source-variance-inf",
        "band-edge-inf",
        "grid-angle-nan",
        "run-seed-negative",
        "coset-seed-negative",
        "workers-zero",
        "workers-negative",
        "grid-angles-unsorted",
        "grid-angle-beyond-90",
        "source-section-not-integer",
        "n-underlying-zero-solved",
        "n-underlying-negative-solved",
        "n-blocks-over-the-work-limit",
    ],
)
def test_cli_bad_value_exits_2(tmp_path, capsys, old, new):
    path = smoke_copy(tmp_path, old, new)
    assert main(["run", str(path), "--output-dir", str(tmp_path / "o")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("n_underlying", [0, -3])
def test_solving_marks_without_antennas_names_the_key(tmp_path, capsys, n_underlying):
    path = smoke_copy(
        tmp_path, "n_underlying = 8\nspacing = 0.5\nmarks = 0 1 2 3 7",
        f"n_underlying = {n_underlying}\nspacing = 0.5\nmarks = solve",
    )
    assert main(["certify", str(path)]) == 2
    assert "[geometry] n_underlying" in capsys.readouterr().err


def test_one_antenna_solves_to_mark_zero(tmp_path):
    path = smoke_copy(tmp_path, "n_underlying = 8\nspacing = 0.5\nmarks = 0 1 2 3 7",
                      "n_underlying = 1\nspacing = 0.5\nmarks = solve")
    assert load_scenario(path).marks == (0,)


SMOKE_LINES = SMOKE.read_text().splitlines()
SMOKE_VALUES = [i for i, line in enumerate(SMOKE_LINES) if " = " in line]
# integers stay at most 14, so every ruler (N_t - 1 or N_s - 1 long) is
# enumerated, never searched
FUZZ_TOKENS = st.one_of(
    st.integers(-20, 14).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e309", "", "abc"]),
)
# sweep's arguments in the run and sweep fuzz: two short runs
FUZZ_SWEEP = ("--param", "n_blocks", "--values", "60,120")


# an explicit grid, so that single angles can be fuzzed
EXPLICIT_ANGLES = ["-30", "0", "30"]
EXPLICIT_TEXT = SMOKE.read_text().replace(
    "q = 15\nmode = inverse-sin", "q = 3\nmode = explicit\nangles_deg = {}"
)


def exits_cleanly(text, command="certify"):
    """certify exits 0, 2 or 3; run and sweep may also exit 4, a
    numerical failure.  None prints a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.scenario"
        path.write_text(text)
        argv = cli_args(command, path, Path(tmp), FUZZ_SWEEP)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in ((0, 2, 3) if command == "certify" else (0, 2, 3, 4))
    assert "Traceback" not in out.getvalue() + err.getvalue()


def fuzzed_smoke(line, token):
    lines = list(SMOKE_LINES)
    lines[line] = lines[line].split(" = ", 1)[0] + " = " + token
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(line=st.sampled_from(SMOKE_VALUES), token=FUZZ_TOKENS)
def test_cli_certify_fuzzed_smoke_value_exits_cleanly(line, token):
    exits_cleanly(fuzzed_smoke(line, token))


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["run", "sweep"]),
    line=st.sampled_from(SMOKE_VALUES),
    token=FUZZ_TOKENS,
)
def test_cli_run_and_sweep_fuzzed_smoke_value_exit_cleanly(command, line, token):
    exits_cleanly(fuzzed_smoke(line, token), command)


@settings(max_examples=60, deadline=None)
@given(
    index=st.integers(0, len(EXPLICIT_ANGLES) - 1),
    token=st.one_of(FUZZ_TOKENS, st.sampled_from(["95", "-95", "90", "-90", "neighbour"])),
)
def test_cli_certify_fuzzed_explicit_angle_exits_cleanly(index, token):
    angles = list(EXPLICIT_ANGLES)
    angles[index] = angles[index - 1] if token == "neighbour" else token
    exits_cleanly(EXPLICIT_TEXT.format(" ".join(angles)))


def forbid_simulation(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the design was accepted")

    monkeypatch.setattr(scenario, "block_chunks", no_simulation)


def cli_args(command, path, tmp_path, sweep=("--param", "n_blocks", "--values", "50")):
    out = ["--output-dir", str(tmp_path / "o")]
    return {
        "certify": ["certify", str(path)],
        "run": ["run", str(path)] + out,
        "sweep": ["sweep", str(path), *sweep] + out,
    }[command]


BAND = "band_lo_pi = -0.1\nband_hi_pi = 0.2"
ROWS = "m_t = 5\nrows = 0 1 2 3 7\n"
# smoke's four variances, from the first source's to the noise's
VARIANCES = re.search(r"variance = 5\n.*variance = 5\n", SMOKE.read_text(), re.S).group()


@pytest.mark.parametrize("command", ["certify", "run", "sweep"])
@pytest.mark.parametrize(
    "old, new, code, message",
    [
        # N_t = 8 resolves bands down to 0.25pi
        (BAND, "band_lo_pi = 0\nband_hi_pi = 0.1", 3, "band-resolution"),
        (BAND, "band_lo_pi = 0.05\nband_hi_pi = 0.2", 3, "band-resolution"),
        (ROWS, "m_t = 5\nrows = 0 1 2 3 4\n", 3, "lag-coverage"),
        (ROWS, "m_t = 3\nrows = 0 1 2\n", 3, "temporal-overdetermination"),
        ("q = 15", "q = 40", 3, "kr-rank"),
        (ROWS, "m_t = 5\nrows = 0 1 2 3 8\n", 2, "coset rows must lie in [0, 7]"),
        (ROWS, "m_t = 5\nrows = 0 1 2 3 3\n", 2, "coset rows must be distinct"),
        (ROWS, "m_t = 9\n", 2, "m_t = 9 exceeds n_t = 8"),
        # every antenna pair sees the same phase, so the Khatri-Rao rank is 1
        ("spacing = 0.5", "spacing = 1e-300", 3, "kr-rank"),
        ("mode = estimate", "mod = known", 2, "[noise] unknown key 'mod'"),
        ("output_dir", "peak_treshold = 0.9\noutput_dir", 2,
         "[run] unknown key 'peak_treshold'"),
        ("n_blocks = 500", "n_blocks = 500\nn_block = 7", 2, "[run] unknown key 'n_block'"),
        ("doa_deg = 0", "doa_deg = 0\ndoa = 3", 2, "[source.2] unknown key 'doa'"),
        ("[noise]", "[nosie]\nmode = known\n\n[noise]", 2, "unknown section [nosie]"),
        # [DEFAULT] keys are keys of every section
        ("[geometry]", "[DEFAULT]\nseed = 0\n\n[geometry]", 2,
         "[geometry] unknown key 'seed'"),
        # values are literal: no interpolation reads [run] seed here
        ("n_blocks = 500", "n_blocks = %(seed)s", 2, "is not an integer"),
        # the variances sum past MAX_TOTAL_VARIANCE
        ("[noise]\nvariance = 5", "[noise]\nvariance = 1e36", 2,
         "[noise] variance = 1e+36 is too large"),
        ("band_hi_pi = 0.2\nvariance = 5", "band_hi_pi = 0.2\nvariance = 1e36", 2,
         "[source.N] variance (source 2 of 3) = 1e+36 is too large"),
        # ... or to a positive sum where they underflow
        (VARIANCES, VARIANCES.replace("variance = 5", "variance = 1e-50"), 2,
         "[source.N] variance (source 1 of 3) = 1e-50 is too small"),
    ],
    ids=[
        "band-0.1pi",
        "band-0.15pi",
        "rows-miss-lags",
        "m_t-3",
        "q-40",
        "row-out-of-range",
        "row-repeated",
        "m_t-above-n_t",
        "spacing-1e-300",
        "noise-mod",
        "run-peak-treshold",
        "run-n-block",
        "source-doa",
        "section-nosie",
        "default-seed",
        "n_blocks-interpolated",
        "noise-variance-1e36",
        "source-variance-1e36",
        "variance-1e-50",
    ],
)
def test_cli_commands_agree_before_simulating(
    tmp_path, capsys, monkeypatch, command, old, new, code, message
):
    path = smoke_copy(tmp_path, old, new)
    forbid_simulation(monkeypatch)
    assert main(cli_args(command, path, tmp_path)) == code
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("run", ("--seed", "-5")),
        ("sweep", ("--param", "n_blocks", "--values", "50", "--seeds", "-3")),
        ("sweep", ("--param", "n_blocks", "--values", "0")),
        ("sweep", ("--param", "n_blocks", "--values", ",")),
        ("sweep", ("--param", "n_blocks", "--values", "50", "--seeds", ",")),
    ],
    ids=[
        "run-seed-negative",
        "sweep-seeds-negative",
        "sweep-n_blocks-0",
        "sweep-values-empty",
        "sweep-seeds-empty",
    ],
)
def test_cli_override_out_of_range_exits_2(
    tmp_path, capsys, monkeypatch, command, overrides
):
    forbid_simulation(monkeypatch)
    args = [command, str(SMOKE), *overrides, "--output-dir", str(tmp_path / "o")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "args",
    [
        ("run", "{smoke}", "--output-dir", "{file}"),
        ("sweep", "{smoke}", "--param", "n_blocks", "--values", "50", "--output-dir", "{file}"),
        ("run", "{smoke}", "--output-dir", "{file}/o"),
        ("certify", "{not_utf8}"),
        ("run", "{nul_output_dir}"),
    ],
    ids=[
        "run-output-dir-is-file",
        "sweep-output-dir-is-file",
        "output-dir-under-file",
        "scenario-not-utf8",
        "output-dir-nul",
    ],
)
def test_cli_unusable_path_exits_2(tmp_path, capsys, monkeypatch, args):
    forbid_simulation(monkeypatch)
    paths = {
        "smoke": SMOKE,
        "file": tmp_path / "file",
        "not_utf8": tmp_path / "bad.scenario",
        "nul_output_dir": smoke_copy(tmp_path, "output_dir = ", "output_dir = o\0"),
    }
    paths["file"].write_text("")
    paths["not_utf8"].write_bytes(b"\xff\xfe[geometry]\n")
    assert main([a.format(**paths) for a in args]) == 2
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_percent_in_a_value_is_read_literally(tmp_path):
    path = smoke_copy(tmp_path, "output_dir = out/smoke", "output_dir = out%x")
    assert load_scenario(path).output_dir == "out%x"


@pytest.mark.parametrize(
    "command, blocked, extra",
    [
        ("run", "spectrum_plot.csv", ""),
        ("run", "compressed_blocks.bin", "dump_snapshots = true\n"),
        ("sweep", "sweep.csv", ""),
    ],
    ids=["run-csv", "run-dump", "sweep-csv"],
)
def test_output_that_cannot_be_written_exits_2(
    tmp_path, capsys, monkeypatch, command, blocked, extra
):
    path = write_scenario(tmp_path, SMOKE.read_text() + extra)
    out = tmp_path / "o"
    (out / blocked).mkdir(parents=True)
    if command == "sweep":
        # a sweep opens its CSV before the first run
        forbid_simulation(monkeypatch)
    assert main(cli_args(command, path, tmp_path)) == 2
    captured = capsys.readouterr()
    assert f"configuration error: cannot write {out / blocked}: " in captured.err
    assert "Traceback" not in captured.out + captured.err
    # a run removes the outputs it wrote before the failed one
    assert [p.name for p in out.iterdir()] == [blocked]


# a value just outside each (bounds, type) of the scenario key table
OUTSIDE = {
    (">= 0", int): ["-1"],
    (">= 0", float): ["-5e-324"],
    (">= 1", int): ["0"],
    ("in (0, 1]", float): ["0", "1.0000000000000002"],
}
BOUNDED = [key for key in scenario.KEYS if key.bounds]


@pytest.mark.parametrize("key", BOUNDED, ids=[f"{k.section}-{k.key}" for k in BOUNDED])
def test_value_just_outside_its_bounds_exits_2(tmp_path, capsys, monkeypatch, key):
    forbid_simulation(monkeypatch)
    label = f"[{key.section}] {key.key}"
    for value in OUTSIDE[key.bounds, key.kind]:
        parser = configparser.ConfigParser()
        parser.read_string(SMOKE.read_text())
        parser[key.section][key.key] = value
        path = tmp_path / "case.scenario"
        with open(path, "w") as fh:
            parser.write(fh)
        assert main(["certify", str(path)]) == 2
        assert f"{label} = " in capsys.readouterr().err
        if key.field in scenario.SWEEP_PARAMS:
            sweep = ("--param", key.field, "--values", value)
            assert main(cli_args("sweep", SMOKE, tmp_path, sweep)) == 2
            assert f"{label} = {value} must be {key.bounds}" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()


def test_cli_sweep_m_t_above_n_t_exits_2_before_any_run(tmp_path, capsys, monkeypatch):
    path = smoke_copy(tmp_path, ROWS, "m_t = 5\n")
    forbid_simulation(monkeypatch)
    sweep = ("--param", "m_t", "--values", "5,9")
    assert main(cli_args("sweep", path, tmp_path, sweep)) == 2
    assert "m_t = 9 exceeds n_t = 8" in capsys.readouterr().err


def test_certify_keeps_every_gate_record(tmp_path):
    path = smoke_copy(tmp_path, BAND, "band_lo_pi = 0.05\nband_hi_pi = 0.2")
    gates = run_certify(load_scenario(path))["gates"]
    assert [g["name"] for g in gates] == [
        "temporal-overdetermination",
        "band-resolution",
        "spatial-overdetermination",
        "grid-size-advisory",
        "lag-coverage",
        "kr-rank",
    ]
    assert [g["passed"] for g in gates] == [True, False, True, True, True, True]
    assert all(set(g) == {"name", "level", "passed", "detail"} for g in gates)


def count_calls(monkeypatch, names):
    """Count calls of each (name, home module) wherever the package holds
    a reference to it; returns the live count dict."""
    calls = {}
    modules = (cli, estimate, geometry, model, oracle, scenario, simulate)
    for name, home in names:
        orig = getattr(home, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _orig(*args, **kwargs)

        for mod in modules:
            if getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("command", ["certify", "run", "sweep"])
def test_cli_m_t_below_coset_ruler_cardinality_exits_3(
    tmp_path, capsys, monkeypatch, command
):
    # the flagship's length-83 coset ruler has 16 marks; m_t = 13 still
    # passes the M_t^2 >= 2N_t-1 gate
    text = FLAGSHIP.read_text()
    assert "m_t = 34" in text
    path = write_scenario(tmp_path, text.replace("m_t = 34", "m_t = 13", 1))
    forbid_simulation(monkeypatch)
    calls = count_calls(monkeypatch, [("solve_sparse_ruler", geometry)])
    sweep = ("--param", "m_t", "--values", "13")
    assert main(cli_args(command, path, tmp_path, sweep)) == 3
    assert "coset-ruler-cardinality" in capsys.readouterr().err
    assert calls == {"solve_sparse_ruler": 1}


def test_coset_ruler_cardinality_gate_record():
    cfg = replace(load_scenario(FLAGSHIP), m_t=13)
    with pytest.raises(CosetCardinalityError):
        scenario.pattern_of(cfg)
    resolved = resolve(cfg)
    assert resolved.design is None and resolved.certificates is None
    gate = resolved.gates[-1]
    assert gate["name"] == "coset-ruler-cardinality"
    assert gate["level"] == "hard" and gate["passed"] is False


def test_solved_marks_are_not_solved_again_after_load(tmp_path, monkeypatch):
    cfg = load_scenario(smoke_copy(tmp_path, "marks = 0 1 2 3 7", "marks = solve"))
    assert cfg.marks == geometry.solve_sparse_ruler(7).marks
    calls = count_calls(monkeypatch, [("solve_sparse_ruler", geometry)])
    run_certify(cfg)
    run_scenario(cfg, output_dir=str(tmp_path / "run"))
    run_sweep(cfg, "n_blocks", [100, 200], [0, 1], output_dir=str(tmp_path / "sweep"))
    assert calls == {}


def test_sweep_over_m_t_solves_each_coset_ruler_once(tmp_path, monkeypatch):
    # length 15 is neither curated nor enumerated, so every solve of it
    # runs the branch-and-bound search
    text = SMOKE.read_text().replace(ROWS, "m_t = 7\n").replace("n_t = 8", "n_t = 16")
    cfg = load_scenario(write_scenario(tmp_path, text))
    cfg = replace(cfg, n_blocks=50)
    geometry.solve_sparse_ruler.cache_clear()
    calls = count_calls(monkeypatch, [("_gap_search", geometry)])
    path = run_sweep(cfg, "m_t", [7, 8], [0, 1], output_dir=str(tmp_path / "sweep"))
    assert len(path.read_text().splitlines()) == 5
    assert calls == {"_gap_search": 1}


def test_run_scenario_resolves_design_once(tmp_path, monkeypatch):
    cfg = load_scenario(SMOKE)
    calls = count_calls(monkeypatch, [("rank_report", model), ("pattern_of", scenario)])
    run_scenario(cfg, output_dir=str(tmp_path))
    assert calls == {"rank_report": 1, "pattern_of": 1}


def test_predicted_normals_match_the_draws(tmp_path, monkeypatch):
    # two whole chunks and a cut third one: the draws run to the end of
    # the last chunk
    cfg = replace(load_scenario(SMOKE), n_blocks=2 * simulate.chunk_blocks(8) + 7)
    drawn = []

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def random(self, *, out):
            drawn.append(out.size // 2)
            return self.rng.random(out=out)

    for name in ("noise_rng", "source_rng"):
        orig = getattr(simulate, name)
        monkeypatch.setattr(
            simulate, name, lambda *args, _orig=orig: Counting(_orig(*args))
        )
    predicted = run_certify(cfg)["cost"]
    report = run_scenario(cfg, output_dir=str(tmp_path))
    assert report["cost"] == predicted
    assert sum(drawn) == predicted["complex_normals"]
    m_s, m_t = len(cfg.marks), cfg.m_t
    assert predicted["gram_flops"] == 8 * cfg.n_blocks * (m_s * m_t) ** 2
    # without noise only the sources draw
    drawn.clear()
    quiet = replace(cfg, noise_variance=0.0, noise_mode="known")
    run_scenario(quiet, output_dir=str(tmp_path))
    assert sum(drawn) == run_certify(quiet)["cost"]["complex_normals"]


def test_cli_certify_prints_the_predicted_cost(capsys):
    assert main(["certify", str(SMOKE)]) == 0
    cost = run_certify(load_scenario(SMOKE))["cost"]
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("cost:")]
    assert lines == [
        f"cost: {cost['complex_normals']:.4g} complex normals drawn, "
        f"{cost['gram_flops']:.4g} Gram flops"
    ]


def test_cli_certify_prints_the_simulator_memory(capsys):
    cfg = replace(load_scenario(SMOKE), workers=3)
    report = run_certify(cfg)
    assert report["draw_threads"] == 3
    per = simulate.chunk_blocks(cfg.n_t)
    chunk_bytes = simulate.BLOCK_DTYPE.itemsize * per * len(cfg.marks) * cfg.m_t
    assert report["cost"]["block_buffer_bytes"] > 3 * chunk_bytes
    assert main(["certify", str(SMOKE)]) == 0
    plain = run_certify(load_scenario(SMOKE))
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("memory:")]
    assert lines == [
        f"memory: {plain['cost']['block_buffer_bytes']:.4g} bytes of simulator buffers, "
        f"{plain['draw_threads']} draw threads"
    ]


def test_run_report_records_the_draw_threads(tmp_path):
    cfg = replace(load_scenario(SMOKE), workers=2, n_blocks=300)
    report = run_scenario(cfg, output_dir=str(tmp_path))
    assert report["draw_threads"] == 2
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["draw_threads"] == 2
    assert on_disk["cost"] == run_certify(cfg)["cost"]


def blas_thread_count():
    """The calling thread's OpenBLAS thread count, left as it was."""
    setter = simulate._numpy_blas().openblas_set_num_threads_local
    count = setter(1)
    setter(count)
    return count


needs_blas_control = pytest.mark.skipif(
    not hasattr(simulate._numpy_blas(), "openblas_set_num_threads_local"),
    reason="numpy's BLAS has no per-thread thread count",
)


@needs_blas_control
def test_run_and_sweep_fold_on_one_blas_thread(tmp_path, monkeypatch):
    counts = []
    orig = estimate.block_gram

    def recording_gram(blocks):
        counts.append(blas_thread_count())
        return orig(blocks)

    monkeypatch.setattr(estimate, "block_gram", recording_gram)
    before = blas_thread_count()
    cfg = replace(load_scenario(SMOKE), n_blocks=2 * simulate.chunk_blocks(8) + 3)
    report = run_scenario(cfg, output_dir=str(tmp_path / "run"))
    assert report["blas_threads"] == 1
    assert blas_thread_count() == before
    run_sweep(cfg, "n_blocks", [5000], [0], output_dir=str(tmp_path / "sweep"))
    assert blas_thread_count() == before
    assert len(counts) == 6 and set(counts) == {1}


@needs_blas_control
def test_every_command_runs_its_blas_on_one_thread(tmp_path, monkeypatch):
    # every np.linalg function and the Gram and FIR products record the
    # count they run at
    counts = {}

    def record(name, orig):
        def recording(*args, **kwargs):
            counts.setdefault(name, set()).add(blas_thread_count())
            return orig(*args, **kwargs)

        return recording

    for name in np.linalg.__all__:
        orig = getattr(np.linalg, name)
        if callable(orig) and not isinstance(orig, type):
            monkeypatch.setattr(np.linalg, name, record(name, orig))
    for module, name in ((estimate, "block_gram"), (simulate, "_fir_blocks")):
        monkeypatch.setattr(module, name, record(name, getattr(module, name)))

    before = blas_thread_count()
    cfg = replace(load_scenario(SMOKE), n_blocks=300)
    run_certify(cfg)
    assert blas_thread_count() == before
    run_scenario(cfg, output_dir=str(tmp_path / "run"))
    assert blas_thread_count() == before
    run_sweep(cfg, "n_blocks", [300], [0, 1], output_dir=str(tmp_path / "sweep"))
    assert blas_thread_count() == before
    assert {"svd", "lstsq", "norm", "block_gram", "_fir_blocks"} <= set(counts)
    assert all(seen == {1} for seen in counts.values()), counts

    # a design refused in resolve leaves the count as it was
    loud = replace(cfg, noise_variance=1e36)
    with pytest.raises(ConfigError):
        resolve(loud)
    assert blas_thread_count() == before
    for command in (
        lambda: run_certify(loud),
        lambda: run_scenario(loud, output_dir=str(tmp_path / "loud")),
        lambda: run_sweep(loud, "n_blocks", [300], [0], output_dir=str(tmp_path / "loud")),
    ):
        with pytest.raises(ConfigError, match="too large"):
            command()
        assert blas_thread_count() == before


@needs_blas_control
def test_blas_thread_count_is_restored_when_the_fold_raises(tmp_path, monkeypatch):
    before = blas_thread_count()
    calls = []
    orig = estimate.block_gram

    def fail_on_second_chunk(blocks):
        calls.append(blas_thread_count())
        if len(calls) == 2:
            raise RuntimeError("estimator failed mid-stream")
        return orig(blocks)

    monkeypatch.setattr(estimate, "block_gram", fail_on_second_chunk)
    cfg = replace(load_scenario(SMOKE), n_blocks=3 * simulate.chunk_blocks(8))
    with pytest.raises(RuntimeError, match="mid-stream"):
        run_scenario(cfg, output_dir=str(tmp_path))
    assert calls == [1, 1]
    assert blas_thread_count() == before


@needs_blas_control
def test_overlapping_folds_keep_one_blas_thread_until_the_last_closes():
    # two threads open folds in the order A in, B in, A out, B out
    setter = simulate._numpy_blas().openblas_set_num_threads_local
    original = setter(2)
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    during_b = []

    def fold_a():
        with simulate.one_blas_thread():
            a_in.set()
            assert b_in.wait(10)
        a_out.set()

    def fold_b():
        assert a_in.wait(10)
        with simulate.one_blas_thread():
            b_in.set()
            assert a_out.wait(10)
            during_b.append(blas_thread_count())

    try:
        before = blas_thread_count()
        threads = [threading.Thread(target=f) for f in (fold_a, fold_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
        assert not any(t.is_alive() for t in threads)
        assert (before, during_b, blas_thread_count()) == (2, [1], 2)
    finally:
        setter(original)


@needs_blas_control
def test_blas_thread_count_is_restored_when_a_generator_is_closed():
    before = blas_thread_count()

    def folding():
        with simulate.one_blas_thread() as threads:
            yield threads, blas_thread_count()
            yield None

    gen = folding()
    assert next(gen) == (1, 1)
    gen.close()
    assert blas_thread_count() == before


def test_fold_runs_without_per_thread_blas_control(tmp_path, monkeypatch):
    # MKL, Accelerate or an OpenBLAS before 0.3.27: no symbol to call
    monkeypatch.setattr(simulate, "_numpy_blas", lambda: types.SimpleNamespace())
    cfg = replace(load_scenario(SMOKE), n_blocks=300)
    report = run_scenario(cfg, output_dir=str(tmp_path / "run"))
    assert report["blas_threads"] is None
    assert json.loads((tmp_path / "run" / "report.json").read_text())["blas_threads"] is None
    run_sweep(cfg, "n_blocks", [300], [0], output_dir=str(tmp_path / "sweep"))


def test_one_blas_thread_keeps_the_simulated_blocks():
    # flagship seed 0, two chunks and a cut one: the draws, FIRs and
    # steering give the same bits at one BLAS thread and at the default
    cfg = load_scenario(FLAGSHIP)
    design = resolve(cfg).design
    args = (cfg.sources, design.geometry, design.pattern, cfg.noise_variance)
    n_blocks = 2 * simulate.chunk_blocks(cfg.n_t) + 5
    default = simulate.compressed_blocks(*args, n_blocks, cfg.master_seed)
    with simulate.one_blas_thread():
        one = simulate.compressed_blocks(*args, n_blocks, cfg.master_seed)
    np.testing.assert_array_equal(one.blocks, default.blocks)


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("certify", ()),
        ("run", ("--seed", "1")),
        ("sweep", ("--param", "n_blocks", "--values", "50,10000000000000")),
    ],
    ids=["certify", "run-seed", "sweep-values"],
)
def test_cli_work_above_the_limit_exits_2(tmp_path, capsys, monkeypatch, command, overrides):
    # smoke at 10^13 blocks: 6.4e14 complex normals and 5e16 Gram flops
    if command == "sweep":
        path = SMOKE
    else:
        path = smoke_copy(tmp_path, "n_blocks = 500", "n_blocks = 10000000000000")
    forbid_simulation(monkeypatch)
    out = () if command == "certify" else ("--output-dir", str(tmp_path / "o"))
    assert main([command, str(path), *overrides, *out]) == 2
    captured = capsys.readouterr()
    assert "[run] n_blocks = 10000000000000 is too much work" in captured.err
    assert "6.4e+14 complex normals" in captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "o").exists()


def test_variance_limit_is_judged_on_the_sum():
    cfg = load_scenario(SMOKE)
    bound = scenario.MAX_TOTAL_VARIANCE
    # 5 + 5 + 5 + bound rounds to the bound itself
    assert resolve(replace(cfg, noise_variance=bound)).design is not None
    with pytest.raises(ConfigError, match=r"\[noise\] variance = 6.49e\+32 is too large"):
        resolve(replace(cfg, noise_variance=2 * bound))
    sources = tuple(replace(s, input_variance=bound / 2) for s in cfg.sources)
    with pytest.raises(ConfigError, match="source 1 of 3"):
        resolve(replace(cfg, sources=sources))
    # four quarters of the lower bound reach it; three do not, and a sum
    # of 0 (no sources, no noise) is admitted
    tiny = scenario.MIN_TOTAL_VARIANCE
    quiet = tuple(replace(s, input_variance=tiny / 4) for s in cfg.sources)
    assert resolve(replace(cfg, sources=quiet, noise_variance=tiny / 4)).design is not None
    with pytest.raises(ConfigError, match=r"source 1 of 3\) = 2.9\d*e-39 is too small"):
        resolve(replace(cfg, sources=quiet, noise_variance=0.0))
    assert resolve(replace(cfg, sources=(), noise_variance=0.0)).design is not None


def test_variance_limit_keeps_the_largest_chunk_gram_finite():
    # at N_t = 1 a chunk holds the most blocks, chunk_blocks(1)
    geo = model.ArrayGeometry(2, 0.5, (0, 1))
    pattern = simulate.CosetPattern(1, (0,))
    per = simulate.chunk_blocks(1)

    def chunk_gram(variance):
        chunks = simulate.block_chunks((), geo, pattern, variance, per, 0, 1)
        return estimate.accumulate_gram(chunks)[0]

    bound = scenario.MAX_TOTAL_VARIANCE
    assert np.isfinite(chunk_gram(bound)).all()
    # at 128 times the bound the Gram's diagonal averages twice float32's max
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="Gram is not finite"):
        chunk_gram(128 * bound)


def test_flagship_is_far_below_the_work_limit():
    cfg = load_scenario(FLAGSHIP)
    assert resolve(replace(cfg, n_blocks=cfg.n_blocks * 10**4)).design is not None


def test_cli_sweep(tmp_path, capsys):
    code = main(
        [
            "sweep",
            str(SMOKE),
            "--param",
            "n_blocks",
            "--values",
            "100,200",
            "--seeds",
            "0",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
