"""The bingo-sim CLI."""

import pytest

from repro import cli


def test_list_command(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "bingo" in out
    assert "em3d" in out
    assert "fig8" in out


def test_run_command(capsys):
    code = cli.main(
        ["run", "-w", "streaming", "-p", "nextline",
         "--instructions", "3000", "--warmup", "500"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "coverage" in out
    assert "streaming / nextline" in out


def test_run_with_baseline(capsys):
    code = cli.main(
        ["run", "-w", "streaming", "-p", "nextline",
         "--instructions", "3000", "--warmup", "500", "--baseline"]
    )
    assert code == 0
    assert "speedup" in capsys.readouterr().out


def test_compare_command(capsys):
    code = cli.main(
        ["compare", "-w", "streaming", "-p", "nextline", "stride",
         "--instructions", "3000", "--warmup", "500"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "nextline" in out and "stride" in out and "none" in out


def test_sweep_command_parallel_with_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = [
        "sweep", "-w", "streaming", "-p", "nextline",
        "--parameter", "degree", "--values", "1", "2",
        "--workers", "2", "--instructions", "3000", "--warmup", "500",
    ]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "sweep of degree" in out
    assert "2 executed" in out
    # the re-run is answered entirely from the on-disk cache
    assert cli.main(argv) == 0
    assert "2 cache hits" in capsys.readouterr().out


def test_sweep_command_no_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = [
        "sweep", "-w", "streaming", "-p", "nextline",
        "--parameter", "degree", "--values", "1", "--no-cache",
        "--instructions", "3000", "--warmup", "500",
    ]
    assert cli.main(argv) == 0
    assert cli.main(argv) == 0
    assert "0 cache hits" in capsys.readouterr().out
    assert not list(tmp_path.rglob("*.json"))


def test_run_with_trace_writes_jsonl(capsys, tmp_path):
    trace = tmp_path / "run.jsonl"
    code = cli.main(
        ["run", "-w", "streaming", "-p", "nextline",
         "--instructions", "3000", "--warmup", "500",
         "--trace", str(trace)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"events written to {trace}" in out
    assert trace.is_file() and trace.stat().st_size > 0


def test_run_with_trace_limit(tmp_path):
    trace = tmp_path / "run.jsonl"
    assert cli.main(
        ["run", "-w", "streaming", "-p", "nextline",
         "--instructions", "3000", "--warmup", "500",
         "--trace", str(trace), "--trace-limit", "10"]
    ) == 0
    assert len(trace.read_text(encoding="utf-8").splitlines()) == 10


def test_run_with_timeline_table_and_export(capsys, tmp_path):
    export = tmp_path / "timeline.csv"
    code = cli.main(
        ["run", "-w", "streaming", "-p", "nextline",
         "--instructions", "3000", "--warmup", "500",
         "--timeline", "1000", "--timeline-export", str(export)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "ipc" in out and "mpki" in out
    assert export.is_file()
    assert "instructions" in export.read_text(encoding="utf-8").splitlines()[0]


def test_timeline_export_requires_timeline(capsys, tmp_path):
    code = cli.main(
        ["run", "-w", "streaming", "-p", "nextline",
         "--instructions", "3000",
         "--timeline-export", str(tmp_path / "t.csv")]
    )
    assert code == 2
    assert "--timeline" in capsys.readouterr().err


def test_run_with_profile(capsys):
    code = cli.main(
        ["run", "-w", "streaming", "-p", "nextline",
         "--instructions", "3000", "--warmup", "500", "--profile"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "cumulative" in out  # the cProfile table made it to stdout
    assert "coverage" in out    # and the normal report still printed


def test_experiment_table1(capsys):
    assert cli.main(["experiment", "table1"]) == 0
    assert "Table I" in capsys.readouterr().out


def test_unknown_experiment_rejected(capsys):
    # no longer an argparse ``choices`` SystemExit: the id became
    # optional when ``--space`` arrived, so the command validates it
    assert cli.main(["experiment", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_experiment_without_id_or_space_rejected(capsys):
    assert cli.main(["experiment"]) == 2
    assert "--space" in capsys.readouterr().err


def test_experiment_space_against_a_live_service(capsys, tmp_path):
    import json
    import threading

    from repro.serve import ServiceConfig, SimulationService, make_server

    service = SimulationService(
        ServiceConfig(workers=2, job_timeout=60.0, cache_dir=None)
    ).start()
    server = make_server(service, host="127.0.0.1", port=0)
    host, port = server.server_address[:2]
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        daemon=True,
    )
    thread.start()
    space = tmp_path / "space.json"
    space.write_text(json.dumps({
        "workloads": ["streaming"],
        "prefetchers": ["nextline"],
        "knobs": {"degree": [1, 2, 3, 4]},
        "base": {"seed": 7, "scale": 0.02, "compile": False,
                 "warmup": 500, "system": "experiment"},
    }))
    try:
        code = cli.main(
            ["experiment", "--space", f"@{space}",
             "--url", f"http://{host}:{port}", "--objective", "throughput",
             "--screen", "750", "--full", "3000", "--eta", "2"]
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5.0)
        service.drain(timeout=10.0)
    assert code == 0
    out = capsys.readouterr().out
    rounds = [line for line in out.splitlines() if line.startswith("round ")]
    assert rounds == [
        "round 0: 750 instructions, 4 candidates -> 2 promoted",
        "round 1: 1500 instructions, 2 candidates -> 1 promoted",
        "round 2: 3000 instructions, 1 candidates -> 1 promoted",
    ]
    assert "experiment winner" in out
    assert "throughput" in out and "nextline" in out


def test_check_command(capsys):
    code = cli.main(
        ["check", "-w", "streaming", "-p", "bingo", "-p", "bop",
         "--instructions", "3000", "--warmup", "500"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "streaming/bingo: OK" in out
    assert "streaming/bop: OK" in out
    assert "OK: 2 checks" in out


def test_list_shows_replacement_policies(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "replacement:" in out
    assert "arc" in out and "opt" in out
    assert "zipf" in out  # the stress workloads ride along in the listing


def test_run_with_replacement(capsys):
    code = cli.main(
        ["run", "-w", "streaming", "-p", "nextline",
         "--instructions", "3000", "--warmup", "500",
         "--replacement", "arc"]
    )
    assert code == 0
    assert "coverage" in capsys.readouterr().out


def test_run_with_opt_forces_compilation(capsys):
    """--replacement opt needs packed arenas; the CLI flips compile on."""
    code = cli.main(
        ["run", "-w", "streaming", "-p", "none",
         "--instructions", "3000", "--warmup", "500",
         "--replacement", "opt"]
    )
    assert code == 0
    assert "coverage" in capsys.readouterr().out


def test_run_rejects_unknown_replacement(capsys):
    with pytest.raises(SystemExit):
        cli.main(
            ["run", "-w", "streaming", "--replacement", "mru",
             "--instructions", "3000"]
        )


def test_check_with_replacement(capsys):
    code = cli.main(
        ["check", "-w", "streaming", "-p", "bingo",
         "--instructions", "3000", "--warmup", "500",
         "--replacement", "lru-interface"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "streaming/bingo: OK" in out


def test_sweep_with_replacement(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    base = [
        "sweep", "-w", "streaming", "-p", "nextline",
        "--parameter", "degree", "--values", "1",
        "--instructions", "3000", "--warmup", "500",
    ]
    assert cli.main(base + ["--replacement", "fifo"]) == 0
    assert "1 executed" in capsys.readouterr().out
    # a different policy is a different digest: no cross-policy cache hit
    assert cli.main(base + ["--replacement", "2q"]) == 0
    out = capsys.readouterr().out
    assert "0 cache hits" in out and "1 executed" in out


def test_run_stress_workload(capsys):
    code = cli.main(
        ["run", "-w", "oscillate", "-p", "nextline",
         "--instructions", "3000", "--warmup", "500"]
    )
    assert code == 0
    assert "oscillate / nextline" in capsys.readouterr().out


def test_sweep_check_flag_bypasses_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    argv = [
        "sweep", "-w", "streaming", "-p", "nextline",
        "--parameter", "degree", "--values", "1", "2",
        "--instructions", "3000", "--warmup", "500", "--check",
    ]
    assert cli.main(argv) == 0
    assert "2 executed" in capsys.readouterr().out
    # the second checked run must execute again, not answer from cache
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "0 cache hits" in out and "2 executed" in out
