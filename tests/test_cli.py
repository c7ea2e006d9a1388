import contextlib
import functools
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dpseries
from dpseries import Region, oracle
from dpseries.cli import run


def test_classify_text(capsys):
    assert run(["classify", "--n", "2", "--alpha", "0", "--sigma", "1/2"]) == 0
    assert capsys.readouterr().out.strip() == "Case2b, sigma_tilde=2"


def test_classify_json_round_trip(capsys):
    assert run(["classify", "--n", "2", "--alpha", "0", "--sigma", "1/2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "Case2b"
    assert payload["sigma_tilde"] == "2"
    assert payload["k"] == 1


def test_omega_trivial_point(capsys):
    assert run(["omega", "--p", "0", "--q", "0", "--n", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == (
        "target I^0(-3/2); Omega = L(0,1); K-types: {lambda=(0,0)} (trivial representation)"
    )


def test_omega_generated(capsys):
    assert run(["omega", "--p", "2", "--q", "2", "--n", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("target I^0(1/2); Omega = <L(1,0)> = L(0,0) + L(1,0) + L(1,1)")


def test_omega_runs_the_greedy_extremes_once(monkeypatch, capsys):
    from dpseries import constituents

    extremes = constituents.Region.__dict__["_extremes"].func
    greedy_runs = []  # one entry per evaluation of a region's extreme members
    counted = functools.cached_property(lambda self: greedy_runs.append(self) or extremes(self))
    counted.__set_name__(constituents.Region, "_extremes")
    monkeypatch.setattr(constituents.Region, "_extremes", counted)
    for argv, out in [
        (
            ["--p", "0", "--q", "0", "--n", "2"],
            "target I^0(-3/2); Omega = L(0,1); K-types: {lambda=(0,0)} (trivial representation)",
        ),
        (
            ["--p", "5", "--q", "2", "--n", "3"],
            "target I^3(3/2); Omega = <L(1,1)> = L(1,0) + L(1,1) + L(2,1);"
            " generator K-types: {lambda_1 >= 0, lambda_2 >= -1, lambda_3 <= 0}",
        ),
    ]:
        constituents._point.cache_clear()  # fresh regions, with nothing computed yet
        greedy_runs.clear()
        assert run(["omega", *argv]) == 0
        assert capsys.readouterr().out == out + "\n"
        assert len(greedy_runs) == 1, argv


def test_diagram_dot(capsys):
    assert run(["diagram", "--n", "2", "--alpha", "0", "--sigma", "1/2", "--format", "dot"]) == 0
    first = capsys.readouterr().out
    assert first.count("->") == 2
    for node in ("L(0,0)", "L(1,0)", "L(1,1)"):
        assert f'"{node}"' in first
    run(["diagram", "--n", "2", "--alpha", "0", "--sigma", "1/2", "--format", "dot"])
    assert capsys.readouterr().out == first  # byte-identical across runs


def test_constituents_json(capsys):
    assert run(["constituents", "--n", "2", "--alpha", "0", "--sigma", "1/2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["index_bound"] == ["r2", 1]
    assert [c["label"] for c in payload["constituents"]] == ["L(0,0)", "L(1,0)", "L(1,1)"]


def test_socle_text(capsys):
    assert run(["socle", "--n", "2", "--alpha", "0", "--sigma", "1/2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["layer 1: L(0,0) L(1,1)", "layer 2: L(1,0)"]


def test_unitary_text(capsys):
    assert run(["unitary", "--n", "2", "--alpha", "0", "--sigma", "1/2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert all("unitarizable" in line for line in out)
    assert len(out) == 3


def test_unitary_json_at_an_irreducible_point(capsys):
    point = ["--n", "3", "--alpha", "1", "--sigma", "1/3"]
    assert run(["unitary", *point, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"unitarizable": True, "reason": "complementary-series", "witness": None}
    point = ["--n", "3", "--alpha", "1", "--sigma", "7/3"]
    assert run(["unitary", *point, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "unitarizable": False,
        "reason": "complementary-series: needs n+alpha even and |sigma|<1/2",
        "witness": {"lambda": [6, 6, 0], "j": 3},
    }
    assert run(["unitary", *point]) == 0
    assert capsys.readouterr().out == "I^1(7/3): irreducible, not unitarizable; witness lambda=6,6,0, j=3\n"


def test_embeddings(capsys):
    assert run(["embeddings", "--n", "2", "--alpha", "0", "--sigma", "1/2"]) == 0
    assert capsys.readouterr().out.split() == ["(0,4)", "(2,2)", "(4,0)"]


def test_omega_refuses_an_oversized_rank_at_once(capsys):
    # n=99999999 would build a region of two n-tuples, about 14 GB
    t0 = time.perf_counter()
    assert run(["omega", "--p", "0", "--q", "0", "--n", "99999999"]) == 1
    assert time.perf_counter() - t0 < 5
    captured = capsys.readouterr()
    assert captured.err == "error: --n: rank 99999999 exceeds omega's cap of 2000\n"
    assert captured.out == ""


def test_embeddings_refuses_an_oversized_signature_list_at_once(capsys):
    # p+q = 100000004 would list 25,000,001 signatures; a huge sigma at
    # small n is refused the same way
    t0 = time.perf_counter()
    points = (["--n", "100000000", "--alpha", "1", "--sigma", "1"], ["--n", "2", "--alpha", "1", "--sigma", "50000001"])
    for point in points:
        assert run(["embeddings", *point]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --n/--sigma: signature size p+q = 2*sigma+n+1 = 10000000")
        assert "Traceback" not in captured.err and captured.out == ""
    assert time.perf_counter() - t0 < 5


BIG_WINDOW = ["--n", "1000", "--alpha", "1", "--sigma", "500"]  # 125,751 constituents
OVERSIZED_WINDOWS = [
    # 549 constituents, under the label cap, but 549 * 548 bounds
    (["constituents", "--n", "548", "--alpha", "1", "--sigma", "1"], "549 constituents of 548 bounds each"),
    (["diagram", *BIG_WINDOW, "--format", "dot"], "125751 constituents exceed"),
    (["socle", *BIG_WINDOW], "125751 constituents exceed"),
    (["unitary", *BIG_WINDOW, "--format", "json"], "125751 constituents exceed"),
    (["ktype", *BIG_WINDOW, "--lambda", ",".join(["0"] * 1000)], "125751 constituents exceed"),
]


@pytest.mark.parametrize("argv, message", OVERSIZED_WINDOWS, ids=[argv[0] for argv, _ in OVERSIZED_WINDOWS])
def test_window_views_refuse_an_oversized_window_at_once(monkeypatch, capsys, argv, message):
    from dpseries import constituents

    def refuse(*args):
        raise AssertionError("the theorem window was listed")

    monkeypatch.setattr(constituents, "_theorem_range", refuse)
    constituents._point.cache_clear()
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: --n/--sigma: {message}"), captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_ktype(capsys):
    assert run(["ktype", "--n", "2", "--alpha", "1", "--sigma", "-1", "--lambda", "1,0"]) == 0
    out = capsys.readouterr().out
    assert "constituent: R(0,0)" in out
    assert "blocked" in out


def test_ktype_validates_lambda_a_bounded_number_of_times(monkeypatch, capsys):
    # each of the 2n coefficients reads lambda's neighbours, not a re-validated n-tuple
    from dpseries import ktypes

    calls = []
    check = ktypes.check_ktype
    monkeypatch.setattr(ktypes, "check_ktype", lambda lam: calls.append(len(lam)) or check(lam))
    for n in (10, 200):
        for sigma in ("1", "1/3"):  # a reducible and an irreducible point
            calls.clear()
            assert run(["ktype", "--n", str(n), "--alpha", "1", "--sigma", sigma, "--lambda", ",".join(["0"] * n)]) == 0
            assert calls == [n, n], (n, sigma, len(calls))
    capsys.readouterr()


def test_input_errors_exit_1(capsys):
    assert run(["classify", "--n", "1", "--alpha", "0", "--sigma", "0"]) == 1
    assert "rank below supported range" in capsys.readouterr().err
    assert run(["classify", "--n", "2", "--alpha", "9", "--sigma", "0"]) == 1
    assert "alpha" in capsys.readouterr().err
    assert run(["classify", "--n", "2", "--alpha", "0", "--sigma", "0.5"]) == 1
    assert "--sigma" in capsys.readouterr().err
    assert run(["classify", "--n", "2", "--alpha", "0"]) == 1
    assert "--sigma" in capsys.readouterr().err
    assert run(["classify", "--n", "2", "--alpha", "0", "--sigma", "1/00"]) == 1
    assert "--sigma" in capsys.readouterr().err
    assert run(["diagram", "--n", "2", "--alpha", "0", "--sigma", "1/3"]) == 1
    assert "irreducible" in capsys.readouterr().err
    assert run(["ktype", "--n", "3", "--alpha", "0", "--sigma", "0", "--lambda", "1,0"]) == 1
    err = capsys.readouterr().err
    assert "--lambda" in err and "Traceback" not in err


def test_non_integer_rank_and_alpha_name_their_flag(capsys):
    assert run(["classify", "--n", "x", "--alpha", "0", "--sigma", "0"]) == 1
    assert capsys.readouterr().err == "error: --n: not an integer: 'x'\n"
    assert run(["classify", "--n", "2", "--alpha", "y", "--sigma", "0"]) == 1
    assert capsys.readouterr().err == "error: --alpha: not an integer: 'y'\n"


def test_integer_flags_take_ascii_digits_only(capsys):
    point = ["--n", "2", "--alpha", "0", "--sigma", "1"]
    for argv, flag in [
        (["classify", "--n", "1_0", "--alpha", "0", "--sigma", "1"], "--n"),
        (["classify", "--n", "\uff12", "--alpha", "0", "--sigma", "1"], "--n"),
        (["classify", "--n", "2", "--alpha", "\uff10", "--sigma", "1"], "--alpha"),
        (["classify", "--n", "2", "--alpha", "0", "--sigma", "\uff11"], "--sigma"),
        (["classify", "--n", "2", "--alpha", "0", "--sigma", "1_0"], "--sigma"),
        (["omega", "--p", "1_0", "--q", "0", "--n", "2"], "--p"),
        (["ktype", *point, "--lambda", "1_0,0"], "--lambda"),
        (["ktype", *point, "--lambda", "\uff11,0"], "--lambda"),
        (["verify", "--n-range", "2_0:2_0"], "--n-range"),
        (["verify", "--n-range", "2,\uff13"], "--n-range"),
        (["verify", "--alpha-set", "0,1_0"], "--alpha-set"),
        (["verify", "--sigma-tilde-range", "-1_0:0"], "--sigma-tilde-range"),
    ]:
        assert run(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {flag}: "), (argv, captured.err)


def test_out_of_range_rank_and_alpha_name_their_flag(capsys):
    assert run(["classify", "--n", "1", "--alpha", "0", "--sigma", "0"]) == 1
    assert capsys.readouterr().err == (
        "error: --n: rank below supported range: n must be an integer >= 2, got 1\n"
    )
    assert run(["classify", "--n", "2", "--alpha", "9", "--sigma", "0"]) == 1
    assert capsys.readouterr().err == "error: --alpha: alpha must be one of 0, 1, 2, 3, got 9\n"
    assert run(["classify", "--n", "1", "--alpha", "9", "--sigma", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: --n: ")


def test_verify_single_point(capsys):
    code = run(["verify", "--n", "2", "--alpha", "0", "--sigma", "1/2"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["ok"] is True
    assert record["checks"] == {
        "partition": "PASS",
        "diagram": "PASS",
        "socle": "PASS",
        "generated": "PASS",
    }


def test_verify_small_grid(capsys):
    code = run(
        [
            "verify",
            "--n-range",
            "2:3",
            "--alpha-set",
            "0,1",
            "--sigma-tilde-range",
            "-1:2",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 * 2 * 4
    assert all(json.loads(line)["ok"] for line in lines)


def test_verify_fail_exits_2(capsys, monkeypatch):
    # a closed-form region that holds the whole lattice overlaps every other
    whole = lambda params, label: Region(params.n, (None,) * params.n, (None,) * params.n)
    monkeypatch.setattr(oracle, "region_for", whole)
    code = run(["verify", "--n", "2", "--alpha", "0", "--sigma", "5/2"])
    assert code == 2
    record = json.loads(capsys.readouterr().out)
    assert record["ok"] is False
    assert "FAIL" in record["checks"]["partition"]


def test_verify_bad_flags(capsys):
    assert run(["verify", "--n-range", "x:y"]) == 1
    assert "--n-range" in capsys.readouterr().err
    assert run(["verify", "--n", "2"]) == 1
    assert "together" in capsys.readouterr().err
    # a sweep flag beside a single point is refused, not silently ignored
    point = ["--n", "2", "--alpha", "0", "--sigma", "1/2"]
    for flag, raw in (("--n-range", "3:4"), ("--alpha-set", "1"), ("--sigma-tilde-range", "-1:1")):
        assert run(["verify", *point, flag, raw]) == 1, flag
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag}: not used with --n/--alpha/--sigma\n" and captured.out == ""


def test_verify_out_of_range_flags_name_the_flag(capsys):
    assert run(["verify", "--alpha-set", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --alpha-set") and "Traceback" not in err
    assert run(["verify", "--n-range", "1:2"]) == 1
    assert capsys.readouterr().err.startswith("error: --n-range")


def test_verify_empty_range_names_its_flag(capsys):
    for flag, raw in (("--n-range", "5:2"), ("--sigma-tilde-range", "3:1"), ("--alpha-set", "3:0")):
        assert run(["verify", flag, raw]) == 1, flag
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag}: ") and "empty" in captured.err, flag
        assert "Traceback" not in captured.err and captured.out == "", flag


def test_default_verify_sweep_matches_golden(capsys):
    assert run(["verify"]) == 0
    golden = (Path(__file__).parent / "golden" / "verify_default.jsonl").read_bytes()
    assert capsys.readouterr().out.encode() == golden


def test_verify_computes_each_points_barriers_once(monkeypatch, capsys):
    # the window pre-check and each compare read the same closed-form
    # positions from ktypes.blocked_positions; neither evaluates a Fraction barrier
    from dpseries import ktypes

    def refuse(params, j):
        raise AssertionError("verify evaluated a Fraction barrier")

    monkeypatch.setattr(ktypes, "barrier_plus", refuse)
    monkeypatch.setattr(ktypes, "barrier_minus", refuse)
    assert run(["verify"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 208


def test_verify_refuses_an_oversized_window_at_once(capsys):
    # a window is refused by its cells: n=200, alpha=2, sigma_tilde=209 has
    # 5,251, over the oracle's 3,500, counted, not listed, so at once
    t0 = time.perf_counter()
    assert run(["verify", "--n", "200", "--alpha", "2", "--sigma", "215/2"]) == 1
    assert time.perf_counter() - t0 < 5
    captured = capsys.readouterr()
    assert captured.err == (
        "error: --n/--sigma: point (n=200, sigma_tilde=209) has more than the oracle's budget of 3500 cells\n"
    )
    assert captured.out == ""


def test_verify_checks_every_window_before_running_any(capsys):
    # n=200's window is over the cell budget; no smaller point may run first
    args = ["--n-range", "2,3,4,5,6,7,8,9,200", "--alpha-set", "2", "--sigma-tilde-range", "209:209"]
    assert run(["verify", *args]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --n-range") and "n=200" in captured.err and "cells" in captured.err
    assert captured.out == ""


def test_verify_refuses_a_huge_rank_at_once():
    # no rank cap: the count stops at the first depth over the budget, about
    # 3,500 coordinates in, so n=100,000 (one cut per coordinate, n + 1 cells)
    # is refused in about a second, alone or last in a list; under a 1 GB
    # address-space cap, so a point let through fails here, not the host
    import resource

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(dpseries.__file__).parents[1])}
    for args in (["--n", "100000", "--alpha", "0", "--sigma", "1/2"],
                 ["--n-range", "2,100000", "--alpha-set", "0", "--sigma-tilde-range", "50001:50001"]):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "dpseries", "verify", *args],
            capture_output=True, text=True, env=env, preexec_fn=cap_memory, timeout=60,
        )
        assert time.perf_counter() - t0 < 5, args
        assert proc.returncode == 1, (args, proc.stderr[-300:])
        assert proc.stderr.startswith(f"error: {args[0]}"), (args, proc.stderr[-300:])
        assert "point (n=100000, sigma_tilde=50001) has more than" in proc.stderr
        assert proc.stdout == ""


def test_verify_runs_n_up_to_16_with_no_window_budget(capsys):
    # n=10 at sigma_tilde=-6 (a window of 30,045,015 points) was refused by
    # the window budget; the cells of every point here number at most 53
    assert run(["verify", "--n-range", "2:16"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(records) == 780 and all(record["ok"] for record in records)


def test_verify_refuses_the_removed_lmax_flag(capsys):
    # the oracle reads the unclipped cells, so verify takes no window radius
    for value in ("2", "auto"):
        assert run(["verify", "--n", "2", "--alpha", "0", "--sigma", "1/2", "--lmax", value]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: unrecognized arguments: --lmax {value}\n"
        assert captured.out == ""


def test_both_module_forms_run_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(dpseries.__file__).parents[1])}
    for module in ("dpseries", "dpseries.cli"):
        args = [sys.executable, "-m", module, "classify", "--n", "2", "--alpha", "0", "--sigma", "1/2"]
        proc = subprocess.run(args, capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (0, "Case2b, sigma_tilde=2\n"), (module, proc.stderr)
        proc = subprocess.run([*args, "--bogus"], capture_output=True, text=True, env=env)
        assert proc.returncode == 1 and "--bogus" in proc.stderr, module


def test_verify_exits_quietly_when_stdout_closes_early():
    # as in `dpseries verify | head -1`: the reader goes away after one line
    env = {**os.environ, "PYTHONPATH": str(Path(dpseries.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "dpseries", "verify"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    assert json.loads(proc.stdout.readline())["ok"]
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in stderr and stderr == ""


def test_every_output_form_matches_golden(capsys):
    # each command's text and json forms (and the omega input errors) at the
    # cli_cold point I^2(-3/2), plus an irreducible unitarizable point, a
    # point with no embeddings, a verify at an irreducible point and a verify
    # refusing a sweep flag; one {"argv", "exit", "stdout", "stderr"} per line
    golden = Path(__file__).parent / "golden" / "cli_forms.jsonl"
    for line in golden.read_text().splitlines():
        want = json.loads(line)
        assert run(want["argv"]) == want["exit"], want["argv"]
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (want["stdout"], want["stderr"]), want["argv"]


def test_verify_refuses_a_huge_sweep_before_building_it():
    # each range spans about 10**9 values; under a 1 GB address-space cap the
    # sweep must be refused by its flags, not built and then run out of memory
    import resource

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(dpseries.__file__).parents[1])}
    for flag, raw, phrases in (
        ("--alpha-set", "0:1000000000", ("--alpha-set",)),
        ("--n-range", "2:1000000000", ("--n-range: sweep of 51999999948 points exceeds", "budget")),
        ("--sigma-tilde-range", "-1000000000:1000000000", ("--sigma-tilde-range: sweep of 32000000016 points",)),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "dpseries", "verify", flag, raw],
            capture_output=True, text=True, env=env, preexec_fn=cap_memory, timeout=60,
        )
        assert proc.returncode == 1, (flag, proc.stderr[-300:])
        assert proc.stderr.startswith("error: "), (flag, proc.stderr[-300:])
        assert all(phrase in proc.stderr for phrase in phrases), (flag, proc.stderr[-300:])
        assert "Traceback" not in proc.stderr and proc.stdout == "", flag


def test_verify_with_a_fixed_window_starts_a_huge_sweep_at_once():
    # a sweep is refused beyond verify's budget of 100,000 points, and the
    # pre-check counts every point's cells before the first record; at the
    # budget that takes about 2 s, well within 10 s
    env = {**os.environ, "PYTHONPATH": str(Path(dpseries.__file__).parents[1])}
    argv = ["verify", "--sigma-tilde-range", "-3124:3125"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "dpseries", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 10)
        assert ready, "no record within 10 s"
        record = json.loads(proc.stdout.readline())
        assert (record["n"], record["lmax"], record["sigma_tilde"], record["ok"]) == (2, 1565, "-3124", True)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()


def test_constituents_json_is_written_without_the_whole_document():
    # n=300 prints about 7 MB of JSON; holding it as one string peaked at 80 MiB
    peak = _json_peak(["constituents", "--n", "300", "--alpha", "1", "--sigma", "1", "--format", "json"])
    assert peak < 40 << 20, f"{peak / 2**20:.1f} MiB"


def _json_peak(argv):
    """The tracemalloc peak of one command, its output going to the null device."""
    import tracemalloc

    from dpseries import constituents

    constituents._point.cache_clear()  # the record is built within the measurement
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert run(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_constituents_json_makes_each_entry_as_it_is_written():
    # n=150 prints about 2 MB of JSON; its entries built up front peaked near 5 MiB
    peak = _json_peak(["constituents", "--n", "150", "--alpha", "1", "--sigma", "1", "--format", "json"])
    assert peak < 2 << 20, f"{peak / 2**20:.1f} MiB"


def test_diagram_json_is_written_without_the_whole_document():
    # 11,476 nodes; the text form peaks near 5.3 MiB, and the whole JSON
    # string on top of its payload peaked near 18 MiB
    peak = _json_peak(["diagram", "--n", "300", "--alpha", "1", "--sigma", "-150", "--format", "json"])
    assert peak < 14 << 20, f"{peak / 2**20:.1f} MiB"
