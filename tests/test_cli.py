"""Exit codes, formats, and determinism of the command-line front end."""
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import pathway_entropy
from pathway_entropy.cli import parse_sweep, read_csv, run
from pathway_entropy.errors import UsageError


def run_capture(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_entropy_example(capsys):
    code, out, err = run_capture(
        capsys, "entropy", "--family", "tsallis", "--alpha", "2",
        "--probs", "0.5,0.5")
    assert code == 0 and err == ""
    assert out == "family,alpha,value\ntsallis,2,0.5\n"


def test_ppp_scan_example(capsys):
    code, out, _ = run_capture(capsys, "ppp", "--scan", "10")
    assert code == 0
    header, rows = read_csv_text(out)
    assert header == ["n", "count"]
    counts = {int(n): int(c) for n, c in rows}
    assert counts[3] == 0
    assert counts[4] >= 1


def read_csv_text(text):
    return read_csv(io.StringIO(text))


def test_wigner_table_example(capsys):
    code, out, _ = run_capture(
        capsys, "pathway", "--special", "wigner", "--q", "2",
        "--table", "0:5:0.5")
    assert code == 0
    header, rows = read_csv_text(out)
    assert header == ["x", "density"]
    assert len(rows) == 11
    dens = [row[1] for row in rows]
    assert all(a > b for a, b in zip(dens, dens[1:]))
    assert dens[0] == pytest.approx(2.0 / math.pi, rel=1e-12)


def test_sweep_grammar():
    assert parse_sweep("2.0") == [2.0]
    assert parse_sweep("0:5:0.5") == [0.5 * k for k in range(11)]
    assert parse_sweep("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]
    # endpoint included within half a step even with accumulated round-off
    values = parse_sweep("0:1:0.3")
    assert len(values) == 4
    with pytest.raises(UsageError):
        parse_sweep("1:0:0.5")
    with pytest.raises(UsageError):
        parse_sweep("0:1:-0.5")
    with pytest.raises(UsageError):
        parse_sweep("0:1")
    with pytest.raises(UsageError):
        parse_sweep("abc")


def test_family_all_skips_out_of_domain(capsys):
    code, out, _ = run_capture(
        capsys, "entropy", "--family", "all", "--alpha", "0.5:1.5:0.5",
        "--probs", "0.25,0.75")
    assert code == 0
    _, rows = read_csv_text(out)
    shannon_rows = [r for r in rows if r[0] == "shannon"]
    assert len(shannon_rows) == 1 and shannon_rows[0][1] == 1.0
    for name in ("renyi", "havrda_charvat", "tsallis", "mathai_m",
                 "mathai_m_star"):
        assert len([r for r in rows if r[0] == name]) == 3


def test_single_family_out_of_domain_is_domain_error(capsys):
    code, out, err = run_capture(
        capsys, "entropy", "--family", "shannon", "--alpha", "2",
        "--probs", "0.5,0.5")
    assert code == 3 and out == ""
    record = json.loads(err)
    assert record["error"] == "InvalidOrder"


def test_usage_errors_exit_2(capsys):
    assert run_capture(capsys, "entropy", "--family", "tsallis",
                       "--alpha", "nope", "--probs", "0.5,0.5")[0] == 2
    assert run_capture(capsys, "nonsense")[0] == 2
    assert run_capture(capsys, "pathway", "--alpha", "0.5")[0] == 2
    assert run_capture(capsys, "pathway", "--special", "gaussian_half",
                       "--table", "0:1:0.5", "--sample", "3")[0] == 2
    assert run_capture(capsys, "ppp")[0] == 2
    code, _, err = run_capture(capsys, "maxent", "--alpha", "0.5",
                               "--grid", "0:2:0.1", "--moment", "bad")
    assert code == 2
    assert json.loads(err)["error"] == "UsageError"


def test_domain_errors_exit_3(capsys):
    assert run_capture(capsys, "entropy", "--family", "tsallis",
                       "--alpha", "2", "--probs", "0.5,0.6")[0] == 3
    assert run_capture(capsys, "pathway", "--special", "wigner",
                       "--q", "5", "--table", "0:1:0.5")[0] == 3
    assert run_capture(capsys, "maxent", "--alpha", "0.5",
                       "--grid", "0:2:0.1", "--moment", "1:2.5")[0] == 3


def test_numerical_errors_exit_4(capsys):
    # Duplicate constraint exponents with different targets make the Newton
    # Jacobian exactly singular on the first iteration.
    code, out, err = run_capture(
        capsys, "maxent", "--alpha", "0.5", "--grid", "0:2:0.1",
        "--moment", "1:0.5", "--moment", "1:0.7")
    assert code == 4 and out == ""
    assert json.loads(err)["error"] == "NonConvergence"


def test_csv_round_trip_bit_identical(tmp_path, capsys):
    out_path = tmp_path / "solution.csv"
    code = run(["maxent", "--alpha", "0.5", "--grid", "0:2:0.1",
                "--moment", "1:0.5", "--output", str(out_path)])
    capsys.readouterr()
    assert code == 0
    original = out_path.read_text()
    header, rows = read_csv(str(out_path))
    assert header == ["record", "index", "x", "value"]
    rebuilt = ",".join(header) + "\n" + "\n".join(
        ",".join(cell if isinstance(cell, str) else "%.17g" % cell
                 for cell in row)
        for row in rows) + "\n"
    assert rebuilt == original
    kinds = [row[0] for row in rows]
    assert kinds.count("density") == 21
    assert kinds.count("multiplier") == 2
    assert "objective" in kinds and "euler_residual" in kinds
    # multiplier rows park a nan in the x column
    nan_rows = [row for row in rows if row[0] == "multiplier"]
    assert all(math.isnan(row[2]) for row in nan_rows)


def test_maxent_json_matches_csv(capsys):
    args = ("maxent", "--alpha", "0.5", "--grid", "0:2:0.2",
            "--moment", "1:0.5")
    code, csv_out, _ = run_capture(capsys, *args)
    assert code == 0
    code, json_out, _ = run_capture(capsys, *args, "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    _, rows = read_csv_text(csv_out)
    dens_rows = [row for row in rows if row[0] == "density"]
    assert [row[3] for row in dens_rows] == payload["density"]
    assert payload["variant"] == "plain"
    assert payload["euler_residual"] <= 1e-8


def test_escort_cli(capsys):
    code, out, _ = run_capture(
        capsys, "maxent", "--alpha", "1.5", "--grid", "0:50:0.5",
        "--escort", "--lambda3", "0.5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["variant"] == "escort"
    assert payload["multipliers"][0] == pytest.approx(0.52, rel=1e-10)
    assert payload["multipliers"][1] == 0.5


def test_compose_residuals_small(capsys):
    code, out, _ = run_capture(
        capsys, "compose", "--family", "all", "--alpha", "0.5:1.5:0.25",
        "--probs", "0.2,0.8", "--probs2", "0.3,0.3,0.4",
        "--probs3", "0.5,0.5")
    assert code == 0
    _, rows = read_csv_text(out)
    assert rows and all(abs(row[2]) <= 1e-10 for row in rows)


def test_inaccuracy_hand_value(capsys):
    code, out, _ = run_capture(
        capsys, "inaccuracy", "--true", "0.5,0.5", "--assigned", "0.9,0.1",
        "--alpha", "2")
    assert code == 0
    _, rows = read_csv_text(out)
    assert rows[0][1] == pytest.approx(1.0, abs=1e-12)


def test_reflected_gaussian_table(capsys):
    # values starting with a dash use the --flag=value form
    code, out, _ = run_capture(
        capsys, "pathway", "--special", "gaussian_half", "--reflect",
        "--table=-2:2:0.5", "--with-cdf")
    assert code == 0
    header, rows = read_csv_text(out)
    assert header == ["x", "density", "cdf"]
    xs = [row[0] for row in rows]
    dens = [row[1] for row in rows]
    cum = [row[2] for row in rows]
    assert xs == [-2.0 + 0.5 * k for k in range(9)]
    assert dens == dens[::-1]            # symmetric about zero
    assert cum[4] == pytest.approx(0.5, abs=1e-12)
    assert all(a < b for a, b in zip(cum, cum[1:]))
    total = 2.0 * sum(d * 0.5 for d in dens[4:]) - 0.5 * dens[4]
    assert total == pytest.approx(1.0, abs=2e-2)
    # reflection is an opt-in for the symmetric special case only
    assert run_capture(capsys, "pathway", "--alpha", "0.5", "--reflect",
                       "--table", "0:1:0.5")[0] == 2
    assert run_capture(capsys, "pathway", "--alpha", "1.5",
                       "--table=-1:1:0.5")[0] == 2


def test_sampling_seed_handling(tmp_path, capsys, monkeypatch):
    paths = [tmp_path / name for name in
             ("a.csv", "b.csv", "env.csv", "override.csv")]
    base = ("pathway", "--alpha", "1.5", "--sample", "5")
    monkeypatch.delenv("PATHWAY_ENTROPY_SEED", raising=False)
    assert run([*base, "--output", str(paths[0])]) == 0
    assert run([*base, "--output", str(paths[1])]) == 0
    monkeypatch.setenv("PATHWAY_ENTROPY_SEED", "7")
    assert run([*base, "--output", str(paths[2])]) == 0
    assert run([*base, "--seed", "0", "--output", str(paths[3])]) == 0
    capsys.readouterr()
    unseeded_a, unseeded_b, via_env, overridden = (
        p.read_bytes() for p in paths)
    assert unseeded_a == unseeded_b          # default seed 0 is stable
    assert via_env != unseeded_a             # env seed takes effect
    assert overridden == unseeded_a          # --seed wins over the env
    monkeypatch.setenv("PATHWAY_ENTROPY_SEED", "not-an-int")
    assert run([*base, "--output", str(paths[0])]) == 2
    capsys.readouterr()


def test_every_subcommand_is_deterministic(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PATHWAY_ENTROPY_SEED", raising=False)
    invocations = [
        ("entropy", "--family", "all", "--alpha", "0.5:1.5:0.5",
         "--probs", "0.2,0.3,0.5"),
        ("compose", "--family", "tsallis", "--alpha", "0.7",
         "--probs", "0.4,0.6", "--probs2", "0.1,0.9"),
        ("pathway", "--alpha", "0.5", "--gamma", "2", "--table", "0:2:0.25",
         "--with-cdf"),
        ("pathway", "--alpha", "1.5", "--sample", "8"),
        ("maxent", "--alpha", "0.5", "--grid", "0:2:0.2", "--moment", "1:0.5"),
        ("ode", "--alpha", "1.5", "--gamma", "3", "--reduction",
         "reduced_beta1"),
        ("ppp", "--scan", "30"),
        ("inaccuracy", "--true", "0.5,0.5", "--assigned", "0.6,0.4",
         "--alpha", "0.5:1.9:0.2"),
    ]
    for fmt in ("csv", "json"):
        for argv in invocations:
            first = tmp_path / "first.out"
            second = tmp_path / "second.out"
            assert run([*argv, "--format", fmt,
                        "--output", str(first)]) == 0
            assert run([*argv, "--format", fmt,
                        "--output", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()
    capsys.readouterr()


def test_ode_cli_reports_residual(capsys):
    code, out, _ = run_capture(
        capsys, "ode", "--alpha", "1.5", "--beta", "2", "--reduction",
        "tsallis_eta", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["eta"] == pytest.approx(1.25)
    assert payload["max_residual"] <= 1e-7


def test_ppp_triples_listing(capsys):
    code, out, _ = run_capture(capsys, "ppp", "--n", "12")
    assert code == 0
    header, rows = read_csv_text(out)
    assert header == ["n", "x", "y", "z"]
    triples = {(int(x), int(y), int(z)) for _, x, y, z in rows}
    assert (2, 6, 1) in triples
    for n, x, y, z in rows:
        assert int(n) == 12 and int(n) * int(z) == int(x) * int(y)
    code, out, _ = run_capture(capsys, "ppp", "--n", "7")
    assert code == 0
    header, rows = read_csv_text(out)
    assert rows == []


def test_help_exits_zero(capsys):
    assert run_capture(capsys, "--help")[0] == 0
    assert run_capture(capsys, "maxent", "--help")[0] == 0


def _records(key):
    def rows(payload, header):
        assert all(list(record) == header for record in payload[key])
        return [list(record.values()) for record in payload[key]]
    return rows


def _maxent_rows(payload, header):
    rows = [["density", i, x, v] for i, (x, v) in
            enumerate(zip(payload["grid"], payload["density"]))]
    rows += [["multiplier", j, math.nan, m]
             for j, m in enumerate(payload["multipliers"])]
    return rows + [["objective", 0, math.nan, payload["objective"]],
                   ["euler_residual", 0, math.nan, payload["euler_residual"]]]


_MAXENT_KEYS = ["variant", "grid", "density", "multipliers", "objective",
                "euler_residual"]
_ODE_HEADER = ["reduction", "alpha", "gamma", "delta", "s", "beta", "eta",
               "n_points", "h", "max_residual", "argmax"]

# (argv, JSON top-level keys in order, JSON payload -> CSV rows)
_FORMAT_CASES = [
    (["entropy", "--family", "all", "--alpha", "0.5:1.5:0.5",
      "--probs", "0.2,0.3,0.5"], ["rows"], _records("rows")),
    (["compose", "--family", "all", "--alpha", "0.7", "--probs", "0.4,0.6",
      "--probs2", "0.1,0.9"], ["law", "rows"], _records("rows")),
    (["compose", "--family", "tsallis", "--alpha", "1.5", "--probs", "0.5,0.5",
      "--probs2", "0.3,0.7", "--probs3", "0.6,0.4"], ["law", "rows"],
     _records("rows")),
    (["pathway", "--special", "gaussian_half", "--reflect", "--table=-1:1:0.5",
      "--with-cdf"], ["params", "reflect", "table"], _records("table")),
    (["pathway", "--alpha", "0.5", "--gamma", "2", "--table", "0:2:0.25"],
     ["params", "reflect", "table"], _records("table")),
    (["pathway", "--alpha", "1.5", "--sample", "8", "--seed", "3"],
     ["params", "seed", "sample"],
     lambda payload, header: [[i, v] for i, v in enumerate(payload["sample"])]),
    (["pathway", "--alpha", "0.7", "--gamma", "2", "--delta", "1.5",
      "--constant"], ["params", "closed", "quadrature"],
     lambda payload, header: [[payload[key] for key in header]]),
    (["maxent", "--alpha", "0.5", "--grid", "0:2:0.2", "--moment", "1:0.5"],
     _MAXENT_KEYS, _maxent_rows),
    (["maxent", "--alpha", "1.5", "--grid", "0:10:0.5", "--escort",
      "--lambda3", "0.5"], _MAXENT_KEYS, _maxent_rows),
    (["ode", "--reduction", "tsallis_eta", "--alpha", "1.5", "--beta", "2",
      "--points", "11", "--h", "1e-5"], _ODE_HEADER,
     lambda payload, header: [list(payload.values())]),
    (["ppp", "--scan", "30"], ["scan"], _records("scan")),
    (["ppp", "--n", "36"], ["n", "triples"],
     lambda payload, header: [[payload["n"], *t] for t in payload["triples"]]),
    (["inaccuracy", "--true", "0.5,0.5", "--assigned", "0.6,0.4",
      "--alpha", "0.5:1.9:0.2"], ["rows"], _records("rows")),
]


def _cells(rows):
    return [[c if isinstance(c, str) else repr(float(c)) for c in row]
            for row in rows]


@pytest.mark.parametrize("argv, keys, json_rows", _FORMAT_CASES,
                         ids=[" ".join(case[0][:3]) for case in _FORMAT_CASES])
def test_json_matches_csv_in_every_mode(capsys, argv, keys, json_rows):
    code, csv_out, _ = run_capture(capsys, *argv)
    assert code == 0
    code, json_out, _ = run_capture(capsys, *argv, "--format", "json")
    assert code == 0
    header, rows = read_csv_text(csv_out)
    payload = json.loads(json_out)
    assert list(payload) == keys
    assert rows and _cells(json_rows(payload, header)) == _cells(rows)


def test_zero_sample_count_is_an_empty_sample(capsys):
    base = ("pathway", "--alpha", "1.5", "--sample")
    code, out, _ = run_capture(capsys, *base, "0")
    assert code == 0 and out == "index,value\n"
    code, out, _ = run_capture(capsys, *base, "0", "--format", "json")
    assert code == 0 and json.loads(out)["sample"] == []
    code, out, err = run_capture(capsys, *base, "-1")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "DomainError"


@pytest.mark.parametrize("flag", ["--reflect", "--with-cdf"])
@pytest.mark.parametrize("mode", [("--sample", "5"), ("--constant",)])
def test_table_flags_rejected_outside_table(capsys, flag, mode):
    code, out, err = run_capture(capsys, "pathway", "--special",
                                 "gaussian_half", flag, *mode)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "UsageError"


# Cold start: the package imports numpy only, scipy.special comes in with the
# first cdf or quantile, and scipy.optimize is never loaded, escort fits too.
_IMPORT_PROBE = """
import sys

import numpy as np

def loaded():
    return {m for m in sys.modules if m == "scipy" or m.startswith("scipy.")}

import pathway_entropy.cli
print(sorted(loaded()))
import pathway_entropy as pe
pe.cdf(pe.PathwayParams(alpha=1.5), 0.7)
print("scipy.special" in loaded(), "scipy.optimize" in loaded())
pe.solve_escort(pe.MaxEntProblem(np.linspace(0.0, 50.0, 101), pe.AlphaOrder(1.5),
                                 (pe.MomentConstraint(1.0, 50.0 / 27.0),),
                                 pe.MaxEntVariant.ESCORT))
print("scipy.optimize" in loaded())
"""


def test_cold_import_loads_scipy_special_on_demand_and_never_scipy_optimize():
    src = os.path.dirname(os.path.dirname(pathway_entropy.__file__))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True False", "False"]


@pytest.mark.parametrize("argv", [
    ["entropy", "--family", "tsallis", "--alpha", "0.5:inf:0.1", "--probs", "0.5,0.5"],
    ["entropy", "--family", "tsallis", "--alpha", "2", "--probs", "0.5,half"],
    ["pathway", "--special", "gaussian_half", "--beta", "2", "--constant"],
    ["pathway", "--alpha", "1.5", "--q", "2", "--constant"],
    ["pathway", "--constant"],
    ["maxent", "--alpha", "0.5", "--grid", "0:2:0.1", "--moment", "1:half"],
    ["maxent", "--alpha", "0.5", "--grid", "0:2:0.1", "--moment", "1:0.5",
     "--lambda3", "0.5"],
], ids=["sweep_bound", "probs", "special_beta", "q_without_special",
        "no_special_or_alpha", "moment", "lambda3_without_escort"])
def test_usage_error_table_exits_2(capsys, argv):
    code, out, err = run_capture(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "UsageError"


def test_read_csv_rejects_empty_input():
    with pytest.raises(UsageError, match="empty"):
        read_csv(io.StringIO(""))
