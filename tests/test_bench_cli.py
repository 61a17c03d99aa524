"""Tests for the benchmark drivers and the CLI."""

import argparse
import csv
import math
from pathlib import Path

import numpy as np
import pytest

from eerk.bench import (
    BenchDivergence,
    ConfigError,
    ExperimentConfig,
    initial_profile,
    load_config,
    parse_z_grid,
    run_analysis,
    run_convergence,
    run_energy,
    run_rate,
    write_csv,
)
import eerk.dissipation as dissipation
from eerk.cli import _config, build_parser, main
from eerk.dissipation import SingularDiagonalError, classify_method, doc_kernels
from eerk.integrator import integrate
from eerk.tableaux import coefficient_matrix, get_method


# --------------------------------------------------------------------------
# Config handling
# --------------------------------------------------------------------------


def test_load_config_file_and_overrides(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "# comment\n"
        "method = eerk2w:c2=3/11, eerk32:c2=0.75,c3=0.6\n"
        "kappa = 2\n"
        "tau = 0.01, 0.005\n"
        "T = 8\n"
        "h = 0.009817477042468103\n"  # pi/320
        "monitor = on\n")
    cfg = load_config(cfgfile, {"kappa": "4"})
    assert cfg.methods == ["eerk2w:c2=3/11", "eerk32:c2=0.75,c3=0.6"]
    assert cfg.kappa == 4.0
    assert cfg.taus == [0.01, 0.005]
    assert cfg.m == 639
    assert cfg.monitor is True
    assert len(cfg.tableaux()) == 2


def test_load_config_defaults_lowest_precedence(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("T = 4\n")
    cfg = load_config(cfgfile, {}, defaults={"T": "160", "ic": "bumps"})
    assert cfg.t_final == 4.0
    assert cfg.ic == "bumps"


def test_load_config_off_switch_and_empty_method_chunk(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("method = etd1, , eerk2:c2=1\nmonitor = off\n")
    cfg = load_config(cfgfile)
    assert cfg.methods == ["etd1", "eerk2:c2=1"]
    assert cfg.monitor is False


def test_load_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("frequency = 3\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    bad.write_text("kappa three\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    bad.write_text("kappa = three\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")
    with pytest.raises(ConfigError):
        load_config(None, {"metric": "h2"})
    with pytest.raises(ConfigError):
        load_config(None, {"monitor": "maybe"})
    # values arrive as strings; any other type is a parse error, not a crash
    with pytest.raises(ConfigError, match="cannot parse monitor=True"):
        load_config(None, {"monitor": True})
    with pytest.raises(ConfigError, match="cannot parse method="):
        load_config(None, {"method": ["etd1"]})
    with pytest.raises(ConfigError):
        ExperimentConfig(methods=["eerk2:c2=7"]).tableaux()
    with pytest.raises(ConfigError):
        ExperimentConfig().tableaux()


@pytest.mark.parametrize("ref_tau", ["nan", "-1", "0", "inf"])
def test_load_config_rejects_bad_ref_tau(ref_tau):
    with pytest.raises(ConfigError, match="reference step size"):
        load_config(None, {"ref_tau": ref_tau})


def test_parse_z_grid():
    assert parse_z_grid("default").size == 800
    lin = parse_z_grid("lin:-30:-0.01:50")
    assert lin.size == 50 and lin[0] == -30.0
    log = parse_z_grid("log:0.001:100:40")
    assert log.size == 40 and log[0] == pytest.approx(-100.0)
    union = parse_z_grid("lin:-5:-1:5+log:0.01:1:5")
    assert union.size == 9  # z = -1 appears in both parts and dedupes
    with pytest.raises(ConfigError):
        parse_z_grid("lin:-5:-1")
    with pytest.raises(ConfigError):
        parse_z_grid("geo:1:2:3")
    with pytest.raises(ConfigError):
        parse_z_grid("lin:-5:5:11")
    with pytest.raises(ConfigError):
        parse_z_grid("log:-1:10:5")
    # the point cap holds for the union, not only for each chunk
    assert parse_z_grid("lin:-2:-1:524288+lin:-4:-3:524288").size == 2**20
    with pytest.raises(ConfigError, match="more than 1048576 points in all"):
        parse_z_grid("lin:-2:-1:524288+lin:-4:-3:524289")


def test_initial_profiles():
    x = np.linspace(0.1, 2 * np.pi - 0.1, 7)
    assert initial_profile("sine", x) == pytest.approx(0.5 * np.sin(x))
    bumps = initial_profile("bumps", x)
    assert np.all(np.isfinite(bumps)) and np.max(np.abs(bumps)) < 1.2
    with pytest.raises(ConfigError):
        initial_profile("plateau", x)


def test_shipped_configs_parse():
    root = Path(__file__).resolve().parent.parent / "configs"
    for name in ("table-second-order.cfg", "table-third-order.cfg", "energy-decay.cfg"):
        cfg = load_config(root / name)
        assert cfg.m == 639
        assert cfg.tableaux()
    cfg = load_config(root / "table-second-order.cfg")
    assert len(cfg.methods) == 4 and cfg.ref_tau == 0.0003125
    assert load_config(root / "energy-decay.cfg").monitor is True


def test_write_csv_is_deterministic(tmp_path):
    block = np.array([(0.1, 1 / 3, None), (0.2, 2e-17, "x")], dtype=object)
    p1 = write_csv(tmp_path / "a.csv", ["a", "b", "c"], block)
    p2 = write_csv(tmp_path / "b.csv", ["a", "b", "c"], block)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text().splitlines()
    assert text[0] == "a,b,c"
    assert text[1] == "0.10000000000000001,0.33333333333333331,"


def test_write_csv_rows_match_per_cell_format(tmp_path):
    # a float block takes one format for the whole file; its bytes are those
    # of one 17-digit format per cell
    special = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1.8e308, 2**60, 7]
    columns = [special, special[1:] + special[:1], special[2:] + special[:2]]
    text = write_csv(tmp_path / "f.csv", ["a", "b", "c"], np.array(columns).T).read_text()
    want = ["a,b,c"] + [",".join(f"{v:.17g}" for v in row) for row in zip(*columns)]
    assert text == "\n".join(want) + "\n"
    # an object block goes cell by cell: None is empty, and text is quoted
    # where it holds a comma, a quote or a line break, inner quotes doubled
    rows = [("etd1", "PSD-on-grid", None, None, None),
            ("eerk32:c2=1/2,c3=7/10", "NPD", -3.14, 3, -0.0),
            ('say "on"', "two\nlines", 0.5, 2**60, 7)]
    path = write_csv(tmp_path / "o.csv", ["method", "verdict", "z", "minor", "value"],
                     np.array(rows, dtype=object))
    assert path.read_text() == ("method,verdict,z,minor,value\n"
                                "etd1,PSD-on-grid,,,\n"
                                '"eerk32:c2=1/2,c3=7/10",NPD,-3.1400000000000001,3,-0\n'
                                '"say ""on""","two\nlines",0.5,1.152921504606847e+18,7\n')
    with open(path, newline="") as fh:
        read = list(csv.reader(fh))[1:]
    assert [row[:2] for row in read] == [list(row[:2]) for row in rows]


# --------------------------------------------------------------------------
# Drivers (small meshes for speed)
# --------------------------------------------------------------------------


def small_cfg(**kw):
    base = dict(methods=["eerk2w:c2=1/2"], m=31, taus=[0.05, 0.025], t_final=0.4,
                ref_method="eerk2w:c2=3/11", ref_tau=0.05 / 8)
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_convergence_orders_and_csv(tmp_path):
    cfg = small_cfg(out=tmp_path)
    results = run_convergence(cfg)
    rows = results["eerk2w:c2=1/2"]
    assert rows[0].order is None
    assert rows[1].error < rows[0].error
    assert rows[1].order == pytest.approx(2.0, abs=0.5)
    table = (tmp_path / "eerk2w-c2-1-2_convergence.csv").read_text().splitlines()
    assert table[0] == "tau,error,order"
    assert len(table) == 3 and table[1].endswith(",")


def test_run_convergence_single_tau_no_order():
    rows = run_convergence(small_cfg(taus=[0.05]))["eerk2w:c2=1/2"]
    assert len(rows) == 1 and rows[0].order is None


def test_run_convergence_order_on_a_four_to_one_schedule():
    # the order over tau -> tau/4 is the mean of the two halving orders, and
    # the errors at the shared step sizes do not depend on the schedule
    quarter = run_convergence(small_cfg(taus=[0.05, 0.0125]))["eerk2w:c2=1/2"]
    halving = run_convergence(small_cfg(taus=[0.05, 0.025, 0.0125]))["eerk2w:c2=1/2"]
    assert [r.error for r in quarter] == [halving[0].error, halving[2].error]
    assert quarter[1].order == math.log2(quarter[0].error / quarter[1].error) / 2
    assert quarter[1].order == pytest.approx((halving[1].order + halving[2].order) / 2, rel=1e-12)
    assert quarter[1].order == pytest.approx(2.0, abs=0.5)


def test_convergence_error_matches_final_state_oracle():
    # uneven strides 3 and 2 against ref_tau 0.01, so the reference keeps
    # every one of its states; 20 and 30 coarse steps take two blocks each.
    # Each coarse error is recomputed from the final states of runs that
    # stop at each coarse time level
    cfg = small_cfg(taus=[0.03, 0.02], t_final=0.6, ref_tau=0.01)
    rows = run_convergence(cfg)["eerk2w:c2=1/2"]
    problem = cfg.problem()
    u0 = cfg.initial_state(problem)
    ref, ref_tau = cfg.resolve_reference(cfg.tableaux())
    method = cfg.tableaux()[0]
    for row, tau, n_steps in zip(rows, cfg.taus, (20, 30)):
        errors = []
        for n in range(1, n_steps + 1):
            coarse = integrate(problem, method, u0, tau, n * tau).final_state
            fine = integrate(problem, ref, u0, ref_tau, n * tau).final_state
            errors.append(np.max(np.abs(coarse - fine)))
        assert row.tau == tau and row.error == max(errors)
    assert rows[1].order == math.log2(rows[0].error / rows[1].error) / math.log2(0.03 / 0.02)


def test_run_convergence_rejects_misaligned_reference():
    with pytest.raises(ConfigError):
        run_convergence(small_cfg(ref_tau=0.03))
    # both horizons are whole, 3 and 4 steps, but 4 is not a multiple of 3
    with pytest.raises(ConfigError, match=r"^tau 0.02 is not an integer multiple of ref_tau 0.015$"):
        run_convergence(small_cfg(taus=[0.02], t_final=0.06, ref_tau=0.015))
    with pytest.raises(ConfigError):
        run_convergence(small_cfg(t_final=0.0))


def test_run_convergence_divergent_reference_aborts():
    cfg = small_cfg(kappa=0.0, taus=[5.0], t_final=100.0,
                    ref_method="eerk2:c2=1", ref_tau=5.0, ic="bumps")
    with pytest.raises(BenchDivergence):
        run_convergence(cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_convergence_divergent_coarse_run_aborts():
    # the methods of a tau run together; of the two that diverge at tau=1
    # (at steps 12 and 5), the error names the first in the configured order
    cfg = small_cfg(methods=["eerk2w:c2=1", "eerk2w:c2=1/2", "eerk2w:c2=1/10"], m=63,
                    eps=0.2, kappa=0.1, ic="bumps", taus=[1.0, 0.5], t_final=40.0,
                    ref_method="eerk2w:c2=1", ref_tau=0.25)
    with pytest.raises(BenchDivergence, match=r"^eerk2w:c2=1/2 at tau=1.0 diverged at step 12$"):
        run_convergence(cfg)


@pytest.mark.parametrize("method", ["etd3rk", "cm4"])
def test_default_reference_keeps_third_order(method):
    # a second-order reference would bury a higher-order method's error in
    # its own: the last order then read 1.25 (etd3rk) and 0.01 (cm4)
    rows = run_convergence(ExperimentConfig(methods=[method], m=31, t_final=0.5))[method]
    assert rows[-1].order >= 2.5


def test_finer_reference_lowers_the_order_of_its_own_method_most():
    # a member that is the reference method has errors correlated with the
    # reference's, which lift its order: from tau_0/32 to tau_0/256 the last
    # orders fell 1.96, 1.97, 1.99 -> 1.93, 1.93, 1.94, but 2.01 -> 1.94 for
    # eerk2w:c2=3/11 (T=1/2; ROADMAP item 18)
    config = Path(__file__).resolve().parent.parent / "configs" / "table-second-order.cfg"
    last = [{label: rows[-1].order for label, rows in
             run_convergence(load_config(config, {"T": "0.5", "ref_tau": ref_tau})).items()}
            for ref_tau in (None, "3.90625e-5")]
    drops = {label: last[0][label] - last[1][label] for label in last[0]}
    own = drops.pop("eerk2w:c2=3/11")
    assert own > max(drops.values())


def test_run_convergence_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_convergence(small_cfg(out=a))
    run_convergence(small_cfg(out=b))
    name = "eerk2w-c2-1-2_convergence.csv"
    assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_energy_zero_horizon_and_monitor(tmp_path):
    cfg = small_cfg(methods=["eerk31:c2=4/9"], taus=[0.1], t_final=0.0, out=tmp_path)
    rep = run_energy(cfg)["eerk31:c2=4/9"]
    assert rep.n_steps == 0 and rep.energies.shape == (1,)
    cfg = small_cfg(methods=["eerk31:c2=4/9"], taus=[0.1], t_final=0.5,
                    monitor=True, ic="bumps", out=tmp_path)
    rep = run_energy(cfg)["eerk31:c2=4/9"]
    assert rep.margins.shape == (5, 3)
    margins_csv = (tmp_path / "eerk31-c2-4-9_margins.csv").read_text().splitlines()
    assert margins_csv[0] == "t,margin_1,margin_2,margin_3"
    assert len(margins_csv) == 6
    energy_csv = (tmp_path / "eerk31-c2-4-9_energy.csv").read_text().splitlines()
    assert len(energy_csv) == 7


def test_run_analysis_outputs(tmp_path):
    cfg = ExperimentConfig(methods=["etd1", "etd2cf3"], out=tmp_path,
                           grid="lin:-20:-0.01:150")
    results = run_analysis(cfg)
    assert results["etd1"].verdict == "PSD-on-grid"
    assert results["etd2cf3"].verdict == "NPD"
    summary = (tmp_path / "classification.csv").read_text().splitlines()
    assert summary[0] == "method,verdict,witness_z,witness_minor,witness_value"
    assert len(summary) == 3
    minors = (tmp_path / "etd2cf3_minors.csv").read_text().splitlines()
    assert minors[0] == "z,rate,minor_1,minor_2,minor_3"
    assert len(minors) == 151


def test_run_rate_with_implicit_column(tmp_path):
    cfg = ExperimentConfig(methods=["eerk2:c2=1"], out=tmp_path,
                           grid="lin:-10:-0.1:30", implicit=True)
    curves = run_rate(cfg)["eerk2:c2=1"]
    assert np.all(curves["rate_implicit"] < curves["rate"])
    header = (tmp_path / "eerk2-c2-1_rate.csv").read_text().splitlines()[0]
    assert header == "z,rate,rate_implicit"


@pytest.mark.parametrize("taus,zero_row", [("0.01,0.005", 1), ("0.005,0.01", 0)],
                         ids=["later-row", "earlier-row"])
def test_cli_converge_zero_error_has_undefined_order(taus, zero_row, capsys, tmp_path):
    # a coarse run that repeats the reference run has an error of exactly 0;
    # an order next to it is undefined, as in the first row
    code = main(["converge", "--method", "eerk2w:c2=1", "--tau", taus, "--ref-tau", "0.005",
                 "--ref-method", "eerk2w:c2=1", "--m", "31", "--T", "0.1",
                 "--out", str(tmp_path)])
    assert code == 0
    table = capsys.readouterr().out.splitlines()[2:]
    assert [line.split()[-1] for line in table] == ["-", "-"]
    table = [line.split(",") for line in
             (tmp_path / "eerk2w-c2-1_convergence.csv").read_text().splitlines()[1:]]
    assert [row[2] for row in table] == ["", ""]
    assert [float(row[1]) == 0.0 for row in table] == [i == zero_row for i in range(2)]


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


_PROBLEM_FLAGS = {"--tau": "tau", "--kappa": "kappa", "--eps": "eps", "--T": "T", "--m": "m",
                  "--h": "h", "--ic": "ic"}
_COMMON_FLAGS = {"--method": "method", "--config": "config", "--out": "out"}
# every flag of every subcommand, option string -> dest
_FLAGS = {
    "catalog": {},
    "analyze": {**_COMMON_FLAGS, "--grid": "grid", "--implicit": "implicit"},
    "rate": {**_COMMON_FLAGS, "--grid": "grid", "--implicit": "implicit"},
    "converge": {**_COMMON_FLAGS, **_PROBLEM_FLAGS, "--ref-method": "ref_method",
                 "--ref-tau": "ref_tau"},
    "energy": {**_COMMON_FLAGS, **_PROBLEM_FLAGS, "--monitor": "monitor"},
}


def _subparsers():
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


def test_cli_flags_are_pinned():
    subparsers = _subparsers()
    assert set(subparsers) == set(_FLAGS)
    for command, flags in _FLAGS.items():
        actions = [a for a in subparsers[command]._actions
                   if not isinstance(a, argparse._HelpAction)]
        assert {a.option_strings[0]: a.dest for a in actions} == flags, command
        for a in actions:
            assert len(a.option_strings) == 1 and not a.required, (command, a.option_strings)
            if a.dest == "method":
                assert isinstance(a, argparse._AppendAction) and a.metavar == "SPEC"
            else:
                # a switch takes an optional value, on when left out, and
                # names the values it takes; every other flag exactly one
                switch = a.dest in ("monitor", "implicit")
                assert a.metavar == ("on|off" if switch else None), (command, a.dest)
                assert (a.nargs, a.const) == (("?", "on") if switch else (None, None)), (command, a.dest)


def test_cli_flags_parse_as_config_strings():
    parse = build_parser().parse_args
    args = parse(["energy", "--method", "etd1", "--method", "eerk2:c2=1", "--monitor", "--T", "2"])
    assert (args.method, args.monitor, args.T, args.tau) == (["etd1", "eerk2:c2=1"], "on", "2", None)
    assert parse(["converge", "--ref-method", "etd1"]).ref_method == "etd1"
    assert parse(["rate", "--implicit"]).implicit == "on"
    assert parse(["energy", "--monitor", "off", "--T", "2"]).monitor == "off"
    assert parse(["analyze"]).implicit is None
    for argv in (["catalog", "--method", "etd1"],
                 ["analyze", "--T", "1"], ["converge", "--monitor"], ["energy", "--grid", "x"]):
        with pytest.raises(SystemExit):
            parse(argv)


def test_cli_energy_defaults_lie_below_the_config_file(tmp_path):
    parse = build_parser().parse_args
    cfg = _config(parse(["energy"]))
    assert (cfg.taus, cfg.t_final, cfg.ic) == ([0.1], 160, "bumps")
    # the other subcommands keep the ExperimentConfig defaults
    cfg = _config(parse(["converge"]))
    assert (cfg.taus, cfg.t_final, cfg.ic) == ([0.01, 0.005, 0.0025, 0.00125], 8.0, "sine")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("tau = 0.2\nT = 0.8\nic = sine\nmonitor = on\n")
    cfg = _config(parse(["energy", "--config", str(cfgfile)]))
    assert (cfg.taus, cfg.t_final, cfg.ic, cfg.monitor) == ([0.2], 0.8, "sine", True)
    cfg = _config(parse(["energy", "--config", str(cfgfile), "--T", "0.4", "--ic", "bumps"]))
    assert (cfg.taus, cfg.t_final, cfg.ic) == ([0.2], 0.4, "bumps")


@pytest.mark.parametrize("lines,in_file,flag", [
    ("m = 31\nh = 0.5\n", 12, ["--m", "15"]),
    ("h = 0.5\nm = 31\n", 31, ["--h", "0.3927"]),
], ids=["m-then-h", "h-then-m"])
def test_cli_mesh_flag_overrides_either_spelling_in_the_file(lines, in_file, flag, tmp_path):
    # m and h set one field: the later entry wins, whichever key spells it
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(lines)
    parse = build_parser().parse_args
    assert _config(parse(["energy", "--config", str(cfgfile)])).m == in_file
    assert _config(parse(["energy", "--config", str(cfgfile), *flag])).m == 15


def test_cli_switch_given_off_overrides_the_config_file(capsys, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("method = etd1\nm = 7\ntau = 0.1\nT = 0.2\nmonitor = on\n")
    out = tmp_path / "off"
    assert main(["energy", "--config", str(cfgfile), "--monitor", "off", "--out", str(out)]) == 0
    assert "stage law" not in capsys.readouterr().out
    assert (out / "etd1_energy.csv").exists() and not list(out.glob("*_margins.csv"))
    # analyze --implicit off classifies the standard variant
    assert main(["analyze", "--method", "etd3rk", "--implicit", "off"]) == 0
    w = classify_method(get_method("etd3rk")).witness
    assert f"minor {w.minor_index} = {w.minor_value:.6g}\n" in capsys.readouterr().out
    assert main(["energy", "--method", "etd1", "--monitor", "perhaps"]) == 2
    assert capsys.readouterr().err == ("error: cannot parse monitor='perhaps': "
                                       "expected 1/0, true/false, on/off or yes/no\n")


def test_cli_catalog(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "eerk32" in out and "etd1" in out


def test_cli_analyze_and_exit_codes(capsys, tmp_path):
    code = main(["analyze", "--method", "etd1", "--grid", "lin:-10:-0.1:50",
                 "--out", str(tmp_path)])
    assert code == 0
    assert "PSD-on-grid" in capsys.readouterr().out
    assert main(["analyze", "--method", "nosuch"]) == 2
    assert main(["analyze", "--method", "eerk2:c2=0"]) == 2
    assert main(["rate", "--method", "eerk2:c2"]) == 2


def test_cli_converge_small(capsys, tmp_path):
    code = main(["converge", "--method", "eerk2w:c2=1/2", "--m", "31",
                 "--tau", "0.05,0.025", "--T", "0.4",
                 "--ref-method", "eerk2w:c2=3/11", "--ref-tau", "0.00625",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "order" in out and "eerk2w:c2=1/2" in out


def test_cli_config_file_with_flag_override(capsys, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "method = eerk31:c2=4/9\n"
        "m = 31\n"
        "tau = 0.2\n"
        "T = 1\n"
        "ic = bumps\n")
    code = main(["energy", "--config", str(cfgfile), "--T", "0.4",
                 "--monitor", "--out", str(tmp_path / "out")])
    assert code == 0
    assert "min margin" in capsys.readouterr().out
    energy_csv = (tmp_path / "out" / "eerk31-c2-4-9_energy.csv").read_text().splitlines()
    assert len(energy_csv) == 4  # header + E(0), E(0.2), E(0.4)


@pytest.mark.parametrize("monitor", [[], ["--monitor"]], ids=["plain", "monitor"])
def test_cli_energy_zero_horizon(monitor, tmp_path):
    assert main(["energy", "--method", "etd1", "--T", "0", *monitor, "--out", str(tmp_path)]) == 0
    cfg = ExperimentConfig(ic="bumps")
    problem = cfg.problem()
    u0 = cfg.initial_state(problem)
    energy = np.loadtxt(tmp_path / "etd1_energy.csv", delimiter=",", skiprows=1, ndmin=2)
    assert energy.tolist() == [[0.0, problem.energy(u0)]]
    final = np.loadtxt(tmp_path / "etd1_final.csv", delimiter=",", skiprows=1)
    assert np.array_equal(final, np.column_stack([problem.op.x, u0]))
    assert not (tmp_path / "etd1_margins.csv").exists()


@pytest.mark.parametrize("argv", [
    ["energy", "--method", "etd1", "--tau", "0.03", "--T", "1"],
    ["energy", "--method", "etd1", "--tau", "-0.1"],
    ["energy", "--method", "etd1", "--kappa", "-5"],
    ["energy", "--method", "etd1", "--eps", "nan"],
    ["energy", "--method", "etd1", "--h", "0"],
    ["converge", "--method", "etd1", "--T", "0.013"],
    ["analyze", "--method", "etd1", "--grid", "lin:nan:0:3"],
    ["analyze", "--method", "etd1", "--grid", "lin:-1:0:-3"],
    ["energy", "--method", "etd1", "--m", "100000000"],
    ["energy", "--method", "etd1", "--h", "1e-9"],
    ["energy", "--method", "etd1", "--T", "0.1", "--eps", "inf"],
    ["energy", "--method", "etd1", "--T", "0.1", "--eps", "1e200"],
    ["energy", "--method", "etd1", "--T", "0.1", "--eps", "-0.2"],
    ["energy", "--method", "etd1", "--T", "0.1", "--kappa", "inf"],
    ["energy", "--method", "etd1", "--T", "0.1", "--kappa", "1e308"],
    ["energy", "--method", "etd1", "--T", "1e300", "--tau", "0.1"],
    ["energy", "--method", "etd1", "--tau", "1e-300", "--T", "0.1"],
    ["energy", "--method", "etd1", "--tau", "1e-300", "--T", "1e300"],
    ["converge", "--method", "etd1", "--tau", "0.1", "--T", "0.1", "--ref-tau", "1e-300"],
    ["analyze", "--method", "etd1", "--grid", "lin:-1:0:1000000000"],
    ["converge", "--method", "etd1", "--ref-tau", "nan"],
    ["converge", "--method", "etd1", "--ref-tau", "-1"],
    ["converge", "--method", "etd1", "--ref-tau", "inf"],
    ["converge", "--method", "etd1", "--tau", "0.01,0.01", "--T", "0.02"],
    # D(z) leaves the float64 range on these grids, found while scanning them
    ["analyze", "--method", "ho4", "--grid", "log:1e20:1e30:3"],
    ["rate", "--method", "ho4", "--grid", "lin:-1e160:-1e150:3"],
    ["analyze", "--method", "cm4", "--grid", "lin:-1e160:-1e150:3"],
    # a diagonal coefficient of the monitor's D(z) vanishes at a point of the run
    ["energy", "--method", "ho4", "--tau", "1e15", "--T", "1e15", "--monitor"],
    ["analyze", "--method", "etd1", "--grid", "lin:-1:0:2:5"],
    ["converge", "--method", "etd1", "--ref-method", "foo"],
    ["energy", "--method", "etd1", "--T", "nan"],
    ["energy", "--method", "etd1", "--T", "-1"],
    # 4 reference steps over 3 coarse ones
    ["converge", "--method", "eerk2w:c2=1", "--tau", "0.02", "--ref-tau", "0.015", "--T", "0.06",
     "--m", "31"],
    # each chunk is within the point cap, their union is not
    ["analyze", "--method", "etd1", "--grid", "lin:-2:-1:1048576+lin:-4:-3:1048576"],
])
def test_cli_bad_input_exits_with_config_error(argv, capsys, tmp_path):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("h", ["0", "nan", "inf", "-1", "1e-300"])
def test_cli_bad_spacing_is_named(h, capsys, tmp_path):
    out = tmp_path / "out"
    assert main(["energy", "--method", "etd1", "--h", h, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: mesh spacing h=") and f"h={float(h)} " in err, err
    assert not out.exists()


@pytest.mark.parametrize("args,named", [
    (["--h", "10"], "h=10.0 "),
    (["--tau", "abc"], "tau='abc'"),
    (["--m", "2.5"], "m='2.5'"),
    (["--eps", "x"], "eps='x'"),
    (["--T", "1e"], "T='1e'"),
    (["--config", "monitor = perhaps"], "monitor='perhaps'"),
], ids=["coarse-h", "tau", "m", "eps", "T", "config-monitor"])
def test_cli_config_errors_name_key_and_value(args, named, capsys, tmp_path):
    if args[0] == "--config":
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(args[1] + "\n")
        args = ["--config", str(cfgfile)]
    out = tmp_path / "out"
    assert main(["energy", "--method", "etd1", *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err, err
    assert not out.exists()


_OVERFLOWING_SPECS = ["eerk2:c2=1e-400", "eerk2w:c2=1e-310", "eerk2s:c2=1e-309",
                      "eerk31:c2=1e-320", "eerk32:c2=1/2,c3=1e-400"]


@pytest.mark.parametrize("command", ["energy", "converge", "analyze", "rate"])
@pytest.mark.parametrize("spec", _OVERFLOWING_SPECS)
def test_cli_weight_beyond_float64_is_a_config_error(spec, command, capsys, tmp_path):
    # a tiny abscissa gives a weight like 1/c2 that no float64 holds; it is
    # refused under the spec as given before any output directory is made
    extra = ["--m", "15", "--T", "0.1"] if command in ("energy", "converge") else []
    out = tmp_path / "out"
    assert main([command, "--method", spec, *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {spec} has a coefficient weight outside the float64 range\n", err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["energy", "--method", "eerk2:c2=1", "--m", "31", "--tau", "1e308", "--T", "1e308"],
    ["converge", "--method", "etd1", "--m", "31", "--tau", "1e308", "--ref-tau", "1e308",
     "--T", "1e308"],
    ["energy", "--method", "etd1", "--m", "31", "--kappa", "1e300", "--tau", "1e10", "--T", "1e10",
     "--monitor"],
    ["energy", "--method", "etd1", "--m", "31", "--T", "0", "--tau", "1e308"],
], ids=["energy", "converge", "energy-stiff", "energy-zero-horizon"])
def test_cli_step_beyond_the_stiff_spectrum_is_a_config_error(argv, capsys, tmp_path):
    # tau * mu overflows float64: refused by its tau before the output
    # directory is made, not a phi error from the first step
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    tau = float(argv[argv.index("--tau") + 1])
    assert err.startswith(f"error: step size tau {tau} times the largest stiff eigenvalue "), err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_config_file_that_is_not_utf8_is_a_config_error(capsys, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_bytes(b"\xff\xfem\x00e\x00t\x00")
    out = tmp_path / "out"
    for command in ("energy", "converge", "analyze", "rate"):
        assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {cfgfile}: 'utf-8' codec"), err
    assert not out.exists()


@pytest.mark.parametrize("source", ["cli", "config"])
def test_repeated_method_parameter_is_a_config_error(source, capsys, tmp_path):
    if source == "cli":
        args = ["--method", "eerk2:c2=1,c2=1/2"]
    else:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("method = eerk2:c2=1, c2=1/2\n")
        args = ["--config", str(cfgfile)]
    out = tmp_path / "out"
    assert main(["rate", *args, "--grid", "lin:-1:0:3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: method spec 'eerk2:c2=1,c2=1/2' repeats parameter 'c2'\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["energy", "converge", "analyze", "rate"])
@pytest.mark.parametrize("specs,label", [
    (["etd1", "etd1"], "etd1"),
    (["eerk2w:c2=1", "eerk2w:c2=1/1"], "eerk2w:c2=1"),
], ids=["same-spec", "same-label"])
def test_cli_method_given_twice_is_a_config_error(specs, label, command, capsys, tmp_path):
    # a method's printed line and CSV files go under its label, so a second
    # run under one label would hide the first
    extra = ["--m", "15", "--T", "0.1"] if command in ("energy", "converge") else []
    out = tmp_path / "out"
    methods = [arg for spec in specs for arg in ("--method", spec)]
    assert main([command, *methods, *extra, "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"error: method {label} is given twice (as {specs[0]!r} and {specs[1]!r})\n")
    assert not out.exists()


def test_cli_unwritable_csv_is_a_config_error(capsys, tmp_path):
    (tmp_path / "etd1_energy.csv").mkdir()
    code = main(["energy", "--method", "etd1", "--m", "7", "--tau", "0.1", "--T", "0.2",
                 "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / 'etd1_energy.csv'}: ")


def test_analysis_with_curves_forms_each_grid_once(monkeypatch, tmp_path):
    # one D(z) on the full grid per method gives both the minor curves and
    # the verdict, and the witness comes from the scan that judged it; only
    # the 20 bisection steps of each of the two NPD methods, eerk2w:c2=1/4
    # and ho4, form D at single points
    ndims = []
    full = dissipation.differentiation_matrix

    def counted(t, z, variant="standard"):
        ndims.append(np.ndim(z))
        return full(t, z, variant)

    monkeypatch.setattr(dissipation, "differentiation_matrix", counted)
    run_analysis(ExperimentConfig(methods=["etd1", "eerk2w:c2=1/4", "ho4"], out=tmp_path))
    assert ndims.count(1) == 3 and ndims.count(0) == 40 and len(ndims) == 43


def test_cli_analyze_prints_the_npd_witness(capsys):
    assert main(["analyze", "--method", "etd3rk"]) == 0
    w = classify_method(get_method("etd3rk")).witness
    line = f"{'etd3rk':28s} NPD  witness z={w.z:.6g} minor {w.minor_index} = {w.minor_value:.6g}"
    assert capsys.readouterr().out == line + "\n"
    assert line.endswith("witness z=-1e-06 minor 3 = -8.87499")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_converge_divergence_exit_code(capsys):
    code = main(["converge", "--method", "eerk2w:c2=1/10", "--kappa", "0.1", "--m", "63",
                 "--ic", "bumps", "--tau", "2,1", "--T", "40", "--ref-method", "eerk2w:c2=1",
                 "--ref-tau", "0.5"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err == "divergence: eerk2w:c2=1/10 at tau=2.0 diverged at step 5\n"
    assert captured.out == ""


def test_cli_converge_divergence_keeps_the_same_tables_in_either_order(capsys, tmp_path):
    # the member that runs to the end writes its table and the diverged one
    # does not, whichever comes first; the divergence named is the same
    methods = ["eerk2w:c2=1", "eerk2w:c2=1/10"]
    common = ["--kappa", "0.1", "--m", "63", "--ic", "bumps", "--tau", "1,0.5", "--T", "40",
              "--ref-method", "eerk2w:c2=1", "--ref-tau", "0.25"]
    runs = []
    for name, order in (("a", methods), ("b", methods[::-1])):
        out = tmp_path / name
        args = [arg for spec in order for arg in ("--method", spec)]
        assert main(["converge", *args, *common, "--out", str(out)]) == 3
        runs.append((capsys.readouterr(), {f.name: f.read_bytes() for f in out.iterdir()}))
    assert runs[0] == runs[1]
    captured, files = runs[0]
    assert captured.err == "divergence: eerk2w:c2=1/10 at tau=1.0 diverged at step 5\n"
    assert captured.out == ""
    assert list(files) == ["eerk2w-c2-1_convergence.csv"]


def test_cli_converge_zero_horizon_is_a_config_error(capsys, tmp_path):
    # a zero horizon has no error to tabulate, whatever the step sizes
    out = tmp_path / "out"
    code = main(["converge", "--method", "etd1", "--T", "0", "--m", "31", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: a convergence table needs a positive final time, got 0.0\n"
    assert not out.exists()


def test_cli_converge_reference_store_is_bounded(monkeypatch, capsys, tmp_path):
    # 100 and 99 coarse steps align at every 100th of 9900 reference steps,
    # so the reference run would keep 9900 states of 2**20 points: 77 GiB
    def no_run(*args, **kwargs):
        raise AssertionError("a refused table runs no step")

    monkeypatch.setattr("eerk.bench.integrate", no_run)
    out = tmp_path / "out"
    code = main(["converge", "--method", "etd1", "--m", "1048576", "--T", "1",
                 "--tau", "0.01,0.010101010101010102", "--ref-tau", "0.00010101010101010101",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: the reference run would keep 9900 states of m=1048576 points, "
        "more than 134217728 values\n")
    assert not out.exists()


def test_cli_step_rule_holds_only_for_the_steps_a_run_takes(capsys, tmp_path):
    # energy steps with its first tau alone, and analyze takes no step
    out = tmp_path / "out"
    assert main(["energy", "--method", "etd1", "--tau", "0.1,0.03", "--T", "1", "--m", "15",
                 "--out", str(out)]) == 0
    assert sorted(f.name for f in out.iterdir()) == ["etd1_energy.csv", "etd1_final.csv"]
    energy = np.loadtxt(out / "etd1_energy.csv", delimiter=",", skiprows=1)
    assert energy.shape == (11, 2) and energy[-1, 0] == pytest.approx(1.0)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("T = 0.013\n")
    assert main(["analyze", "--method", "etd1", "--config", str(cfgfile)]) == 0
    assert capsys.readouterr().out.endswith(f"{'etd1':28s} PSD-on-grid\n")


def test_cli_implicit_verdict_far_out_is_psd(capsys):
    # the implicit diagonal 1/a + z cancels terms as large as |z|, and out to
    # |z| = 1e8 its rounding is no witness: each method reads PSD-on-grid
    specs = ["etd1", "eerk2:c2=1", "eerk2w:c2=1/2"]
    methods = [arg for spec in specs for arg in ("--method", spec)]
    assert main(["analyze", "--implicit", *methods, "--grid", "log:1e4:1e8:401"]) == 0
    assert capsys.readouterr().out == "".join(f"{spec:28s} PSD-on-grid\n" for spec in specs)


@pytest.mark.parametrize("argv", [
    ["converge", "--method", "eerk2w:c2=1/2", "--m", "15", "--tau", "0.05,0.025", "--T", "0.1"],
    ["energy", "--method", "eerk31:c2=4/9", "--m", "15", "--tau", "0.1", "--T", "0.2", "--monitor"],
    ["analyze", "--method", "etd1", "--method", "ho4", "--grid", "lin:-10:-0.1:20"],
    ["rate", "--method", "cm4", "--grid", "lin:-10:-0.1:20", "--implicit"],
], ids=["converge", "energy", "analyze", "rate"])
def test_cli_without_out_writes_nothing(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().out
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("method,grid", [
    # the minors of S leave the float64 range here, and analyze exits 2
    ("cm4", "lin:-1e160:-1e150:3"),
    # entries of D below its diagonal overflow at -1.75e307, and there the
    # implicit diagonal entries are finite but their sum is not
    ("eerk32:c2=7/10,c3=1", "lin:-1.75e307:-1e307:3"),
], ids=["minors", "below-diagonal"])
def test_cli_rate_reads_only_the_diagonal(method, grid, capsys, tmp_path):
    # the rate is read off the diagonal of D, which stays finite
    assert main(["rate", "--method", method, "--grid", grid, "--implicit", "--out", str(tmp_path)]) == 0
    (path,) = tmp_path.iterdir()
    z, rate, rate_implicit = np.loadtxt(path, delimiter=",", skiprows=1).T
    assert z.shape == (3,) and np.all(np.isfinite([rate, rate_implicit]))
    # the printed rates are the curve's ends, on the grid it carries
    assert capsys.readouterr().out == (
        f"{method:28s} R({z[-1]:.3g}) = {rate[-1]:.6g}   R({z[0]:.3g}) = {rate[0]:.6g}\n")


def test_singular_diagonal_errors_name_method_and_z(capsys, tmp_path):
    # ho4's fourth diagonal coefficient vanishes at z = 0 and far out
    for command in ("rate", "analyze"):
        assert main([command, "--method", "ho4", "--grid", "log:1e20:1e30:3",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "ho4" in err and "z=" in err, err
    with pytest.raises(SingularDiagonalError) as exc:
        doc_kernels(get_method("ho4"), 0.0)
    assert "ho4" in str(exc.value) and "z=" in str(exc.value)


def test_cli_monitored_refusal_prepares_every_stage_group_before_running(capsys, tmp_path,
                                                                        monkeypatch):
    # eerk2w's 2-stage group is prepared, then ho4's 4-stage group refuses the
    # run: a diagonal coefficient of its D(z) vanishes at a point of the run
    prepared = []

    def counted(t, z):
        prepared.append(t.label)
        return coefficient_matrix(t, z)

    def no_run(*args, **kwargs):
        raise AssertionError("a stage group ran before every group was prepared")

    monkeypatch.setattr("eerk.integrator.coefficient_matrix", counted)
    monkeypatch.setattr("eerk.bench.integrate", no_run)
    out = tmp_path / "D"
    assert main(["energy", "--method", "eerk2w:c2=1", "--method", "ho4", "--tau", "1e15",
                 "--T", "1e15", "--monitor", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: ho4: a diagonal coefficient vanishes at z=-8.6397e+15\n"
    assert prepared == ["eerk2w:c2=1", "ho4"]
    assert not out.exists()


@pytest.mark.parametrize("lines", [
    "length = -6.283185307179586\nm = 639\n",
    "length = 0\nm = 639\n",
    "length = nan\nm = 639\n",
    "length = inf\nh = 0.01\n",
], ids=["negative", "zero", "nan", "inf-with-spacing"])
def test_cli_config_file_rejects_bad_length(lines, capsys, tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("method = etd1\nT = 1\n" + lines)
    assert main(["energy", "--config", str(cfgfile), "--out", str(tmp_path / "out")]) == 2
    # the interval is fixed at (0, 2*pi): length is no key
    assert capsys.readouterr().err == "error: unknown config key 'length'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_energy_divergence_exit_code(capsys, tmp_path):
    code = main(["energy", "--method", "eerk2:c2=1", "--m", "31",
                 "--kappa", "0", "--tau", "5", "--T", "100",
                 "--out", str(tmp_path)])
    assert code == 3
    assert "DIVERGED" in capsys.readouterr().out
    # the series up to the failure is still on disk
    assert (tmp_path / "eerk2-c2-1_energy.csv").exists()
    # an ensemble whose first member diverges at step 5 while the other runs
    # to the end exits with the divergence code
    code = main(["energy", "--method", "eerk2w:c2=1/10", "--method", "eerk2w:c2=1",
                 "--kappa", "0.1", "--m", "63", "--tau", "1", "--T", "40", "--monitor"])
    assert code == 3
    diverged, ran = capsys.readouterr().out.splitlines()
    assert diverged == f"{'eerk2w:c2=1/10':28s} DIVERGED at step 5 (t = 5)"
    assert ran.startswith(f"{'eerk2w:c2=1':28s} E(0) = ") and " E(40) = " in ran and "stage law" in ran


@pytest.mark.parametrize("argv", [
    ["converge", "--method", "etd1", "--tau", "0.01,0.005", "--T", "0.02", "--ref-tau", "0.0025",
     "--m", "7"],
    ["energy", "--method", "etd1", "--tau", "0.1", "--T", "0.2", "--m", "7"],
], ids=["converge", "energy"])
def test_cli_unusable_out_exits_before_computing(argv, capsys, tmp_path, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("integrate called before the output directory was checked")

    monkeypatch.setattr("eerk.bench.integrate", no_run)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in ("/dev/null/x", str(blocker), str(blocker / "sub")):
        assert main(argv + ["--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["converge", "--method", "eerk2w:c2=1e-240", "--tau", "0.01,0.005", "--T", "0.02",
     "--ref-tau", "0.0025", "--m", "7"],
    ["energy", "--method", "eerk2w:c2=1e-240", "--m", "7", "--tau", "0.1", "--T", "0.2"],
], ids=["converge", "energy"])
def test_cli_label_too_long_for_a_file_exits_before_computing(argv, capsys, tmp_path, monkeypatch):
    # the 253-character label would name files of more than 255 bytes
    def no_run(*args, **kwargs):
        raise AssertionError("integrate called before the labels were checked")

    monkeypatch.setattr("eerk.bench.integrate", no_run)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_label_limit_holds_only_with_out(capsys, tmp_path):
    # 239 characters name a file with every suffix a driver appends, 240 do not
    argv = ["rate", "--grid", "lin:-1:0:3"]
    fits, too_long = "eerk2:c2=1e-227", "eerk2:c2=1e-228"
    assert main(argv + ["--method", fits, "--out", str(tmp_path / "fits")]) == 0
    (path,) = (tmp_path / "fits").iterdir()
    assert len(path.name) == 239 + len("_rate.csv")
    assert main(argv + ["--method", too_long, "--out", str(tmp_path / "long")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "long").exists()
    assert main(argv + ["--method", too_long]) == 0
    assert capsys.readouterr().out.startswith("eerk2:c2=1/1" + "0" * 228 + " ")


CATALOG_SPECS = ["etd1", "eerk2:c2=1/2", "eerk2w:c2=3/11", "eerk2s:c2=3/4", "eerk31:c2=4/9",
                 "eerk32:c2=1,c3=1/2", "etd3rk", "etd2cf3", "cm4", "krogstad4", "sw4", "ho4"]
_CATALOG_ARGS = [arg for spec in CATALOG_SPECS for arg in ("--method", spec)]
DECAY = Path(__file__).resolve().parent.parent / "configs" / "energy-decay.cfg"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv,n_files", [
    # 60 reference steps over 20 and over 30 coarse ones: strides 3 and 2
    (["converge", "--method", "eerk2w:c2=1", "--tau", "0.03,0.02", "--ref-tau", "0.01",
      "--T", "0.6", "--m", "31"], 1),
    (["analyze", *_CATALOG_ARGS], 13),
    (["analyze", *_CATALOG_ARGS, "--implicit"], 13),
    (["rate", *_CATALOG_ARGS, "--implicit"], 12),
    (["energy", "--config", str(DECAY), "--T", "1", "--monitor"], 3),
], ids=["converge-strides", "analyze-catalog", "analyze-catalog-implicit", "rate-catalog-implicit",
        "energy-monitored"])
def test_cli_runs_are_repeatable(argv, n_files, capsys, tmp_path):
    # identical argvs write bit-identical CSVs and print the same lines
    runs = []
    for name in ("a", "b"):
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
        files = {f.name: f.read_bytes() for f in (tmp_path / name).iterdir()}
        runs.append((capsys.readouterr().out, files))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == n_files


_LABELLED = [*CATALOG_SPECS, "eerk32:c2=1/2,c3=7/10"]
_LABELLED_ARGS = [arg for spec in _LABELLED for arg in ("--method", spec)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv", [
    ["analyze", *_LABELLED_ARGS],
    ["analyze", *_LABELLED_ARGS, "--implicit"],
    ["rate", *_CATALOG_ARGS, "--implicit"],
    ["converge", "--method", "eerk2w:c2=1", "--tau", "0.03,0.02", "--ref-tau", "0.01",
     "--T", "0.6", "--m", "31"],
    ["energy", "--config", str(DECAY), "--T", "1", "--monitor"],
], ids=["analyze", "analyze-implicit", "rate-implicit", "converge", "energy-monitored"])
def test_cli_csvs_are_rectangular(argv, capsys, tmp_path):
    # every CSV reads back under csv.reader as rows as long as its header,
    # and a label with a comma reads back whole
    assert main(argv + ["--out", str(tmp_path)]) == 0
    for path in tmp_path.iterdir():
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(row) == len(header) for row in rows), path.name
        if path.name == "classification.csv":
            assert [row[0] for row in rows] == _LABELLED


def test_stage_law_verdicts(capsys, tmp_path):
    # the T=160 decay run ends with margins of -2.8e-16, once the energy has
    # stopped changing: below zero, but within a few ulps of the energies
    assert main(["energy", "--config", str(DECAY), "--out", str(tmp_path)]) == 0
    assert "stage law held within rounding" in capsys.readouterr().out
    cfg = load_config(DECAY, {"T": "10"})
    rep = run_energy(cfg)["eerk31:c2=4/9"]
    assert rep.energy_law == "held" and rep.margins.min() >= 0
    # a method that is not PSD, at a step far beyond its sampled grid
    args = ["--m", "63", "--ic", "bumps", "--tau", "10", "--T", "50", "--monitor"]
    assert main(["energy", "--method", "etd2cf3", *args]) == 0
    assert "stage law violated" in capsys.readouterr().out
    rep = run_energy(load_config(None, {"method": "etd2cf3", "m": "63", "ic": "bumps", "tau": "10",
                                        "T": "50", "monitor": "on"}))["etd2cf3"]
    assert rep.energy_law == "violated"
    assert rep.margins.min() < -1e10 * rep.margin_floors.max()
