import math

import pytest

from relucalc import analysis
from relucalc.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_square_metrics(capsys, tmp_path):
    out = tmp_path / "sq.relunet"
    code, stdout, _ = run_cli(
        capsys, "build", "square", "--eps", "1e-3", "--out", str(out)
    )
    assert code == 0
    header, row = stdout.strip().splitlines()
    assert header.startswith("constructor,")
    fields = row.split(",")
    assert fields[0] == "square"
    assert int(fields[3]) == 3  # width
    assert out.exists()


def test_build_sawtooth_depth(capsys):
    code, stdout, _ = run_cli(capsys, "build", "sawtooth", "--s", "4")
    assert code == 0
    row = stdout.strip().splitlines()[1]
    assert int(row.split(",")[2]) == 5  # depth s+1


def test_build_unknown_constructor(capsys):
    code, _, stderr = run_cli(capsys, "build", "nosuch")
    assert code == 2
    assert "unknown constructor" in stderr


def test_sweep_square(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run_cli(
        capsys,
        "sweep",
        "square",
        "--eps-list",
        "0.25,0.0625,0.001",
        "--grid",
        "10001",
        "--out",
        str(out),
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0].startswith("eps,")
    assert len(lines) == 4
    for line in lines[1:]:
        eps, err = (float(v) for v in line.split(",")[:2])
        assert err <= eps + 1e-12
    # depth column affine in log2(1/eps) with slope 1/2 up to rounding
    depths = [int(line.split(",")[3]) for line in lines[1:]]
    for line, depth in zip(lines[1:], depths):
        eps = float(line.split(",")[0])
        assert depth == max(1, math.ceil(math.log2(1 / eps) / 2) - 1) + 1


def test_sweep_deterministic(capsys, tmp_path):
    args = ["sweep", "square", "--eps-list", "0.01,0.001", "--grid", "5001"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweep_empty_list(capsys):
    code, _, stderr = run_cli(capsys, "sweep", "square", "--eps-list", "")
    assert code == 2


def test_sweep_gaussian_meets_tolerance(capsys):
    code, stdout, _ = run_cli(
        capsys, "sweep", "gaussian", "--m", "1", "--eps-list", "0.1",
        "--grid", "2001",
    )
    assert code == 0
    eps, err = (float(v) for v in stdout.strip().splitlines()[1].split(",")[:2])
    assert err <= eps


def test_sweep_splits_the_grid_across_six_axes(capsys):
    # 11 points over 6 axes is 2 per axis; a fixed per-axis floor of 33
    # would ask for 33**6 points (about 10 GB)
    code, stdout, _ = run_cli(
        capsys, "sweep", "gaussian", "--m", "6", "--eps-list", "0.1",
        "--grid", "11",
    )
    assert code == 0
    eps, err = (float(v) for v in stdout.strip().splitlines()[1].split(",")[:2])
    assert err <= eps


def test_sweep_without_reference_is_usage_error(capsys):
    code, _, stderr = run_cli(capsys, "sweep", "sawtooth")
    assert code == 2
    assert "has no sweep reference" in stderr


def test_codec_round_trip(capsys, tmp_path):
    net_path = tmp_path / "net.relunet"
    run_cli(capsys, "build", "square", "--eps", "1e-2", "--out", str(net_path))
    code, stdout, _ = run_cli(
        capsys,
        "codec",
        str(net_path),
        "--k",
        "4",
        "--D",
        "1.0",
        "--eps",
        "0.25",
        "--grid",
        "2001",
    )
    assert code == 0
    header, row = stdout.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["round_trip_ok"] == "1"
    assert int(fields["bits"]) <= int(fields["bound"])
    assert float(fields["deviation"]) <= 0.25


def test_codec_corrupted_file(capsys, tmp_path):
    bad = tmp_path / "bad.relunet"
    bad.write_text("relunet v1\n2\n1 3 1\n0x1p+0\n")
    code, _, stderr = run_cli(capsys, "codec", str(bad), "--eps", "0.25")
    assert code == 3


def test_codec_empty_domain_is_usage_error(capsys, tmp_path):
    net_path = tmp_path / "net.relunet"
    run_cli(capsys, "build", "square", "--eps", "1e-2", "--out", str(net_path))
    code, _, stderr = run_cli(
        capsys, "codec", str(net_path), "--D", "0", "--eps", "0.25"
    )
    assert code == 2
    assert "empty domain" in stderr


def test_codec_deep_sawtooth_uses_uniform_grid(capsys, tmp_path, monkeypatch):
    # a depth-31 sawtooth has about 2^30 breakpoints on [-1, 1]; codec must
    # measure the deviation on the uniform grid and never enumerate them
    net_path = tmp_path / "saw.relunet"
    run_cli(capsys, "build", "sawtooth", "--s", "30", "--out", str(net_path))

    def no_exact_pwl(*args, **kwargs):
        raise AssertionError("codec enumerated the breakpoints")

    monkeypatch.setattr(analysis, "exact_pwl", no_exact_pwl)
    code, stdout, _ = run_cli(
        capsys, "codec", str(net_path), "--k", "5", "--eps", "0.25", "--grid", "2001"
    )
    assert code == 0
    header, row = stdout.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["round_trip_ok"] == "1"
    assert float(fields["deviation"]) <= 0.25


def test_codec_single_grid_point_is_usage_error(capsys, tmp_path):
    net_path = tmp_path / "net.relunet"
    run_cli(capsys, "build", "square", "--eps", "1e-2", "--out", str(net_path))
    code, _, stderr = run_cli(
        capsys, "codec", str(net_path), "--grid", "1", "--eps", "0.25"
    )
    assert code == 2
    assert "two grid points" in stderr


def test_regions_sawtooth(capsys, tmp_path):
    net_path = tmp_path / "saw.relunet"
    run_cli(capsys, "build", "sawtooth", "--s", "5", "--out", str(net_path))
    code, stdout, _ = run_cli(capsys, "regions", str(net_path), "0.0", "1.0")
    assert code == 0
    row = stdout.strip().splitlines()[1]
    count, bound = (int(v) for v in row.split(","))
    assert count == 32
    assert bound >= count


def test_minpieces_square(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "minpieces",
        "square",
        "0.0",
        "1.0",
        "--eps-list",
        "1e-4",
        "--grid",
        "40001",
    )
    assert code == 0
    row = stdout.strip().splitlines()[1]
    fields = row.split(",")
    assert abs(int(fields[1]) - 36) <= 2
    assert abs(float(fields[3]) - math.sqrt(2) / 4) <= 1e-9


def test_minpieces_quadrature_failure_is_data_error(capsys):
    code, stdout, stderr = run_cli(
        capsys, "minpieces", "weierstrass_partial", "0", "1", "--a", "3",
        "--eps-list", "1e-2", "--grid", "20001",
    )
    assert code == 3
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    assert "quadrature failed" in stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["regions", "NET", "0", "1", "--eps", "0.1"],
        ["build", "square", "--grid", "5"],
        ["sweep", "square", "--eps", "0.1"],
        ["codec", "NET", "--a", "2"],
    ],
)
def test_subcommands_reject_flags_they_do_not_read(capsys, tmp_path, argv):
    net_path = tmp_path / "sq.relunet"
    run_cli(capsys, "build", "square", "--out", str(net_path))
    argv = [str(net_path) if arg == "NET" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_minpieces_unknown_function(capsys):
    code, _, stderr = run_cli(capsys, "minpieces", "cube", "0", "1")
    assert code == 2


def test_build_invalid_params_usage_error(capsys):
    code, _, stderr = run_cli(capsys, "build", "square", "--eps", "0.7")
    assert code == 2
    assert "invalid parameters" in stderr


def test_sweep_postcondition_violation_exit_code(capsys):
    # order-1 B-spline has jumps; its sup error against the indicator stays
    # near 1/2, breaching any small tolerance: the sweep must fail loudly
    code, stdout, stderr = run_cli(
        capsys,
        "sweep",
        "bspline",
        "--m",
        "1",
        "--eps-list",
        "0.01",
        "--grid",
        "2001",
    )
    assert code == 4
    assert "postcondition" in stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["minpieces", "square", "1", "0"],
        ["minpieces", "square", "0", "1", "--eps-list=-1"],
        ["minpieces", "square", "0", "1", "--eps-list", "nan"],
        ["minpieces", "square", "0", "1", "--grid", "-5"],
        ["minpieces", "square", "0", "1", "--grid", "1"],
        ["regions", "NET", "1", "0"],
        ["regions", "NET2D", "0", "1"],
        ["sweep", "square", "--grid", "1"],
        ["minpieces", "square", "0", "inf"],
        ["regions", "NET", "0", "inf"],
        ["codec", "NET", "--D", "inf"],
        ["build", "cosine", "--D", "inf"],
        ["sweep", "cosine", "--D", "inf"],
        ["build", "multiply", "--D", "inf"],
        ["build", "multiply", "--D", "1e300"],
        ["build", "cosine", "--a", "inf"],
        ["build", "cosine", "--a", "1e300"],
        ["build", "weierstrass", "--a", "inf"],
        ["build", "haar", "--s", "100000"],
        ["codec", "NET", "--k", "1000"],
    ],
)
def test_bad_arguments_exit_2_with_one_line(capsys, tmp_path, argv):
    nets = {"NET": tmp_path / "sq.relunet", "NET2D": tmp_path / "box.relunet"}
    run_cli(capsys, "build", "square", "--out", str(nets["NET"]))
    run_cli(capsys, "build", "cutoff", "--m", "2", "--out", str(nets["NET2D"]))
    code, stdout, stderr = run_cli(capsys, *[str(nets.get(a, a)) for a in argv])
    assert code == 2
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    assert "invalid parameters" in stderr
    if "--k" in argv:
        assert "k = " in stderr
    if "--a" in argv:
        assert "a = " in stderr
    if argv[:2] == ["build", "haar"]:
        assert "n = 100000" in stderr
    if argv[:2] == ["build", "multiply"]:
        assert "D = " in stderr
