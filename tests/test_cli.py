import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from cimsim.cli import build_parser, main
from cimsim.verify import ALL_CHECKS


def _case(number, argv, message):
    # a fixed id per case, so deleting a case renames no other
    return pytest.param(argv, message, id=f"argv{number}-{message}")


@pytest.mark.parametrize("argv,message", [
    _case(0, ["ber", "--power-range", "0:10:0"], "zero step"),
    _case(1, ["ber", "--config", "{cfg}"], "geometry CCA with n_elements=16"),
    _case(2, ["pattern", "--geometry", "ULA", "--resolution", "2"],
          "1 degree or finer"),
    _case(3, ["ber", "--seed", "-1"], "seed must be at least 0, got -1"),
    _case(4, ["pattern", "--geometry", "ULA", "--resolution", "0"],
          "grid step must be positive, got az_step_deg=0"),
    _case(5, ["pattern", "--geometry", "ULA", "--resolution", "-0.5"],
          "grid step must be positive, got az_step_deg=-0.5"),
    _case(6, ["ber", "--workers", "0"], "workers must be at least 1, got 0"),
    _case(7, ["ber", "--trials", "1", "5", "7"],
          "--trials takes realizations [symbols per realization], "
          "got 3 values"),
    _case(8, ["ber", "--power-range", "nan"],
          "powers_dbm must be finite, got nan"),
    _case(9, ["ber", "--power-range", "0:1"],
          "powers_dbm range must be lo:hi:step, got '0:1'"),
    _case(10, ["ber", "--power-range", "0:1:2:3"],
          "powers_dbm range must be lo:hi:step, got '0:1:2:3'"),
    _case(11, ["ber", "--config", "{dir}/carrier.cfg"],
          "carrier.cfg:1: carrier_hz: unknown key"),
    _case(12, ["ber", "--config", "{dir}/position.cfg"],
          "position.cfg:1: tx_position: unknown key"),
    _case(13, ["ber", "--config", "{dir}/distance.cfg"],
          "distance.cfg:1: distance_m: unknown key"),
    _case(14, ["pattern", "--geometry", "ULA", "--steer", "nan", "0"],
          "steering offsets must be finite, got az nan, el 0 deg"),
    _case(15, ["pattern", "--geometry", "URA", "--steer", "0", "inf"],
          "steering offsets must be finite, got az 0, el inf deg"),
    _case(16, ["codebook", "--nf", "0"],
          "need at least two fixed phase shifters"),
    _case(17, ["codebook", "--nf", "-2"],
          "need at least two fixed phase shifters"),
    _case(18, ["ber", "--config", "{cfg}.missing"],
          "cannot read config file: No such file or directory"),
    _case(19, ["ber", "--config", "{dir}"],
          "cannot read config file: Is a directory"),
    _case(20, ["ber", "--config", "{binary}"],
          "binary.cfg: cannot read config file: 'utf-8' codec can't decode "
          "byte 0xff"),
    _case(21, ["ber", "--geometry", "URA", "--geometry", "ura"],
          "geometries repeats 'URA'"),
    _case(22, ["ber", "--hardware", "OP", "--hardware", "op"],
          "hardware repeats 'op'"),
    _case(23, ["ber", "--hardware", "HE8", "--hardware", "he(8)"],
          "hardware repeats 'he(8)'"),
    _case(24, ["ber", "--power-range=-10,-10"], "powers_dbm repeats -10.0"),
    _case(25, ["ber", "--config", "{dup}"],
          "dup.cfg:2: signalings: signalings repeats (2, 4)"),
    _case(26, ["pattern", "--geometry", "URA", "--geometry", "ura"],
          "geometries repeats 'URA'"),
    _case(27, ["ber", "--hardware", "HE2000"],
          "hardware HE2000: 2000 fixed phase shifters give a phase step "
          "of 0 rad"),
    _case(28, ["ber", "--config", "{he}"],
          "he.cfg:1: hardware: hardware HE2000: 2000 fixed phase shifters"),
    _case(29, ["codebook", "--nf", "2000"],
          "2000 fixed phase shifters give a phase step of 0 rad"),
    _case(30, ["codebook", "--seed", "-1"], "seed must be at least 0, got -1"),
    _case(31, ["pattern", "--geometry", "URA", "--steer", "200", "0"],
          "steering offsets must be az in [-180, 180) and el in [-90, 90] "
          "deg, got az 200, el 0 deg"),
    _case(32, ["pattern", "--geometry", "URA", "--steer", "180", "0"],
          "must be az in [-180, 180) and el in [-90, 90] deg, got az 180, "
          "el 0"),
    _case(33, ["pattern", "--geometry", "URA", "--steer", "0", "100"],
          "must be az in [-180, 180) and el in [-90, 90] deg, got az 0, "
          "el 100"),
    _case(34, ["pattern", "--geometry", "URA", "--steer", "0", "-90.5"],
          "must be az in [-180, 180) and el in [-90, 90] deg, got az 0, "
          "el -90.5"),
    _case(35, ["pattern", "--geometry", "UCA", "--resolution", "0.7"],
          "--resolution must divide 90 deg, got 0.7"),
    _case(36, ["pattern", "--geometry", "UCA", "--resolution", "0.8"],
          "--resolution must divide 90 deg, got 0.8"),
    _case(37, ["ber", "--geometry", "xyz"],
          "'XYZ' is not a valid ArrayKind (geometries: ULA, URA, UCA, CCA)"),
    _case(38, ["pattern", "--geometry", "xyz"],
          "'XYZ' is not a valid ArrayKind (geometries: ULA, URA, UCA, CCA)"),
    _case(39, ["codebook", "--geometry", "xyz"],
          "'XYZ' is not a valid ArrayKind (geometries: ULA, URA, UCA, CCA)"),
    _case(40, ["ber", "--trials", "2", "5", "--out", "{file}"],
          "--out {file}: {file} is not a directory"),
    _case(41, ["pattern", "--geometry", "ULA", "--out", "{file}"],
          "--out {file}: {file} is not a directory"),
    _case(42, ["ber", "--trials", "2", "5", "--out", "{file}/sub/dir"],
          "--out {file}/sub/dir: {file} is not a directory"),
    _case(43, ["pattern", "--geometry", "ULA", "--out", "{file}/sub"],
          "--out {file}/sub: {file} is not a directory"),
    _case(44, ["ber", "--config", "{dir}/noise.cfg"],
          "noise.cfg:1: noise_dbm: unknown key"),
    _case(45, ["ber", "--config", "{dir}/intercept.cfg"],
          "intercept.cfg:1: pathloss_intercept_db: unknown key"),
    _case(46, ["ber", "--config", "{dir}/exponent.cfg"],
          "exponent.cfg:1: pathloss_exponent: unknown key"),
    _case(47, ["ber", "--power-range=abc"],
          "powers_dbm must be lo:hi:step or a comma list of "
          "numbers, got 'abc'"),
    _case(48, ["ber", "--power-range", "0:10:0"],
          "powers_dbm range '0:10:0' has a zero step"),
    _case(49, ["ber", "--power-range", "10:0:1"],
          "powers_dbm range '10:0:1' is empty"),
    _case(50, ["ber", "--power-range", "0:10:2:x"],
          "powers_dbm range must be lo:hi:step, got '0:10:2:x'"),
])
def test_bad_input_is_one_line_error(tmp_path, capsys, argv, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("geometries = CCA\nn_elements = 16\n")
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe")
    dup = tmp_path / "dup.cfg"
    dup.write_text("geometries = URA\nsignalings = 2x4, 2x4\n")
    he = tmp_path / "he.cfg"
    he.write_text("hardware = HE2000\n")
    for name, line in (("carrier", "carrier_hz = 28e9"),
                       ("position", "tx_position = 25, 25, 9"),
                       ("distance", "distance_m = 150"),
                       ("noise", "noise_dbm = -90"),
                       ("intercept", "pathloss_intercept_db = 72"),
                       ("exponent", "pathloss_exponent = 2.92")):
        (tmp_path / f"{name}.cfg").write_text(line + "\n")
    file = tmp_path / "file"
    file.write_text("kept\n")
    out = tmp_path / "out"
    names = dict(cfg=cfg, dir=tmp_path, binary=binary, dup=dup, he=he,
                 file=file)
    argv = [a.format(**names) for a in argv]
    # codebook writes no files; the --out cases name their own
    if argv[0] != "codebook" and "--out" not in argv:
        argv += ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""    # nothing is printed before input is valid
    err = captured.err
    assert err.startswith("cimsim: error: ")
    assert message.format(**names) in err
    assert err.count("\n") == 1
    assert not out.exists()      # nothing is created before input is valid
    assert file.read_text() == "kept\n"


def test_codebook_rejects_second_geometry(capsys):
    assert main(["codebook", "--geometry", "ULA", "--geometry", "CCA"]) == 2
    err = capsys.readouterr().err
    assert err == ("cimsim: error: codebook takes one --geometry, "
                   "got ULA, CCA\n")


@pytest.mark.parametrize("command,flag", [
    pytest.param("pattern", "--carrier-ghz", id="pattern"),
    pytest.param("codebook", "--carrier-ghz", id="codebook"),
    pytest.param("pattern", "--n-elements", id="pattern-n-elements"),
    pytest.param("codebook", "--n-elements", id="codebook-n-elements"),
])
def test_carrier_flag_is_gone(capsys, command, flag):
    # the carrier is fixed at 28 GHz and the scenario arrays at 82 elements
    with pytest.raises(SystemExit) as exit_:
        main([command, flag, "28"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {flag} 28" in err


def test_pattern_writes_grid_and_table(tmp_path, capsys):
    argv = ["pattern", "--geometry", "ULA", "--resolution", "1",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    path = tmp_path / "pattern_ula_az0_el0.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "az_deg,el_deg,directivity_dbi"
    assert len(lines) == 1 + 360 * 181
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows[0, :2].tolist() == [-180.0, 0.0]
    assert rows[-1, :2].tolist() == [179.0, 180.0]
    table = [line.split() for line in capsys.readouterr().out.splitlines()]
    ula = [row for row in table if row[:1] == ["ULA"]]
    assert len(ula) == 1 and ula[0][2] == "360.00"


def test_codebook_prints_quantized_codewords(capsys):
    argv = ["codebook", "--geometry", "CCA", "--seed", "7", "--order", "4",
            "--nf", "6"]
    assert main(argv) == 0
    codewords = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("codeword ")]
    assert len(codewords) == 4
    bound = np.cos(2 * np.pi / 2 ** 5)
    for line in codewords:
        assert "HE6 alignment |<f_q, f>| = " in line
        assert float(line.rsplit("= ", 1)[1]) >= bound


def test_verify_passes_every_check(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(ALL_CHECKS)
    assert all(line.startswith("[PASS] ") for line in lines)


def test_readme_cli_commands_parse():
    # every `cimsim ...` command of README.md's CLI block, so a deleted or
    # renamed flag cannot stay in the docs
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```$", readme, re.M | re.S)
    commands = [shlex.split(line, comments=True)
                for line in block[1].replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv[:1] == ["cimsim"]]
    assert [argv[1] for argv in commands] == ["ber", "pattern", "codebook",
                                              "verify"]
    for argv in commands:
        build_parser().parse_args(argv[1:])
