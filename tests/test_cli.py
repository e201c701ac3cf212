import numpy as np
import pytest

from cimsim.cli import main
from cimsim.verify import ALL_CHECKS


@pytest.mark.parametrize("argv,message", [
    (["ber", "--power-range", "0:10:0"], "zero step"),
    (["ber", "--config", "{cfg}"], "geometry CCA with n_elements=16"),
    (["pattern", "--geometry", "ULA", "--resolution", "2"],
     "1 degree or finer"),
    (["ber", "--seed", "-1"], "seed must be at least 0, got -1"),
    (["pattern", "--geometry", "ULA", "--resolution", "0"],
     "grid step must be positive, got az_step_deg=0"),
    (["pattern", "--geometry", "ULA", "--resolution", "-0.5"],
     "grid step must be positive, got az_step_deg=-0.5"),
    (["ber", "--workers", "0"], "workers must be at least 1, got 0"),
    (["ber", "--trials", "1", "5", "7"],
     "--trials takes realizations [symbols per realization], got 3 values"),
    (["ber", "--power-range", "nan"], "powers_dbm must be finite, got nan"),
    (["ber", "--power-range", "0:1"],
     "powers_dbm range must be lo:hi:step, got '0:1'"),
    (["ber", "--power-range", "0:1:2:3"],
     "powers_dbm range must be lo:hi:step, got '0:1:2:3'"),
    (["pattern", "--geometry", "ULA", "--carrier-ghz", "0"],
     "carrier_hz must be positive, got 0"),
    (["pattern", "--geometry", "ULA", "--carrier-ghz", "nan"],
     "carrier_hz must be finite, got nan"),
    (["pattern", "--geometry", "ULA", "--carrier-ghz", "1e-320"],
     "wavelength must be finite and positive, got inf"),
    (["pattern", "--geometry", "ULA", "--steer", "nan", "0"],
     "steering offsets must be finite, got az nan, el 0 deg"),
    (["pattern", "--geometry", "URA", "--steer", "0", "inf"],
     "steering offsets must be finite, got az 0, el inf deg"),
    (["codebook", "--nf", "0"], "need at least two fixed phase shifters"),
    (["codebook", "--nf", "-2"], "need at least two fixed phase shifters"),
])
def test_bad_input_is_one_line_error(tmp_path, capsys, argv, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("geometries = CCA\nn_elements = 16\n")
    out = tmp_path / "out"
    argv = [a.format(cfg=cfg) for a in argv]
    if argv[0] != "codebook":    # codebook writes no files
        argv += ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""    # nothing is printed before input is valid
    err = captured.err
    assert err.startswith("cimsim: error: ")
    assert message in err
    assert err.count("\n") == 1
    assert not out.exists()      # nothing is created before input is valid


def test_codebook_rejects_second_geometry(capsys):
    assert main(["codebook", "--geometry", "ULA", "--geometry", "CCA"]) == 2
    err = capsys.readouterr().err
    assert err == ("cimsim: error: codebook takes one --geometry, "
                   "got ULA, CCA\n")


@pytest.mark.parametrize("carrier,message", [
    ("0", "carrier_hz must be positive, got 0"),
    ("nan", "carrier_hz must be finite, got nan"),
])
def test_codebook_rejects_bad_carrier(capsys, carrier, message):
    assert main(["codebook", "--carrier-ghz", carrier]) == 2
    assert capsys.readouterr().err == f"cimsim: error: {message}\n"


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
