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
])
def test_bad_input_is_one_line_error(tmp_path, capsys, argv, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("geometries = CCA\nn_elements = 16\n")
    out = tmp_path / "out"
    argv = [a.format(cfg=cfg) for a in argv] + ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("cimsim: error: ")
    assert message in err
    assert err.count("\n") == 1
    assert not out.exists()      # nothing is created before input is valid


def test_verify_passes_every_check(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(ALL_CHECKS)
    assert all(line.startswith("[PASS] ") for line in lines)
