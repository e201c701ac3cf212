"""Command line front end.

Subcommands: ``ber`` (Monte Carlo sweep), ``pattern`` (radiation pattern
grid + characteristics table), ``codebook`` (diagnostics for one seeded
realization) and ``verify`` (oracle self-checks).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .arrays import WAVELENGTH, scenario_geometry
from .channel import (ChannelConfig, draw_paths, require_number,
                      sample_realization)
from .codebook import FpsBank, build_codebook, quantize_weights
from .harness import (SimConfig, _LOWER_BOUNDS, _check_axis, _parse_powers,
                      aggregate_and_emit, load_config, run_sweep)
from .patterns import steered_pattern, summarize, write_pattern_csv
from .verify import run_all


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="flat key=value config file")
    p.add_argument("--seed", type=int, help="master seed override")
    p.add_argument("--out", type=Path, default=Path("out"),
                   help="output directory")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel worker processes")
    p.add_argument("--geometry", action="append",
                   help="array kind, repeatable (ULA/URA/UCA/CCA)")
    p.add_argument("--hardware", action="append",
                   help="analog network: OP or HE<n>, repeatable")
    p.add_argument("--power-range", dest="power_range",
                   help="dBm sweep, lo:hi:step or comma list")


def _resolve_config(args: argparse.Namespace) -> SimConfig:
    cfg = load_config(args.config) if args.config else SimConfig()
    updates: dict = {}
    if args.geometry:
        updates["geometries"] = tuple(g.upper() for g in args.geometry)
    if args.hardware:
        updates["hardware"] = tuple(args.hardware)
    if args.power_range:
        updates["powers_dbm"] = _parse_powers(args.power_range)
    if args.seed is not None:
        updates["seed"] = args.seed
    if getattr(args, "trials", None):
        if len(args.trials) > 2:
            raise ValueError("--trials takes realizations [symbols per "
                             f"realization], got {len(args.trials)} values")
        updates["realizations"] = args.trials[0]
        if len(args.trials) > 1:
            updates["symbols_per_realization"] = args.trials[1]
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _check_out(out: Path) -> None:
    """Reject, before any work, an ``--out`` whose nearest existing path
    (itself or an ancestor) is not a directory."""
    path = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())
    if not path.is_dir():
        raise ValueError(f"--out {out}: {path} is not a directory")


def cmd_ber(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    _check_out(args.out)
    results = run_sweep(cfg, workers=args.workers)
    csv_path, manifest_path = aggregate_and_emit(results, args.out, cfg,
                                                 workers=args.workers)
    print(f"wrote {csv_path} and {manifest_path}")
    for r in results:
        print(f"{r.geometry:>4} B={r.order} M={r.constellation} "
              f"{r.hardware:>4} P={r.power_dbm:6.1f} dBm  "
              f"BER={r.ber:.3e}  ({r.bit_errors}/{r.bits_total} bits)")
    return 0


_TABLE_COLUMNS = ("Geometry", "Directivity (dBi)", "HPBW Az", "HPBW El",
                  "ASLD (dB)")


def characteristics_table(rows: list[tuple]) -> str:
    cells = [_TABLE_COLUMNS] + [tuple(str(c) for c in row) for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(_TABLE_COLUMNS))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def cmd_pattern(args: argparse.Namespace) -> int:
    geometries = tuple(g.upper() for g in (args.geometry or
                                           ("ULA", "URA", "UCA", "CCA")))
    _check_axis("geometries", geometries)
    # broadside (el 90) is a grid row only for a step that divides 90 deg;
    # compute_pattern rejects the other bad steps
    rows_per_90 = 90.0 / args.resolution if args.resolution > 0.0 else 0.0
    if abs(rows_per_90 - round(rows_per_90)) > 1e-9:
        raise ValueError(f"--resolution must divide 90 deg, got "
                         f"{args.resolution:g}")
    _check_out(args.out)
    az_off, el_off = args.steer
    specs = [scenario_geometry(g, WAVELENGTH) for g in geometries]
    rows = []
    for g, spec in zip(geometries, specs):
        pat = steered_pattern(spec, az_off, el_off,
                              az_step_deg=args.resolution,
                              el_step_deg=args.resolution)
        s = summarize(pat)
        az_txt = "360.00" if s.hpbw_az_deg >= 360.0 else f"{s.hpbw_az_deg:.2f}"
        rows.append((g, f"{s.directivity_dbi:.2f}", az_txt,
                     f"{s.hpbw_el_deg:.2f}", f"{s.asld_db:.2f}"))
        args.out.mkdir(parents=True, exist_ok=True)   # after validation
        path = args.out / f"pattern_{g.lower()}_az{az_off:g}_el{el_off:g}.csv"
        write_pattern_csv(pat, path)
        print(f"wrote {path}")
    print(f"\nSteered at {az_off:g} deg Az, {el_off:g} deg El:")
    print(characteristics_table(rows))
    return 0


def cmd_codebook(args: argparse.Namespace) -> int:
    require_number("seed", args.seed, _LOWER_BOUNDS["seed"])
    geometries = args.geometry or ["URA"]
    if len(geometries) > 1:
        raise ValueError("codebook takes one --geometry, got "
                         + ", ".join(geometries))
    spec = scenario_geometry(geometries[0].upper(), WAVELENGTH)
    bank = FpsBank(args.nf) if args.nf is not None else None
    realization = sample_realization(draw_paths(ChannelConfig(), args.seed),
                                     spec.positions)
    try:
        cb = build_codebook(realization, args.order)
    except ValueError as exc:
        raise ValueError(f"--order {args.order}: {exc}") from None
    print(f"geometry={spec.kind.value} N={spec.n_elements} "
          f"order={cb.order} seed={args.seed}")
    print(f"shadowing = {realization.shadow_db:+.2f} dB, "
          f"gain variance = {realization.gain_variance:.3e}")
    print("best path per cluster:", cb.best_paths.tolist())
    for k, c in enumerate(cb.clusters):
        line = (f"codeword {k}: cluster {c}, path {cb.best_paths[c]}, "
                f"|w^H H f|^2 = {cb.effective_gains[k]:.4e}")
        if bank is not None:
            q = quantize_weights(cb.beamformers[:, k], bank)
            loss = np.abs(np.vdot(q, cb.beamformers[:, k]))
            line += f", HE{args.nf} alignment |<f_q, f>| = {loss:.6f}"
        print(line)
    return 0


def cmd_verify(_: argparse.Namespace) -> int:
    return 0 if run_all() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cimsim",
        description="Cluster-index-modulation mmWave MIMO link simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ber = sub.add_parser("ber", help="run a Monte Carlo BER sweep")
    _add_common(p_ber)
    p_ber.add_argument("--trials", type=int, nargs="+", metavar="N",
                       help="channel realizations [symbols per realization]")
    p_ber.set_defaults(func=cmd_ber)

    p_pat = sub.add_parser("pattern", help="emit pattern grid and summary")
    p_pat.add_argument("--geometry", action="append")
    p_pat.add_argument("--steer", type=float, nargs=2, default=(0.0, 0.0),
                       metavar=("AZ", "EL"),
                       help="pointing offset from broadside, degrees")
    p_pat.add_argument("--resolution", type=float, default=0.25)
    p_pat.add_argument("--out", type=Path, default=Path("out"))
    p_pat.set_defaults(func=cmd_pattern)

    p_cb = sub.add_parser("codebook", help="dump codebook diagnostics")
    p_cb.add_argument("--geometry", action="append")
    p_cb.add_argument("--seed", type=int, default=1)
    p_cb.add_argument("--order", type=int, default=4)
    p_cb.add_argument("--nf", type=int)
    p_cb.set_defaults(func=cmd_codebook)

    p_ver = sub.add_parser("verify", help="run oracle self-checks")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:    # bad config, geometry or grid
        print(f"cimsim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
