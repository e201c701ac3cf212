"""Link-level simulator for cluster-index-modulation mmWave massive MIMO.

Covers the four classic array geometries (ULA/URA/UCA/CCA), clustered
Saleh-Valenzuela channels, greedy CIM codebook construction under ideal
or fixed-phase-shifter analog networks, joint ML detection, Monte Carlo
BER sweeps, and radiation-pattern analysis (directivity, HPBW, side-lobe
statistics).
"""

__version__ = "0.1.0"

from .arrays import (ArrayKind, GeometrySpec, SPEED_OF_LIGHT,
                     scenario_geometry, steering, unit_directions)
from .channel import (ChannelConfig, ChannelPaths, ChannelRealization,
                      draw_paths, path_loss, sample_realization)
from .codebook import (CimCodebook, FpsBank, build_codebook,
                       compose_switch_vector, quantize_weights,
                       realized_phase)
from .link import (array_gain_db, branch_amplitudes, count_bit_errors,
                   dbm_to_watt, detect, psk_constellation, transmit)
from .patterns import (PatternSummary, RadiationPattern, compute_pattern,
                       pattern_frame, steered_pattern, steering_weights,
                       summarize)
from .harness import (BerResult, SimConfig, aggregate_and_emit, load_config,
                      parse_hardware, run_sweep)

__all__ = [name for name in dir() if not name.startswith("_")]
