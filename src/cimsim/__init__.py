"""Link-level simulator for cluster-index-modulation mmWave massive MIMO.

Covers the four classic array geometries (ULA/URA/UCA/CCA), clustered
Saleh-Valenzuela channels, greedy CIM codebook construction under ideal
or fixed-phase-shifter analog networks, joint ML detection, Monte Carlo
BER sweeps, and radiation-pattern analysis (directivity, HPBW, side-lobe
statistics).
"""

__version__ = "0.1.0"
