"""Analytic symbol-error theory, kept as the physics oracle for the ladder.

The paper's capacity ladder rests on thresholds "specific to our
hardware"; this module supplies the standard theory those numbers come
from, so the ladder in :mod:`repro.optics.modulation` is derivable
rather than asserted:

* closed-form symbol-error rates for M-PSK and square M-QAM over AWGN
  (Proakis-style union-bound expressions, exact for BPSK/QPSK),
* the inverse problem — the SNR required to hit a target pre-FEC SER,
* a ladder builder: given the hardware's FEC limit and implementation
  margin, emit a :class:`~repro.optics.modulation.ModulationTable`.

No experiment derives its ladder at run time, so this lives here,
outside the package, only for ``test_ber.py``.  The Monte-Carlo
constellation sampler
(:meth:`repro.optics.constellation.Constellation.sample`) is the
independent check: its measured SER must match these formulas.
"""

from __future__ import annotations

import math

from scipy.special import erfc

from repro.optics.modulation import ModulationFormat, ModulationTable
from repro.optics.units import db_to_linear, linear_to_db


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P(N(0,1) > x)."""
    return 0.5 * erfc(x / math.sqrt(2.0))


def ser_mpsk(snr_db: float, order: int) -> float:
    """Symbol-error rate of M-PSK at the given symbol SNR.

    Exact for BPSK and QPSK (Gray-mapped); the standard tight
    approximation ``2 Q(sqrt(2 snr) sin(pi/M))`` for M >= 8.
    """
    if order < 2:
        raise ValueError("PSK order must be >= 2")
    snr = db_to_linear(snr_db)
    if order == 2:
        return q_function(math.sqrt(2.0 * snr))
    if order == 4:
        p = q_function(math.sqrt(snr))
        return 1.0 - (1.0 - p) ** 2
    return min(2.0 * q_function(math.sqrt(2.0 * snr) * math.sin(math.pi / order)), 1.0)


def ser_mqam(snr_db: float, order: int) -> float:
    """Symbol-error rate of square M-QAM at the given symbol SNR.

    The exact square-QAM expression ``1 - (1 - P_sqrt)^2`` with
    ``P_sqrt = 2 (1 - 1/sqrt(M)) Q(sqrt(3 snr / (M - 1)))``.
    """
    side = int(round(math.sqrt(order)))
    if side * side != order or order < 4:
        raise ValueError(f"{order} is not a square QAM order >= 4")
    snr = db_to_linear(snr_db)
    p_sqrt = 2.0 * (1.0 - 1.0 / side) * q_function(math.sqrt(3.0 * snr / (order - 1)))
    return 1.0 - (1.0 - min(p_sqrt, 1.0)) ** 2


_FORMAT_SER = {
    "BPSK": lambda snr: ser_mpsk(snr, 2),
    "QPSK": lambda snr: ser_mpsk(snr, 4),
    "8QAM": lambda snr: ser_mpsk(snr, 8),  # ring approximation
    "16QAM": lambda snr: ser_mqam(snr, 16),
    "64QAM": lambda snr: ser_mqam(snr, 64),
}


def ser_for_format(name: str, snr_db: float) -> float:
    """Analytic SER of a named constellation at ``snr_db``."""
    try:
        return _FORMAT_SER[name](snr_db)
    except KeyError:
        raise ValueError(
            f"no analytic SER for {name!r}; known: {sorted(_FORMAT_SER)}"
        ) from None


def required_snr_for_ser(name: str, target_ser: float) -> float:
    """SNR (dB) at which ``name`` reaches ``target_ser``, by bisection.

    The SER curves are strictly decreasing in SNR, so bisection over a
    generous bracket is exact to the returned precision (1e-4 dB).
    """
    if not 0.0 < target_ser < 1.0:
        raise ValueError("target SER must be in (0, 1)")
    lo, hi = -10.0, 40.0
    if ser_for_format(name, lo) < target_ser:
        return lo
    if ser_for_format(name, hi) > target_ser:
        raise ValueError(f"{name} cannot reach SER {target_ser} below {hi} dB")
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if ser_for_format(name, mid) > target_ser:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def derive_modulation_table(
    *,
    target_ber: float = 3e-2,
    implementation_margin_db: float = 1.0,
    symbol_rate_relative_capacity_gbps: float = 50.0,
) -> ModulationTable:
    """Build a capacity ladder from channel theory.

    Args:
        target_ber: pre-FEC *bit*-error rate the hardware's FEC can
            correct through (soft-decision FECs with ~25% overhead sit
            around 3e-2).  With Gray mapping, SER ~= BER x bits/symbol.
        implementation_margin_db: penalty added on top of theory for
            real DSPs (filtering, phase noise, aging allowance).
        symbol_rate_relative_capacity_gbps: capacity delivered per
            bit/symbol at the fixed line symbol rate (50 Gbps per
            bit/symbol reproduces the paper's 100/150/200 ladder).

    The derived thresholds land on the paper's anchors: with the
    defaults, QPSK (100 Gbps) needs ~6.5 dB and BPSK (50 Gbps) ~3.5 dB
    — which is how those printed numbers arise from an SD-FEC limit
    plus ~1 dB of margin.
    """
    if not 0.0 < target_ber < 0.5:
        raise ValueError("target BER must be in (0, 0.5)")
    rungs = []
    for name, bits in (("BPSK", 1.0), ("QPSK", 2.0), ("8QAM", 3.0), ("16QAM", 4.0)):
        target_ser = min(target_ber * bits, 0.5)
        threshold = required_snr_for_ser(name, target_ser) + implementation_margin_db
        rungs.append(
            ModulationFormat(
                capacity_gbps=bits * symbol_rate_relative_capacity_gbps,
                required_snr_db=round(threshold, 2),
                name=name,
                bits_per_symbol=bits,
            )
        )
    return ModulationTable(rungs)


def snr_penalty_for_rate_increase(
    from_bits_per_symbol: float, to_bits_per_symbol: float
) -> float:
    """Rule-of-thumb extra SNR needed per added bit/symbol (~3 dB/bit).

    Useful for sanity-checking custom ladders: the minimum-distance
    argument gives ``10 log10((2^b2 - 1) / (2^b1 - 1))`` for square
    constellations.
    """
    if from_bits_per_symbol <= 0 or to_bits_per_symbol <= 0:
        raise ValueError("bits per symbol must be positive")
    num = 2.0**to_bits_per_symbol - 1.0
    den = 2.0**from_bits_per_symbol - 1.0
    return linear_to_db(num / den)
