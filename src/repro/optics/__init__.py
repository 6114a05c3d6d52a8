"""Optical physical-layer substrate.

This package models the pieces of an optical line system that the paper's
measurement study and testbed rely on:

* unit conversions between decibel and linear domains (:mod:`~repro.optics.units`),
* the modulation-format ladder with its required-SNR thresholds
  (:mod:`~repro.optics.modulation`),
* ideal and noisy signal constellations (:mod:`~repro.optics.constellation`),
* a span/amplifier noise budget that produces realistic baseline SNRs
  (:mod:`~repro.optics.fiber`),
* parametric impairment events (:mod:`~repro.optics.impairments`),
* DWDM channel plans per fiber (:mod:`~repro.optics.spectrum`).

The ladder's thresholds are the paper's printed numbers.  The SD-FEC
symbol-error theory that derives them is a test-side oracle
(``tests/optics/ber_oracle.py``), since no experiment needs it at run
time.
"""

from repro.optics.units import (
    db_to_linear,
    linear_to_db,
    dbm_to_watts,
    watts_to_dbm,
)
from repro.optics.modulation import (
    ModulationFormat,
    ModulationTable,
    DEFAULT_MODULATIONS,
    LOSS_OF_LIGHT_SNR_DB,
)
from repro.optics.constellation import Constellation, ConstellationSample
from repro.optics.fiber import FiberSpan, Amplifier, FiberCable, LineSystem
from repro.optics.impairments import (
    Impairment,
    AmplifierDegradation,
    FiberCut,
    MaintenanceDisruption,
    TransceiverFault,
)
from repro.optics.spectrum import Channel, ChannelPlan, SpectrumAssignment

__all__ = [
    "db_to_linear",
    "linear_to_db",
    "dbm_to_watts",
    "watts_to_dbm",
    "ModulationFormat",
    "ModulationTable",
    "DEFAULT_MODULATIONS",
    "LOSS_OF_LIGHT_SNR_DB",
    "Constellation",
    "ConstellationSample",
    "FiberSpan",
    "Amplifier",
    "FiberCable",
    "LineSystem",
    "Impairment",
    "AmplifierDegradation",
    "FiberCut",
    "MaintenanceDisruption",
    "TransceiverFault",
    "Channel",
    "ChannelPlan",
    "SpectrumAssignment",
]
