"""The analytic SER oracle, cross-checked against Monte Carlo and the ladder."""

import numpy as np
import pytest

from repro.optics.constellation import Constellation
from tests.optics.ber_oracle import (
    derive_modulation_table,
    q_function,
    required_snr_for_ser,
    ser_for_format,
    ser_mpsk,
    ser_mqam,
    snr_penalty_for_rate_increase,
)


class TestQFunction:
    def test_zero_is_half(self):
        assert q_function(0.0) == pytest.approx(0.5)

    def test_symmetry(self):
        assert q_function(-1.5) == pytest.approx(1.0 - q_function(1.5))

    def test_three_sigma(self):
        assert q_function(3.0) == pytest.approx(1.35e-3, rel=0.01)


class TestSerFormulas:
    def test_ser_decreases_with_snr(self):
        for name in ("BPSK", "QPSK", "8QAM", "16QAM"):
            sers = [ser_for_format(name, snr) for snr in (0.0, 5.0, 10.0, 15.0)]
            assert sers == sorted(sers, reverse=True)

    def test_denser_formats_worse_at_fixed_snr(self):
        snr = 12.0
        assert ser_for_format("BPSK", snr) < ser_for_format("QPSK", snr)
        assert ser_for_format("QPSK", snr) < ser_for_format("16QAM", snr)

    def test_bpsk_qpsk_relation(self):
        # QPSK at snr has the same per-dimension error as BPSK at snr-3dB
        p_bpsk = ser_mpsk(9.0, 2)
        p_qpsk = ser_mpsk(12.0103, 4)
        assert p_qpsk == pytest.approx(1.0 - (1.0 - p_bpsk) ** 2, rel=1e-3)

    def test_bad_orders_rejected(self):
        with pytest.raises(ValueError):
            ser_mpsk(10.0, 1)
        with pytest.raises(ValueError):
            ser_mqam(10.0, 8)  # not a square
        with pytest.raises(ValueError):
            ser_for_format("1024QAM", 10.0)

    @pytest.mark.parametrize(
        "name,snr_db",
        [("QPSK", 7.0), ("QPSK", 10.0), ("16QAM", 14.0), ("16QAM", 17.0)],
    )
    def test_matches_monte_carlo(self, name, snr_db):
        """The constellation sampler must agree with the closed forms."""
        analytic = ser_for_format(name, snr_db)
        rng = np.random.default_rng(123)
        sample = Constellation(name).sample(400_000, snr_db, rng)
        assert sample.symbol_error_rate == pytest.approx(analytic, rel=0.08)


class TestRequiredSnr:
    def test_inverts_the_curve(self):
        snr = required_snr_for_ser("QPSK", 1e-3)
        assert ser_for_format("QPSK", snr) == pytest.approx(1e-3, rel=0.01)

    def test_monotone_in_target(self):
        loose = required_snr_for_ser("16QAM", 1e-1)
        tight = required_snr_for_ser("16QAM", 1e-4)
        assert tight > loose

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            required_snr_for_ser("QPSK", 0.0)
        with pytest.raises(ValueError):
            required_snr_for_ser("QPSK", 1.0)


class TestDerivedLadder:
    def test_reproduces_paper_anchors(self):
        """The printed 6.5 dB / 3.0 dB thresholds fall out of the theory."""
        table = derive_modulation_table()
        assert table.required_snr(100.0) == pytest.approx(6.5, abs=0.8)
        assert table.required_snr(50.0) == pytest.approx(3.0, abs=0.8)

    def test_ladder_shape(self):
        table = derive_modulation_table()
        assert table.capacities_gbps == (50.0, 100.0, 150.0, 200.0)
        thresholds = [f.required_snr_db for f in table]
        assert thresholds == sorted(thresholds)

    def test_margin_shifts_thresholds(self):
        lean = derive_modulation_table(implementation_margin_db=0.0)
        fat = derive_modulation_table(implementation_margin_db=3.0)
        assert fat.required_snr(100.0) == pytest.approx(
            lean.required_snr(100.0) + 3.0
        )

    def test_tighter_fec_needs_more_snr(self):
        sd_fec = derive_modulation_table(target_ber=3e-2)
        hd_fec = derive_modulation_table(target_ber=1e-4)
        assert hd_fec.required_snr(100.0) > sd_fec.required_snr(100.0)

    def test_rejects_bad_ber(self):
        with pytest.raises(ValueError):
            derive_modulation_table(target_ber=0.0)
        with pytest.raises(ValueError):
            derive_modulation_table(target_ber=0.6)


class TestRateIncreasePenalty:
    def test_one_bit_costs_about_3db(self):
        # QPSK (2 bits) -> 8QAM (3 bits)
        penalty = snr_penalty_for_rate_increase(2.0, 3.0)
        assert 3.0 < penalty < 4.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            snr_penalty_for_rate_increase(0.0, 2.0)
