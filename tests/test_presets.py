import numpy as np
import pytest

from combmemory import (
    ConfigError,
    PRESET_NAMES,
    cluster_linear4,
    epr,
    get_preset,
    purity,
    supermode_extraction,
)

Z6 = 10.0 ** -0.6  # -6 dB squeezed variance


class TestEpr:
    def test_pure_two_mode_state(self):
        C = epr()
        assert C.mode_count == 2
        assert purity(C) == pytest.approx(1.0, abs=1e-12)

    def test_supermode_squeezing_matches_source(self):
        # balanced mixing of two -6 dB squeezers: both supermodes at -6 dB
        _, spec = supermode_extraction(epr())
        assert np.allclose(spec.values, [Z6, Z6], atol=1e-10)

    def test_marginals_are_thermal(self):
        C = epr()
        mean_var = 0.5 * (Z6 + 1.0 / Z6)
        for m in (0, 1):
            assert np.allclose(C.entries[2 * m:2 * m + 2, 2 * m:2 * m + 2], mean_var * np.eye(2), atol=1e-12)

    def test_quadrature_correlations(self):
        # x anti-correlated, p correlated; no x-p cross terms
        C = epr().entries
        cov = 0.5 * (1.0 / Z6 - Z6)
        assert C[0, 2] == pytest.approx(-cov, abs=1e-12)
        assert C[1, 3] == pytest.approx(cov, abs=1e-12)
        assert abs(C[0, 3]) < 1e-12
        assert abs(C[1, 2]) < 1e-12


class TestClusterLinear4:
    def test_pure_four_mode_state(self):
        C = cluster_linear4()
        assert C.mode_count == 4
        assert purity(C) == pytest.approx(1.0, abs=1e-10)

    def test_supermode_spectrum(self):
        _, spec = supermode_extraction(cluster_linear4())
        assert np.allclose(
            spec.values,
            [0.06855756, 0.06855756, 0.17942134, 0.17942134],
            atol=1e-8,
        )

    def test_nearest_neighbour_coupling(self):
        # path graph: x_i couples to p_{i+1}, no direct x-x or p-p correlation
        E = cluster_linear4().entries
        assert E[0, 3] == pytest.approx(1.0 / Z6, abs=1e-12)  # x0-p1
        assert E[0, 2] == 0.0                                  # x0-x1
        assert E[1, 3] == 0.0                                  # p0-p1
        assert E[0, 7] == 0.0                                  # x0-p3: not adjacent


class TestGetPreset:
    def test_dispatch(self):
        assert np.array_equal(get_preset("epr").entries, epr().entries)
        assert np.array_equal(
            get_preset("cluster-linear-4").entries, cluster_linear4().entries
        )

    def test_names_listed(self):
        assert set(PRESET_NAMES) == {"epr", "cluster-linear-4"}

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="epr"):
            get_preset("ghz")
