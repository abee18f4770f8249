import numpy as np
import pytest

from helpers import (
    dephasing_generator,
    generic_gkls,
    identity_channel,
    stinespring_channel,
    unital_gkls,
)
from oqspectra import analysis, spectra
from oqspectra.bounds import check_bounds, ckks, classify, structural_ceiling
from oqspectra.constructions import (
    phase_damping_channel,
    saturating_hamiltonian_generator,
    saturating_unitary_channel,
)
from oqspectra.gkls import build_generator, exponentiate
from oqspectra.superop import from_kraus


def structural(report):
    """The proved-bound rows: neither CKKS-derived nor the ceiling comparison."""
    return [c for c in report.checks if not c.name.startswith(("ckks", "structural ceiling"))]


def amplitude_damping(gamma=0.5):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return from_kraus([k0, k1])


class TestClassification:
    def test_identity_is_trivial(self):
        assert classify(identity_channel(3)) == "trivial"

    def test_unitary(self):
        assert classify(from_kraus([np.diag([1.0, np.exp(1j)])])) == "unitary"

    def test_amplitude_damping_non_unitary(self):
        ch = amplitude_damping(0.5)
        # sqrt(1-gamma) inside the disk
        w = np.abs(np.linalg.eigvals(ch.superop))
        assert np.min(w) < 1 - 1e-3
        assert classify(ch) == "non-unitary"

    def test_generator_classes(self):
        assert classify(build_generator(np.zeros((2, 2)), ())) == "zero"
        assert classify(saturating_hamiltonian_generator(3)) == "hamiltonian"
        assert classify(dephasing_generator(3)) == "non-hamiltonian"

    def test_huge_entries_classify_without_overflow(self):
        # ||L|| overflows float64; the largest entry alone rules out zero
        gen = build_generator(np.zeros((2, 2)), [[[0, 1e100], [0, 0]]])
        assert classify(gen) == "non-hamiltonian"


class TestStructuralBounds:
    def test_unitary_saturation_margin_zero(self):
        ch = saturating_unitary_channel(4)
        s = spectra.summarize(ch)
        rep = check_bounds(s, "unitary")
        assert [c.margin for c in structural(rep)] == [0, 0]
        assert rep.all_satisfied

    def test_phase_damping_margins_zero(self):
        s = spectra.summarize(phase_damping_channel(3))
        rep = check_bounds(s, "non-unitary")
        by_name = {c.name: c for c in rep.checks}
        assert by_name["lP <= d^2-2d+2"].margin == 0
        assert by_name["l0 <= lP"].margin == 0

    def test_generic_channel_margin(self, rng):
        # generic CPTP: unique peripheral eigenvalue, lP = 1, margin 4 at d=3
        s = spectra.summarize(stinespring_channel(3, rng))
        assert s.lP_or_mP == 1
        rep = check_bounds(s, "non-unitary")
        by_name = {c.name: c for c in rep.checks}
        assert by_name["lP <= d^2-2d+2"].margin == 4

    def test_hamiltonian_generator_margins(self):
        s = spectra.summarize(saturating_hamiltonian_generator(3))
        rep = check_bounds(s, "hamiltonian")
        assert [c.margin for c in structural(rep)] == [0, 0]

    def test_dephasing_saturates(self):
        s = spectra.summarize(dephasing_generator(3))
        rep = check_bounds(s, "non-hamiltonian")
        by_name = {c.name: c for c in rep.checks}
        assert by_name["mP <= d^2-2d+2"].margin == 0

    def test_gap_and_forbidden_count(self):
        s = spectra.summarize(dephasing_generator(5))
        rep = check_bounds(s, "non-hamiltonian")
        assert rep.gap == 8 and rep.forbidden == 7

    def test_trivial_and_zero_excluded(self):
        s = spectra.summarize(identity_channel(2))
        assert structural(check_bounds(s, "trivial")) == []
        sz = spectra.summarize(build_generator(np.zeros((2, 2)), ()))
        assert structural(check_bounds(sz, "zero")) == []

    def test_unknown_classification_rejected(self):
        s = spectra.summarize(identity_channel(2))
        with pytest.raises(ValueError):
            check_bounds(s, "bogus")


def zero_generator(d):
    return build_generator(np.zeros((d, d)), ())


COMPARISON = "structural ceiling <= ckks ceiling"


class TestBoundTable:
    """Each kind x class x markovian cell: the exact check names, in order."""

    @pytest.mark.parametrize("markovian", [False, True])
    @pytest.mark.parametrize("build, classification, names, markovian_names", [
        (identity_channel, "trivial", [], []),
        (saturating_unitary_channel, "unitary",
         ["l0 <= d^2-2d+2", "lP == d^2", "ckks: l0 <= d^2-d"], []),
        (phase_damping_channel, "non-unitary",
         ["l0 <= lP", "lP <= d^2-2d+2", "ckks: l0 <= d^2-d"], ["ckks: lP <= d^2-d (markovian)"]),
        (zero_generator, "zero", [], []),
        (saturating_hamiltonian_generator, "hamiltonian", ["m0 <= d^2-2d+2", "mP == d^2"], []),
        (dephasing_generator, "non-hamiltonian",
         ["m0 <= mP", "mP <= d^2-2d+2", "ckks: m0 <= d^2-d", "ckks: mP <= d^2-d"], []),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_check_names_in_order(self, build, classification, names, markovian_names,
                                  markovian):
        subject = build(3)
        assert classify(subject) == classification
        rep = check_bounds(spectra.summarize(subject), classification, markovian)
        want = names + (markovian_names if markovian else []) + [COMPARISON]
        assert [c.name for c in rep.checks] == want
        assert rep.all_satisfied

    @pytest.mark.parametrize("markovian", [False, True])
    def test_one_dimensional_map_has_no_comparison_row(self, markovian):
        # at d = 1 the comparison d^2-2d+2 <= d^2-d would read 1 <= 0
        s = spectra.summarize(from_kraus([np.eye(1)]))
        assert check_bounds(s, "trivial", markovian).checks == ()


class TestCkks:
    def test_hamiltonian_all_margins_zero(self):
        s = spectra.summarize(saturating_hamiltonian_generator(3))
        margins = ckks(s)
        assert (margins.lhs == 0.0).all() and (margins.margin == margins.rhs).all()
        assert margins.satisfied.all()

    def test_dephasing_margin_frozen(self):
        # Gamma = 1, rhs = (1/3)(4 * 1) = 4/3, margin 1/3
        s = spectra.summarize(dephasing_generator(3))
        margins = ckks(s)
        assert margins.margin.size == 1
        assert margins.rhs[0] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert margins.margin[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_unital_batch_satisfied(self, rng):
        for d in (2, 3):
            for _ in range(15):
                s = spectra.summarize(unital_gkls(d, rng))
                assert ckks(s).satisfied.all()

    def test_channel_identity_margin_zero(self):
        s = spectra.summarize(identity_channel(3))
        margins = ckks(s)
        assert margins.margin.size == 1
        assert margins.lhs[0] == pytest.approx(9.0)
        assert margins.margin[0] == pytest.approx(0.0, abs=1e-12)

    def test_channel_phase_damping_frozen(self):
        # sum l x = 5 + 4/e; margin at the e^-1 cluster: 1 - 1/e
        s = spectra.summarize(phase_damping_channel(3))
        margins = ckks(s)
        e = np.exp(-1.0)
        (k,) = np.flatnonzero(np.round(margins.alpha.real, 6) == round(e, 6))
        assert margins.lhs[k] == pytest.approx(5 + 4 * e, abs=1e-12)
        assert margins.margin[k] == pytest.approx(1 - e, abs=1e-12)

    def test_markovian_channels_satisfied(self, rng):
        for _ in range(10):
            ch = exponentiate(unital_gkls(3, rng), 1.0)
            s = spectra.summarize(ch)
            assert ckks(s).satisfied.all()


class TestDerivedBounds:
    def test_d2_ceilings_coincide(self):
        assert structural_ceiling(2) == 2 * 2 - 2
        s = spectra.summarize(dephasing_generator(2))
        checks = check_bounds(s, "non-hamiltonian").checks
        comparison = [c for c in checks if "ceiling" in c.name][0]
        assert comparison.margin == 0 and comparison.satisfied

    def test_d3_strictly_tighter(self):
        assert structural_ceiling(3) == 5 < 6 == 3 * 3 - 3
        s = spectra.summarize(dephasing_generator(3))
        comparison = [c for c in check_bounds(s, "non-hamiltonian").checks
                      if "ceiling" in c.name][0]
        assert comparison.margin == 1

    def test_dephasing_d4_derived(self):
        s = spectra.summarize(dephasing_generator(4))
        checks = {c.name: c for c in check_bounds(s, "non-hamiltonian").checks}
        assert checks["ckks: mP <= d^2-d"].observed == 10
        assert checks["ckks: mP <= d^2-d"].bound == 12
        assert checks["ckks: mP <= d^2-d"].satisfied

    def test_markovian_channel_bound_included(self):
        s = spectra.summarize(phase_damping_channel(3))
        names = [c.name for c in check_bounds(s, "non-unitary", markovian=True).checks]
        assert "ckks: lP <= d^2-d (markovian)" in names
        names = [c.name for c in check_bounds(s, "non-unitary", markovian=False).checks]
        assert "ckks: lP <= d^2-d (markovian)" not in names

    def test_implication_chain_on_samples(self, rng):
        # whenever the structural bound holds the d^2-d bound holds
        for d in (2, 3, 4):
            s = spectra.summarize(generic_gkls(d, rng))
            rep = check_bounds(s, "non-hamiltonian")
            if all(c.satisfied for c in structural(rep)):
                assert rep.all_satisfied


class TestReportJson:
    def test_fields(self):
        rep = analysis.analyze(phase_damping_channel(2))
        assert rep.classification == "non-unitary"
        obj = analysis.report_to_json(rep)["bounds"]
        assert obj["gap"] == 2 and obj["forbidden"] == 1
        assert obj["checks"][0]["satisfied"] is True
        assert len(obj["ckks"]) == rep.bound_report.ckks.margin.size
