"""Library calls outside what each function accepts, pinned by error class."""

import numpy as np
import pytest

from rumkit import density, field, model, symmetry
from rumkit.errors import GridMismatchError, RankDeficientBasisError, ValidationError

from conftest import lin_model


@pytest.fixture(scope="module")
def small_field():
    """The J = 2 linear Gumbel field on a 5^3 lattice over [-2, 2]^3."""
    return model.tabulate(lin_model(), field.GridSpec((-2.0,) * 3, (2.0,) * 3, (5,) * 3))


# name: (call on the small field and a temporary directory, error class, a
# phrase of the error that names its cause)
REJECTED_CALLS = {
    # via is checked before any omega is read
    "density_via_out_of_range": (
        lambda f, tmp: density.reconstruct_density(f, [None, None], (), via=3),
        ValidationError, "via must name an alternative 0..2",
    ),
    "grid_axis_descriptions_unequal": (
        lambda f, tmp: field.GridSpec((0.0, 0.0), (1.0, 1.0, 1.0), (5, 5)),
        ValidationError, "equal length",
    ),
    "field_values_shape": (
        lambda f, tmp: field.ProbabilityField(f.grid, f.values[..., :2]),
        GridMismatchError, "values shape",
    ),
    "stencil_repeated_axes": (
        lambda f, tmp: f.fd_stencil(0, (1, 1), [[0.0, 0.0, 0.0]]),
        ValidationError, "stencil axes must be distinct",
    ),
    "subsample_stride_count": (
        lambda f, tmp: field.subsample(f, (1, 1)), ValidationError, "one positive stride",
    ),
    "subsample_zero_stride": (
        lambda f, tmp: field.subsample(f, (1, 0, 1)), ValidationError, "one positive stride",
    ),
    "csv_table_header_count": (
        lambda f, tmp: field.write_csv_table(tmp / "t.csv", ("x", "y"), [np.zeros(3)]),
        ValueError, "2 header names for 1 columns",
    ),
    "csv_table_ragged_columns": (
        lambda f, tmp: field.write_csv_table(
            tmp / "t.csv", ("x", "y"), [np.zeros(3), np.zeros(2)]
        ),
        ValueError, "columns differ in length",
    ),
    "closed_form_offer_length": (
        lambda f, tmp: model.choice_prob_closed_form(lin_model(), [0.0, 0.0]),
        ValidationError, "offer vector length",
    ),
    "monte_carlo_offer_length": (
        lambda f, tmp: model.choice_prob_monte_carlo(lin_model(), [0.0, 0.0], 10, 0),
        ValidationError, "offer vector length",
    ),
    "monte_carlo_no_draws": (
        lambda f, tmp: model.choice_prob_monte_carlo(lin_model(), [0.0, 0.0, 0.0], 0, 0),
        ValidationError, "draw count must be >= 1",
    ),
    "tabulate_unknown_method": (
        lambda f, tmp: model.tabulate(lin_model(), f.grid, method="quadrature"),
        ValidationError, "unknown tabulation method",
    ),
    "sieve_unknown_basis": (
        lambda f, tmp: symmetry.fit_ratio_sieve(f, 1, basis="spline"),
        ValidationError, "unknown basis",
    ),
    "sieve_pivot_is_j": (
        lambda f, tmp: symmetry.fit_ratio_sieve(f, 1, m=1), ValidationError, "pivot 1 must name",
    ),
    "sieve_pivot_out_of_range": (
        lambda f, tmp: symmetry.fit_ratio_sieve(f, 1, m=3), ValidationError, "pivot 3 must name",
    ),
    # 27 interior samples but only 9 distinct (a_1, a_0) pairs for 10 terms
    "sieve_rank_deficient": (
        lambda f, tmp: symmetry.fit_ratio_sieve(f, 1, degree=3),
        RankDeficientBasisError, "design matrix rank",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTED_CALLS))
def test_rejected_call(small_field, tmp_path, case):
    call, error, cause = REJECTED_CALLS[case]
    with pytest.raises(error, match=cause):
        call(small_field, tmp_path)
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_write_npz_removes_its_temp_file_when_the_move_fails(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError):
        field.write_npz(target, {"x": np.zeros(2)})
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
