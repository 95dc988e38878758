"""Shared fixtures: reference models, tabulated fields, and the identified
wide-domain pipeline used by the density / verify / acceptance tests.

The wide fixtures are expensive (tens of seconds) and session-scoped; every
downstream test treats them as immutable.
"""

import numpy as np
import pytest

from rumkit import characteristics, density, field, model, symmetry

ALPHAS = (1.0, 2.0, 0.5)


def log_model(domain=((0.5, 100.0),) * 3):
    """Three-alternative model with log utilities alpha = (1, 2, 0.5)."""
    return model.ChoiceModelSpec(
        utilities=tuple(model.UtilityPrimitive("log", (a,)) for a in ALPHAS),
        noise=model.NoiseSpec("gumbel_iid", 1.0),
        domain=domain,
    )


def lin_model(domain=((-10.0, 10.0),) * 3):
    """Three-alternative model with identity utilities (no income effects)."""
    return model.ChoiceModelSpec(
        utilities=tuple(model.UtilityPrimitive("linear", (0.0, 1.0)) for _ in range(3)),
        noise=model.NoiseSpec("gumbel_iid", 1.0),
        domain=domain,
    )


def oracle_prob(a):
    """q_j = a_j^alpha_j / sum_k a_k^alpha_k for the log model."""
    a = np.asarray(a, dtype=float)
    w = np.array([a[j] ** ALPHAS[j] for j in range(3)])
    return w / w.sum()


def oracle_cdf(v1, v2):
    """Heterogeneity CDF of the log model under a_ref = 1 anchoring."""
    return 1.0 / (1.0 + 1.0 / v1 + 1.0 / v2)


def oracle_density(v1, v2):
    """Heterogeneity density of the log model under a_ref = 1 anchoring."""
    return 2.0 / (v1**2 * v2**2 * (1.0 + 1.0 / v1 + 1.0 / v2) ** 3)


def half_field():
    """5x5 two-alternative field with q = (0.5, 0.5) everywhere."""
    grid = field.GridSpec((0.0, 0.0), (1.0, 1.0), (5, 5))
    return field.ProbabilityField(grid=grid, values=np.full((5, 5, 2), 0.5))


def write_nan_field_csv(path):
    """A 5x5 field CSV whose fourth row has q_1 = nan."""
    field.write_field_csv(half_field(), path)
    lines = path.read_text().splitlines()
    cells = lines[4].split(",")
    lines[4] = ",".join(cells[:-1] + ["nan"])
    path.write_text("\n".join(lines) + "\n")


def _shift_a0(line, old, new):
    cells = line.split(",")
    return ",".join([new] + cells[1:]) if cells[0] == old else line


# edits of the half_field CSV lines (header first) that make it unreadable
MALFORMED_FIELD_CSVS = {
    "non_numeric_cell": lambda ls: ls[:4] + [ls[4].rsplit(",", 1)[0] + ",abc"] + ls[5:],
    "short_row": lambda ls: ls[:4] + [ls[4].rsplit(",", 1)[0]] + ls[5:],
    "extra_column": lambda ls: ls[:1] + [line + ",0.0" for line in ls[1:]],
    "header_only": lambda ls: ls[:1],
    "empty": lambda ls: [],
    "missing_row": lambda ls: ls[:-1],
    "odd_column_count": lambda ls: [ls[0] + ",q_2"] + [line + ",0.0" for line in ls[1:]],
    "wrong_header": lambda ls: [ls[0].replace("q_", "p_")] + ls[1:],
    "duplicated_row": lambda ls: ls[:-1] + ls[-2:-1],  # in place of the last node
    "non_uniform_axis": lambda ls: [_shift_a0(line, "0.25", "0.3") for line in ls],
}


def write_malformed_field_csv(path, case):
    """The 5x5 half_field CSV with one MALFORMED_FIELD_CSVS edit applied."""
    field.write_field_csv(half_field(), path)
    lines = MALFORMED_FIELD_CSVS[case](path.read_text().splitlines())
    path.write_text("".join(line + "\n" for line in lines))


@pytest.fixture(scope="session")
def m_log():
    return log_model(domain=((1e-3, 100.0),) * 3)


@pytest.fixture(scope="session")
def m_lin():
    return lin_model()


@pytest.fixture(scope="session")
def lin_field(m_lin):
    grid = field.GridSpec((-1.0,) * 3, (1.0,) * 3, (41,) * 3)
    return model.tabulate(m_lin, grid)


@pytest.fixture(scope="session")
def log_field(m_log):
    grid = field.GridSpec((1.0,) * 3, (4.0,) * 3, (41,) * 3)
    return model.tabulate(m_log, grid)


@pytest.fixture(scope="session")
def log_field_fine(m_log):
    # 81 nodes per axis: halves the finite-difference bias of the ratio
    # samples enough for the 1e-3 sieve-coefficient tolerance
    grid = field.GridSpec((1.0,) * 3, (4.0,) * 3, (81,) * 3)
    return model.tabulate(m_log, grid)


@pytest.fixture(scope="session")
def planted_interaction_field():
    """Softmax field with u_1 = a_1 + 0.3 a_1 a_2: breaks the separable
    structure, so the (1, 0) ratio picks up an a_2-dependent factor."""
    grid = field.GridSpec((1.0,) * 3, (4.0,) * 3, (21,) * 3)
    utilities = [
        lambda m: m[0],
        lambda m: m[1] + 0.3 * m[1] * m[2],
        lambda m: m[2],
    ]
    return model.tabulate_from_utilities(grid, utilities)


# -- wide-domain identified pipeline --------------------------------------
#
# The attained omega ranges must carry nearly all heterogeneity mass for the
# round-trip integrators to be usable, which forces a domain spanning several
# decades in every coordinate.

WIDE_GRID = field.GridSpec(
    (0.002, 0.05, 0.09), (96.0, 12.0, 9.0), (601, 240, 150)
)


@pytest.fixture(scope="session")
def wide_field(m_log):
    return model.tabulate(m_log, WIDE_GRID)


@pytest.fixture(scope="session")
def wide_ratios(wide_field):
    # sieve is a global least-squares fit; a strided sub-lattice loses
    # nothing and keeps the ratio planes and gradient_scale off the 11M-node array
    sub = field.subsample(wide_field, (5, 4, 2))
    return [
        symmetry.fit_ratio_sieve(sub, j, 0, basis="log_polynomial", degree=1)
        for j in (1, 2)
    ]


@pytest.fixture(scope="session")
def wide_omegas(wide_field, wide_ratios):
    grid = wide_field.grid
    return [
        characteristics.build_omega(
            t,
            ((grid.lower[j], grid.upper[j]), (grid.lower[0], grid.upper[0])),
            a_ref=1.0,
            resolution=161,
            j=j,
        )
        for j, t in zip((1, 2), wide_ratios)
    ]


@pytest.fixture(scope="session")
def wide_utilities(wide_omegas):
    return [characteristics.UtilityFunction(j=om.j, omega=om) for om in wide_omegas]


@pytest.fixture(scope="session")
def wide_v_grid(wide_omegas):
    return density.make_v_grid(wide_omegas, n=201)


@pytest.fixture(scope="session")
def wide_density(wide_field, wide_omegas, wide_v_grid):
    return density.reconstruct_density(wide_field, wide_omegas, wide_v_grid)
