"""Convergence diagnostics for the numerical building blocks.

Four tables:
  1. RK4 characteristic crossing error vs step (expected order 4),
  2. omega level-surface error vs lattice resolution,
  3. reconstructed density error at a known point vs field grid resolution,
  4. round-trip quadrature error vs v-node count (expected order 2).

Tables 1-3 run against the closed-form benchmark q_j = a_j^{alpha_j} / sum
a_k^{alpha_k} with alpha = (1, 2, 1/2), whose heterogeneity density under unit
anchoring is known in closed form. Table 4 integrates iid Gumbel(0, 1) tastes
under the exact level functions omega_j = a_0 - a_j, where q_0 = exp(-sum_k
e^(a_k - a_0)) and q_j = softmax_j(a) (1 - q_0).

Usage: python scripts/convergence_study.py
"""

import numpy as np

from rumkit import characteristics, density, field, model, symmetry, verify

BOX = ((1.0, 4.0), (1.0, 4.0))


def t_10():
    # ratio of marginal utilities for the log pair (alpha_1 = 2, alpha_0 = 1)
    return lambda aj, a0: aj / (2.0 * a0)


def rk4_table():
    print("characteristic crossing error, node (1,1) -> anchor a_1 = 2 (exact a_0 = 4)")
    prev = None
    for step in (0.08, 0.04, 0.02, 0.01):
        om = characteristics.build_omega(t_10(), BOX, a_ref=2.0, resolution=4, step=step)
        err = abs(om.lattice_values[0, 0] - 4.0)
        rate = "" if prev is None else f"  x{prev / err:5.1f}"
        print(f"  step {step:5.3f}: error {err:.3e}{rate}")
        prev = err


def omega_table():
    print("omega level error vs exact a_0 / a_1^2 on the validation lattice")
    aj = np.linspace(1.05, 3.95, 31)
    AJ, A0 = np.meshgrid(aj, aj[::-1], indexing="ij")
    for res in (41, 81, 161):
        om = characteristics.build_omega(t_10(), BOX, a_ref=1.0, j=1, resolution=res)
        err = np.max(np.abs(om(AJ.ravel(), A0.ravel()) - (A0 / AJ**2).ravel()))
        print(f"  resolution {res:4d}: max error {err:.3e}")


def density_table():
    print("density error at v = (1, 1) (exact 2/27) vs field resolution")
    spec = model.ChoiceModelSpec(
        utilities=(
            model.UtilityPrimitive("log", (1.0,)),
            model.UtilityPrimitive("log", (2.0,)),
            model.UtilityPrimitive("log", (0.5,)),
        ),
        noise=model.NoiseSpec("gumbel_iid", 1.0),
        domain=((0.1, 60.0),) * 3,
    )
    small_v = (np.geomspace(0.8, 1.25, 7), np.geomspace(0.8, 1.25, 7))
    for counts in ((81, 60, 40), (161, 120, 75), (321, 240, 150)):
        grid = field.GridSpec((0.2, 0.2, 0.2), (20.0, 8.0, 6.0), counts)
        f = model.tabulate(spec, grid)
        # sieve is a global least-squares fit; a strided sub-lattice keeps the
        # node-gradient cache small without changing the fit
        sub = field.subsample(f, (4, 4, 2))
        ratios = [
            symmetry.fit_ratio_sieve(sub, j, 0, basis="log_polynomial", degree=1)
            for j in (1, 2)
        ]
        omegas = [
            characteristics.build_omega(
                t,
                ((grid.lower[j], grid.upper[j]), (grid.lower[0], grid.upper[0])),
                a_ref=1.0,
                resolution=161,
                j=j,
            )
            for j, t in zip((1, 2), ratios)
        ]
        d = density.reconstruct_density(f, omegas, small_v)
        err = abs(float(d.f_values[3, 3]) - 2.0 / 27.0)
        print(f"  counts {counts}: |f(1,1) - 2/27| = {err:.3e}")


def round_trip_table():
    print("round-trip quadrature error vs v-node count, J = 2, iid Gumbel tastes")
    ones = lambda aj, a0: np.ones(np.broadcast(aj, a0).shape)
    utilities = [
        characteristics.UtilityFunction(
            j=j,
            omega=characteristics.build_omega(
                ones, ((-5.0, 5.0), (-20.0, 20.0)), a_ref=0.0, resolution=11, j=j
            ),
        )
        for j in (1, 2)
    ]
    rng = np.random.default_rng(0)
    offers = np.column_stack(
        [rng.uniform(-1.0, 2.0, 20), rng.uniform(-1.5, 1.5, 20), rng.uniform(-1.5, 1.5, 20)]
    )
    q0 = np.exp(-np.exp(offers[:, 1:] - offers[:, :1]).sum(axis=1, keepdims=True))
    soft = np.exp(offers[:, 1:]) / np.exp(offers[:, 1:]).sum(axis=1, keepdims=True)
    exact = np.hstack([q0, soft * (1.0 - q0)])
    prev = None
    for n in (61, 121, 241, 481):
        axes = (np.linspace(-3.0, 12.0, n),) * 2
        v1, v2 = np.meshgrid(*axes, indexing="ij")
        pdf = np.exp(-v1 - np.exp(-v1) - v2 - np.exp(-v2))
        d = density.DensityGrid(
            axes=axes,
            f_values=pdf,
            F_values=np.exp(-np.exp(-v1) - np.exp(-v2)),
            support_mask=np.ones(pdf.shape, dtype=bool),
        )
        err = np.max(np.abs(verify.rationalized_choice_prob(utilities, d, offers) - exact))
        rate = "" if prev is None else f"  observed order {np.log2(prev / err):4.2f}"
        print(f"  v-nodes {n:4d}: max |q - q*| = {err:.3e}{rate}")
        prev = err


if __name__ == "__main__":
    rk4_table()
    print()
    omega_table()
    print()
    density_table()
    print()
    round_trip_table()
