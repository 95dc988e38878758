"""Rationalizability toolkit for multinomial choice with income effects.

Pipeline: tabulate or load a choice probability field, test symmetry and the
separability condition on cross-partial ratios, integrate the characteristic
ODE of the induced PDE to build level functions omega, invert them into
utilities and a heterogeneity density, and verify the recovered structure
reproduces the field.
"""

# cli is left out of the eager imports so that `python -m rumkit.cli` does
# not find it already loaded; `from rumkit import cli` still works.
from . import characteristics, density, errors, field, model, symmetry, verify

__version__ = "0.1.0"

__all__ = [
    "characteristics",
    "cli",
    "density",
    "errors",
    "field",
    "model",
    "symmetry",
    "verify",
    "__version__",
]
