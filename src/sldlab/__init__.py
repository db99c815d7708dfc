"""sldlab: a numerical laboratory for linear subspace denoising.

Samples data from a noisy linear-subspace model, evaluates linear denoisers
(optimal, PCA, gradient descent with oracle early stopping, pseudoinverse)
by exact closed-form risk, runs seeded risk-vs-train-size sweeps, and fits
the resulting curves with single, floor-subtracted, or segmented power laws.
The API lives in the submodules (``sldlab.model``, ``sldlab.sweep``, ...);
the package itself exports only ``__version__``.
"""

__version__ = "0.1.0"
