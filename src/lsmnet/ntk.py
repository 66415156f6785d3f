"""Empirical tangent-kernel diagnostics for the operator network.

The indicator network is linear in the trunk matrix: the prediction at
the trunk centers is P g(F) with g the branch output, so the tangent
kernel of the composite factors as K = P^T G P where G is the tangent
kernel of the branch alone.  Both factors are assembled here exactly,
for the whole batch at once.  The gradient of output o with respect to
a layer's weights is the outer product a x J[o] of the layer's input
and the Jacobian of the outputs with respect to the layer's affine
output, so the inner product of two parameter gradients collapses to
sum_l (<a, a'> + 1) <J[o], J'[o']> with the +1 contributed by the bias.
J starts as the identity at the last layer and is carried down by one
product with W^T and the activation slope per layer, for all outputs
and samples together; each layer then adds one (N*p) x (N*p) product,
scaled blockwise by the input products.

The interesting dial is the trunk overlap s: the spectrum bounds
lambda_min(G) sigma_min(P)^2 <= lambda(K) <= lambda_max(G) sigma_max(P)^2
tie the conditioning of the composite kernel to the conditioning of P,
which degrades as the radial functions flatten.  These diagnostics make
that degradation measurable before any training is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import archive, nn
from .deeponet import RbfTrunk, make_trunk, trunk_eval
from .nn import Mlp

# The assembly is a diagnostic, not a production path: the kernel is
# dense (N*p)^2, so the batch-times-output size is capped outright.
GRAM_GUARD = 4096

BOUND_SLACK = 1e-8
_SYM_TOL = 1e-8


@dataclass(frozen=True)
class NtkReport:
    """Spectral summary of one kernel assembly.

    Eigenvalues are ascending, singular values descending; condition
    numbers are ratios of extreme singular values and therefore at
    least one.  The bound booleans record whether the kernel spectrum
    sits inside the band predicted from the factors; a False here means
    the assembly itself is inconsistent, not that the configuration is
    poorly conditioned.
    """

    eigenvalues_kernel: np.ndarray
    eigenvalues_gram: np.ndarray
    singular_values_trunk: np.ndarray
    cond_kernel: float
    cond_gram: float
    cond_trunk: float
    bound_lower_ok: bool
    bound_upper_ok: bool
    config: dict | None = None

    def __post_init__(self):
        for name in ("eigenvalues_kernel", "eigenvalues_gram",
                     "singular_values_trunk"):
            if np.asarray(getattr(self, name)).ndim != 1:
                raise ValueError(f"{name} must be a flat spectrum")
        for name in ("cond_kernel", "cond_gram", "cond_trunk"):
            if not getattr(self, name) >= 1.0:
                raise ValueError(f"{name} below 1 is not a condition number")


def trunk_gram(trunk: RbfTrunk) -> np.ndarray:
    """Pairwise radial-function evaluations at the trunk centers.

    Symmetric with unit diagonal by construction; positive definite for
    any distinct centers since the Gaussian is a positive definite
    kernel, though the smallest eigenvalue collapses quickly as the
    overlap grows.
    """
    return trunk_eval(trunk, trunk.centers)


def branch_ntk(branch: Mlp, inputs: np.ndarray) -> np.ndarray:
    """Parameter-gradient Gram matrix of the branch over a small batch.

    Entry (i*p + o, i'*p + o') is the inner product of the full
    parameter gradients of outputs o and o' at samples i and i'.  The
    branch must be in its linear-output form: a squaring transform would
    make the kernel depend on the output scale and break the factored
    composite below.

    Returns the (N*p) x (N*p) block matrix, exactly symmetric.
    """
    if branch.output != "identity":
        raise ValueError("tangent kernel is defined for an identity output; "
                         f"got {branch.output!r}")
    batch, _ = nn._as_batch(inputs, branch.sizes[0])
    count, outputs = batch.shape[0], branch.sizes[-1]
    if count * outputs > GRAM_GUARD:
        raise ValueError(
            f"batch {count} x outputs {outputs} exceeds the assembly cap "
            f"{GRAM_GUARD}; this is a diagnostic for small instances")

    pre, act = nn.forward_trace(branch, batch)
    last = len(branch.weights) - 1
    # Row i*p + o: output o's Jacobian at sample i with respect to the
    # affine output of layer l.
    jac = np.tile(np.eye(outputs), (count, 1))
    for l in range(last, -1, -1):
        if l < last:
            slope = nn._activate_grad(branch.activation, pre[l], act[l + 1])
            jac = (jac @ branch.weights[l + 1].T).reshape(count, outputs, -1)
            jac = (jac * slope[:, None, :]).reshape(count * outputs, -1)
        term = jac @ jac.T
        blocks = term.reshape(count, outputs, count, outputs)
        blocks *= (act[l] @ act[l].T + 1.0)[:, None, :, None]
        if l == last:
            gram = term
        else:
            gram += term
        # Only the kernel itself stays alive between layers.
        del term, blocks
    return gram


def deeponet_ntk(trunk: RbfTrunk, branch: Mlp,
                 inputs: np.ndarray) -> np.ndarray:
    """Tangent kernel of the composite indicator at the trunk centers.

    Applies the congruence K_block = P^T G_block P as one product over
    whole block rows and one over whole block columns, the second
    written over the branch kernel; the Kronecker factor is never formed.
    """
    trunk_matrix = trunk_gram(trunk)
    outputs = branch.sizes[-1]
    if trunk_matrix.shape != (outputs, outputs):
        raise ValueError(f"trunk matrix {trunk_matrix.shape} does not match "
                         f"branch output width {outputs}")
    kernel = branch_ntk(branch, inputs)
    count = kernel.shape[0] // outputs
    rows = trunk_matrix.T @ kernel.reshape(count, outputs, -1)
    np.matmul(rows.reshape(-1, outputs), trunk_matrix,
              out=kernel.reshape(-1, outputs))
    return kernel


def _symmetrized(matrix: np.ndarray, name: str) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be square")
    residual = np.linalg.norm(matrix - matrix.T)
    scale = max(np.linalg.norm(matrix), 1e-300)
    if residual > _SYM_TOL * scale:
        raise ValueError(f"{name} asymmetry {residual:.3e} exceeds "
                         f"{_SYM_TOL:g} of its norm")
    return 0.5 * (matrix + matrix.T)


def _condition(singular_values: np.ndarray) -> float:
    smallest = singular_values[-1]
    if smallest <= 0.0:
        return float("inf")
    return float(singular_values[0] / smallest)


def verify_spectrum_bounds(kernel: np.ndarray, gram: np.ndarray,
                           trunk_matrix: np.ndarray,
                           config: dict | None = None) -> NtkReport:
    """Check the kernel spectrum against the band implied by its factors.

    Both K and G are symmetrized (after asserting the asymmetry is
    rounding-level) and eigendecomposed; the trunk factor contributes
    through its extreme singular values.  A violated bound is reported,
    not raised, so a failing configuration can still be inspected.
    """
    kernel = _symmetrized(kernel, "kernel")
    gram = _symmetrized(gram, "gram")
    trunk_matrix = np.asarray(trunk_matrix, dtype=float)

    eig_kernel = np.linalg.eigvalsh(kernel)
    eig_gram = np.linalg.eigvalsh(gram)
    sv_trunk = np.linalg.svd(trunk_matrix, compute_uv=False)

    lower = eig_gram[0] * sv_trunk[-1] ** 2
    upper = eig_gram[-1] * sv_trunk[0] ** 2
    tolerance = BOUND_SLACK * max(abs(upper), abs(eig_kernel[-1]), 1e-300)

    return NtkReport(
        eigenvalues_kernel=eig_kernel,
        eigenvalues_gram=eig_gram,
        singular_values_trunk=sv_trunk,
        cond_kernel=_condition(np.sort(np.abs(eig_kernel))[::-1]),
        cond_gram=_condition(np.sort(np.abs(eig_gram))[::-1]),
        cond_trunk=_condition(sv_trunk),
        bound_lower_ok=bool(eig_kernel[0] >= lower - tolerance),
        bound_upper_ok=bool(eig_kernel[-1] <= upper + tolerance),
        config=config,
    )


def condition_sweep(trunk_template: RbfTrunk, s_values) -> list:
    """Condition number of the trunk matrix across overlap values.

    Rebuilds the trunk of `trunk_template` at each overlap and returns
    (s, epsilon, condition) rows.  The sequence must be strictly
    increasing in the condition number; a non-monotone sweep means the
    overlap is not acting as the conditioning dial it is supposed to be,
    and raises; past 1/eps the message names round-off as the cause.
    """
    rows = []
    previous = None
    for s in s_values:
        s = float(s)
        if not 0.0 < s < 1.0:
            raise ValueError(f"overlap {s} outside (0, 1)")
        trunk = make_trunk(trunk_template.lam, trunk_template.L,
                           trunk_template.h, s, allow_low_s=True)
        sv = np.linalg.svd(trunk_gram(trunk), compute_uv=False)
        kappa = _condition(sv)
        if previous is not None and not kappa > previous:
            cause = ("; the trunk matrix is beyond double precision's resolution "
                     "(condition >= 1/eps), so this is round-off"
                     if max(kappa, previous) >= 1.0 / np.finfo(float).eps else "")
            raise ArithmeticError(
                f"condition number failed to increase at s={s:g}: "
                f"{kappa:.6e} after {previous:.6e}{cause}")
        rows.append((s, trunk.epsilon, kappa))
        previous = kappa
    return rows


def write_spectrum_csv(path, report: NtkReport) -> None:
    """All three spectra as labeled `matrix,index,value` rows."""
    lines = ["matrix,index,value"]
    for name, values in (("kernel_eig", report.eigenvalues_kernel),
                         ("gram_eig", report.eigenvalues_gram),
                         ("trunk_sv", report.singular_values_trunk)):
        for index, value in enumerate(values):
            lines.append(f"{name},{index},{value:.17g}")
    archive.write_lines(path, lines)


def report_summary(report: NtkReport) -> str:
    """Flat text block with condition numbers and bound verdicts."""
    lines = [
        f"cond_kernel = {report.cond_kernel:.6e}",
        f"cond_gram = {report.cond_gram:.6e}",
        f"cond_trunk = {report.cond_trunk:.6e}",
        f"lower_bound = {'ok' if report.bound_lower_ok else 'VIOLATED'}",
        f"upper_bound = {'ok' if report.bound_upper_ok else 'VIOLATED'}",
    ]
    if report.config:
        for key, value in report.config.items():
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def write_summary_txt(path, report: NtkReport) -> None:
    archive.write_lines(path, report_summary(report).splitlines())
