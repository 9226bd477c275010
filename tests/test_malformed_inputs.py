"""One table of malformed 2-d inputs: each raises a ``DhymError`` subclass
with exit code 2 (never a bare numpy exception, and never the exit 5 of an
internal failure), from the one reader of its kind of input: a constant
2x2 matrix, a field of 2x2 matrices, a periodic potential, a (v, F) pencil
pair, a Fourier mode, or a trial."""

import numpy as np
import pytest

from dhym.core_geometry import pencil_eigenvalues
from dhym.errors import DhymError, DimensionMismatch, InvalidConfig
from dhym.kym_ndim import KymData, abreu_operator, abreu_operator_divergence_form, det_bound_verify
from dhym.linearized_ops import (
    LinearizedContext,
    apply_L,
    flat_symbol,
    make_consistent_context,
    negativity_check,
    selfadjointness_defect,
)
from dhym.spectral import grid2

B = np.array([[2.0, 0.7], [0.7, 1.0]])


def flat_context():
    return make_consistent_context(np.zeros((16, 16)), B)


def trial(seed):
    x, y = grid2(16)
    return np.cos(2 * np.pi * (x + seed * y))


def nan_trial():
    t = trial(1)
    t[3, 5] = np.nan
    return t


#: The readers of a periodic potential, each called as site(u).
POTENTIAL_SITES = {
    "abreu_operator": abreu_operator,
    "abreu_operator_divergence_form": abreu_operator_divergence_form,
    "LinearizedContext": lambda u: LinearizedContext(u, B),
}

#: The readers of a constant 2x2 matrix B, each called as site(m).
MATRIX_SITES = {
    "LinearizedContext": lambda m: make_consistent_context(np.zeros((16, 16)), m),
    "KymData": lambda m: KymData(1.0, m),
    "flat_symbol": lambda m: flat_symbol(np.array([1.0, 2.0]), m),
}

#: (call, error, message) of every malformed input.
MALFORMED = {
    **{
        f"{site}-{case}": (lambda call=call, u=u: call(u), error, match)
        for site, call in POTENTIAL_SITES.items()
        for case, u, error, match in [
            ("16x16x5", np.zeros((16, 16, 5)), DimensionMismatch, r"N x N field, not \(16, 16, 5\)"),
            ("3x16x16", np.zeros((3, 16, 16)), DimensionMismatch, r"N x N field, not \(3, 16, 16\)"),
            ("8x8", np.zeros((8, 8)), InvalidConfig, r"too coarse \(N = 8 < 16\)"),
            ("nan", np.full((16, 16), np.nan), InvalidConfig, "must be finite"),
        ]
    },
    **{
        f"{site}-{case}": (lambda call=call, m=m: call(m), DimensionMismatch, match)
        for site, call in MATRIX_SITES.items()
        for case, m, match in [
            ("3x3", np.eye(3), r"must be 2x2, got shape \(3, 3\)"),
            ("1x1", np.eye(1), r"must be 2x2, got shape \(1, 1\)"),
            ("stack", np.stack([np.eye(2)] * 4), r"must be 2x2, got shape \(4, 2, 2\)"),
        ]
    },
    "flat_symbol-mode-3-vector": (
        lambda: flat_symbol(np.array([1, 2, 3]), np.eye(2)),
        DimensionMismatch,
        r"2-vector, got shape \(3,\)",
    ),
    "flat_symbol-mode-scalar": (lambda: flat_symbol(1.0, np.eye(2)), DimensionMismatch, "2-vector"),
    # a mode that is not a nonzero integer vector is the mode's fault, not B's
    "flat_symbol-mode-nan": (
        lambda: flat_symbol(np.array([np.nan, 1.0]), np.eye(2)),
        InvalidConfig,
        r"nonzero modes of integers, not \[nan, 1\.0\]",
    ),
    "flat_symbol-mode-half": (
        lambda: flat_symbol(np.array([0.5, 0.0]), np.eye(2)),
        InvalidConfig,
        r"nonzero modes of integers, not \[0\.5, 0\.0\]",
    ),
    "flat_symbol-zero-mode-in-array": (
        lambda: flat_symbol(np.array([[1, 2], [0, 0]]), np.eye(2)),
        InvalidConfig,
        r"nonzero modes of integers, not \[0\.0, 0\.0\]",
    ),
    # det_bound_verify measures det of a field of 2x2 matrices, of any sign
    "det_bound_verify-3x3-field": (
        lambda: det_bound_verify(np.broadcast_to(np.diag([1.0, 1.0, -5.0]), (4, 4, 3, 3))),
        DimensionMismatch,
        r"field of 2x2 matrices, got shape \(4, 4, 3, 3\)",
    ),
    "det_bound_verify-1x1-field": (
        lambda: det_bound_verify(np.ones((4, 4, 1, 1))),
        DimensionMismatch,
        r"field of 2x2 matrices, got shape \(4, 4, 1, 1\)",
    ),
    "pencil-3x3": (lambda: pencil_eigenvalues(np.eye(3), np.eye(3)), DimensionMismatch, "expect 2x2 matrices"),
    "pencil-1x1": (lambda: pencil_eigenvalues(np.eye(1), np.eye(1)), DimensionMismatch, "expect 2x2 matrices"),
    "pencil-3x3-stack": (
        lambda: pencil_eigenvalues(np.stack([np.eye(3)] * 4), np.zeros((4, 3, 3))),
        DimensionMismatch,
        "expect 2x2 matrices",
    ),
    # a non-finite trial is malformed input, not a failed elliptic solve
    "apply_L-nan-trial": (lambda: apply_L(flat_context(), nan_trial()), InvalidConfig, "tangent field must be finite"),
    "apply_L-inf-stack": (
        lambda: apply_L(flat_context(), np.stack([trial(1), np.full((16, 16), np.inf)])),
        InvalidConfig,
        "tangent field must be finite",
    ),
    "selfadjointness-nan-trial": (
        lambda: selfadjointness_defect(flat_context(), [(trial(1), nan_trial())]),
        InvalidConfig,
        "tangent field must be finite",
    ),
    "negativity-nan-trial": (
        lambda: negativity_check(flat_context(), [trial(1), nan_trial()]),
        InvalidConfig,
        "tangent field must be finite",
    ),
    # a pair holds exactly two trials: three or one are not regrouped or dropped
    "selfadjointness-pair-of-three": (
        lambda: selfadjointness_defect(flat_context(), [(trial(1), trial(2), trial(3)), (trial(4),)]),
        DimensionMismatch,
        "a trial pair holds two trials, not 3",
    ),
    "selfadjointness-pair-not-a-sequence": (
        lambda: selfadjointness_defect(flat_context(), [1.0]),
        DimensionMismatch,
        "a trial pair holds two trials, not 1",
    ),
    "selfadjointness-pair-of-one": (
        lambda: selfadjointness_defect(flat_context(), [(trial(1), trial(2)), (trial(3),)]),
        DimensionMismatch,
        "a trial pair holds two trials, not 1",
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_is_refused(case):
    call, error, match = MALFORMED[case]
    with pytest.raises(DhymError, match=match) as info:
        call()
    assert type(info.value) is error
    assert info.value.exit_code == 2
