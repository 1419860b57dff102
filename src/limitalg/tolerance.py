"""Every cut-off of the library, named once, with the reason for its value.

DEFAULT_TOL (1e-9) is the tolerance of a numeric map that names none, and
the floor map_tolerance puts under a map's own. Only it follows
LIMITALG_TOL, and only in the CLI, which reads files with LIMITALG_TOL in
its place and certifies at max(map tolerance, LIMITALG_TOL); the library
(is_regular without tol, so also approx_intertwine, and
restandardize_triangle) floors at DEFAULT_TOL. The two floors differ when
LIMITALG_TOL < 1e-9 or when a file sets its own tolerance.

The others are fixed. EXACT_SLACK (1e-12) is the slack of unimodularity,
equality and "trivial" tests on phases and weights: exact data keeps them
exact, and other unimodular floats round near 1e-16. DENSE_FLOOR (1e-12)
is the least tolerance of a dense result of exact data (to_numeric of a
weighted map, numeric_compose, conjugate_numeric), and the residual up to
which a diagram triangle counts as exact, as such products round at a few
ulps. ROUNDING_MARGIN (1 - 1e-9) scales a cut before a cheaper bound (a
Frobenius prefilter, a batched product, a pruning bound) meets it; 1e-9 is
far above the rounding of those bounds, so the cheap test never passes
what the exact one rejects. SV_CUT (1/2) splits the singular values of a
test product, which are 0 or 1 for a regular map: each above it counts a
summand, and a candidate is present when it counts one on every class it
covers.
"""

DEFAULT_TOL = 1e-9
EXACT_SLACK = 1e-12
DENSE_FLOOR = 1e-12
ROUNDING_MARGIN = 1 - 1e-9
SV_CUT = 0.5


def map_tolerance(phi) -> float:
    """The tolerance of a verdict on phi: its own, floored at DEFAULT_TOL."""
    return max(phi.tolerance, DEFAULT_TOL)
