"""Single defaults table for every tunable the experiments expose."""

# Smallest admissible eps, in units of the grid spacing h.  Below kappa*h the
# two-scale assumption h << eps fails and kernel values are refused outright.
KAPPA = 8

# Relative tolerance for identity checks (extrapolated value vs analytic rhs).
TOLERANCE = 0.05

# Multiplicative slack for limit-type upper bounds checked at finite eps.
AG_SLACK = 0.10

# Relative slack when requiring a sweep to be non-increasing.
TREND_SLACK = 0.02

# Number of smallest-eps sweep entries entering the extrapolation fit.
FIT_POINTS = 3

# Candidate cube lattice stride = eps / CUBE_STRIDE_DIVISOR.
CUBE_STRIDE_DIVISOR = 4

# Radial quadrature nodes per axis for mollifier integrals.
MOLLIFIER_RESOLUTION = 64


def direction_count(dim: int) -> int:
    """Default size of the unit-direction set: the +/- axes plus 16 extras."""
    if dim == 1:
        return 2
    return 2 * dim + 16

