"""Package-wide numeric defaults.

Double precision is the working arithmetic everywhere.  Most constants
below are read directly by the operation that uses them; the rest are the
defaults of the few options a caller can set: ``classify``'s ``tol`` and
``max_iter``.  TRACER_TOL is the tracer's fixed bound, not an option
default, and the tracer's depth is the float range's, not an option.  The
strip fuzz eps = pi/4d is no option: the tract certificate depends on the
map alone, and its loop ends by itself (see ``tracts.make_tract_config``).
"""

# Largest magnitude an iterated escape-speed value may reach before the
# overflow signal fires.  Kept below float max so downstream arithmetic
# (logs, midpoints, comparisons) stays finite.  Fixed by double precision,
# so no caller sets it.
CAP = 1e300

# exp() overflows doubles just above 709.78; stay under with headroom for
# polynomial coefficient sums.
EXP_ARG_LIMIT = 700.0

# Relative tolerance at which two potentials count as equal in ladders
# and cluster detection.
POTENTIAL_EQ_RTOL = 1e-12

# Root finding: roots and inverse branches pass where |p(zeta) - w| <=
# RESIDUAL_RTOL * polyexp.residual_scale.  Newton's method in the strip
# (tracts._newton_roots, d >= 3) takes at most ROOT_MAX_ITER steps, and below
# ROOT_ITER_RTOL (1 + |z|) a step that does not shrink has reached rounding.
ROOT_ITER_RTOL = 1e-12
RESIDUAL_RTOL = 1e-10
ROOT_MAX_ITER = 200

# Ray tracing.  A segment's samples x (depth + 1) pull levels, at the depth
# of t_lo, stay within MAX_TRACE_LEVELS; a stalled speed tower fills it.
# Each sample pulls two chains, at depths n and n - 1, so a segment at the
# bound pulls up to about 2 x MAX_TRACE_LEVELS branch rows.
TRACER_TOL = 1e-10
MAX_TRACE_LEVELS = 2**22

# Tract certification.
# A float sum of d + 1 positive terms grows by ROUNDING before its check, so a
# rounding tie never passes: Horner's rule in a rounded variable is within
# (3d + 1) 2^-53 of the sum, and 2^-44 = 512 * 2^-53 covers d <= MAX_DEGREE.
ROUNDING = 1 + 2**-44
MAX_DEGREE = 170

# Pullback iteration.
CLASSIFY_MAX_ITER = 50
# classify's grid-depth bound: a spec whose speed tower is still under CAP
# after this many levels is rejected.
CLASSIFY_DEPTH_LIMIT = 128
CLASSIFY_TOL = 1e-10
VERIFY_POTENTIAL_RTOL = 1e-6

# Sampling depth added on top of the grid depth when probing ladder
# separation conditions.
LADDER_EXTRA_DEPTH = 2
