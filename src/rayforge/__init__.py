"""Numerical engine for the escaping dynamics of maps f = p(exp z).

Trace dynamic rays from addresses and escape speeds, solve for the map in
the family whose singular values escape with prescribed combinatorics via
a truncated marked-orbit pullback iteration, and probe the supporting
structural bounds at desk scale.
"""
