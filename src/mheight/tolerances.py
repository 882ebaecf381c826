"""Every library-wide numerical tolerance, named once, with its scale.

The engine decides exact facts (independence, ties, the first infinite
height) in floating point; each comparison keeps its own form where it is made.
"""

#: Absolute, on unit-length columns: a ``k``-subset is independent iff its
#: ``|det|`` exceeds this, and a codeword entry at most this is a zero.
RANK_TOL = 1e-9

#: Absolute, on unit-norm constraint rows (on the pool, scaled by each
#: column's norm) of ``G`` rescaled by a power of two to a largest entry in
#: [1, 2): a constraint holds if it is violated by at most this.
FEAS_TOL = 1e-9

#: Relative to the running maximum ratio: pool rows this close are kept for
#: the witness choice.  It covers the feasibility tolerance.
NEAR_TOL = 1e-6

#: Relative to the larger of two heights or magnitudes (absolute below 1):
#: values this close are tied, so the first wins or either order holds.
TIE_TOL = 1e-12

#: Absolute, on unit vectors and domain parameters: round-off forgiven when
#: reading the sign of a leading entry or testing a point's domain bounds.
ROUNDOFF_SLACK = 1e-12

#: Relative to a height (absolute below 1): a finite height may read this
#: much below 1, and a profile may drop this much from one ``m`` to the next.
HEIGHT_SLACK = 1e-9
