"""Reference path for unitsum.cubic.represent_unit_sums.

This is the path represent_unit_sums ran before its pile cache: one
engine.reduce over the coordinate seed, whatever earlier calls reduced.
The differential tests compare the cached path against it.
"""

from unitsum import Representation, cubic_basis, reduce, three_relation


def represent_by_one_reduce(beta, policy=None):
    """Each coordinate c_t seeds |c_t| chips at (t, 0) on the sign layer
    of c_t; the three-unit relation stabilizes them in one reduce."""
    params = beta.params
    seeds = {(0 if c > 0 else 1, 1, (t, 0)): abs(c) for t, c in enumerate(beta.coords) if c}
    return reduce(Representation(cubic_basis(params), seeds), three_relation(params), policy)
