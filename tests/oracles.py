"""Oracles that only the tests call: the partitions of n, the characteristic
polynomial over Q[t], the nilpotent J_chi and the filtered dims of K.  The
library computes none of these on any path of its own."""

from orbitlimits.conjclosure import Partition, direct_sum, jordan_block
from orbitlimits.exactcore import Mat, UniPoly, det_bareiss
from orbitlimits.limits import LimitProblem, _weight_kernel


def all_partitions(n: int) -> list[Partition]:
    """All partitions of n (largest part first, lexicographic)."""
    out = []

    def rec(rem, maxp, prefix):
        if rem == 0:
            out.append(Partition._of(tuple(prefix)))
            return
        for p in range(min(rem, maxp), 0, -1):
            rec(rem - p, p, prefix + [p])

    rec(n, n, [])
    return out


def charpoly(m: Mat) -> UniPoly:
    """det(tI - m), on the rows of tI - m over Q[t]."""
    return det_bareiss(Mat([[UniPoly({1: int(i == j), 0: -x}) for j, x in enumerate(r)]
                            for i, r in enumerate(m.a)]))


def j_chi(chi: Partition) -> Mat:
    """The nilpotent matrix with Jordan blocks of the sizes chi."""
    return direct_sum([jordan_block(s) for s in chi])


def filtered_dims(problem: LimitProblem) -> dict:
    """i -> dim K^{>=i} where K^{>=i} = {k in K : components of weight < i vanish}.

    Quotient dims K^{>=i}/K^{>=i+1} match the graded dims of K0.
    """
    K, glw = problem.K, problem.glw
    if not K:
        return {}
    return {i: len(_weight_kernel(K, glw, lambda w: w < i))
            for i in range(min(glw), max(glw) + 2)}
