"""Exact ILP formulation and solvers (paper Def. 4, Eq. 8-11).

The paper solves the reformulated ILP with Gurobi to obtain the optimal
baseline ("OPT").  Offline, we target the same mathematical program with
two interchangeable backends:

* :mod:`repro.ilp.scipy_backend` — ``scipy.optimize.milp`` (HiGHS), the
  production path;
* :mod:`repro.ilp.bnb` — a pure-Python best-first branch-and-bound over
  the LP relaxation, used to cross-validate the formulation on tiny
  instances (its optima must coincide with HiGHS's).

For the *chain* latency model the pairwise communication term is
linearized with auxiliary edge variables ``z(h,e,k,q) ≥ y(h,e,k) +
y(h,e+1,q) − 1`` (DESIGN.md §2); for the *star* model the objective is
already linear in ``y``.
"""

from repro.ilp.formulation import ILPFormulation, build_formulation
from repro.ilp.scipy_backend import solve_milp, MilpResult
from repro.ilp.bnb import branch_and_bound, BnBResult
from repro.ilp.solution import extract_solution

__all__ = [
    "ILPFormulation",
    "build_formulation",
    "solve_milp",
    "MilpResult",
    "branch_and_bound",
    "BnBResult",
    "extract_solution",
]
